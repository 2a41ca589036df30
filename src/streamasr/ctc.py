"""CTC machinery over log-probability posteriorgrams.

A posteriorgram is the (N, V+1) float64 matrix of per-frame label log
probabilities that :func:`posteriorgram_from_states` returns.  Labels
here are its column indices: column 0 is the blank, columns 1..V are the
output labels.  A path collapses by first merging adjacent repeats, then
deleting blanks.  All scores live in the log domain as float64;
impossible events are -inf, never an underflowed zero.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .kernels import NEG_INF, check_count, check_model_dtype, is_int, log_add, log_softmax_f64

BLANK = 0


@dataclass
class PrefixScores:
    """Blank-final and label-final log probability mass of one prefix."""

    p_b: float
    p_nb: float


@dataclass
class TriggerAlignment:
    """Best forced alignment and the frames where each label first fires.

    path: length-N tuple of column indices (0 = blank).
    first_occurrence: 1-indexed frame of each label's first emission.
    nu: first_occurrence shifted by the decoder look-ahead, unclamped.
    """

    path: tuple
    first_occurrence: tuple
    nu: tuple


def validate_posteriorgram(post, tol=1e-5):
    """Check (N>=1, V+1>=2), no NaN or +inf, and each row's log-sum-exp within ``tol`` of 0."""
    lp = np.asarray(post)
    if lp.ndim != 2 or lp.shape[0] < 1 or lp.shape[1] < 2:
        raise ValueError(f"posteriorgram must be (N>=1, V+1>=2), got {lp.shape}")
    check_log_probs(lp)
    lse = np.array([_row_lse(row) for row in lp])
    bad = np.flatnonzero(np.abs(lse) > tol)
    if bad.size:
        raise ValueError(f"posteriorgram row {bad[0]} sums to exp({lse[bad[0]]}), not 1")


def posterior_matrix(post):
    """``post`` as a float64 array; one that is not 2-D raises ``ValueError``."""
    lp = np.asarray(post, dtype=np.float64)
    if lp.ndim != 2:
        raise ValueError(f"posteriorgram must be 2-D (frames, columns), got shape {lp.shape}")
    return lp


def check_log_probs(lp):
    """Reject NaN or +inf log probabilities; -inf (probability zero) is allowed."""
    # x < inf fails exactly for NaN and +inf: one comparison and one reduction
    if not np.logical_and.reduce(np.less(lp, math.inf), axis=None):
        raise ValueError("log probabilities contain NaN or +inf")


def _row_lse(row):
    m = float(np.max(row))
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(float(np.sum(np.exp(row - m))))


def check_labels(labels, lo, hi, where):
    """Reject a label that is not an integer in [lo, hi) ``where`` names."""
    for y in labels:
        if not (is_int(y) and lo <= y < hi):
            raise ValueError(f"label {y!r} outside {where} {lo}..{hi - 1}")


def _expanded_states(labels):
    """Blank-interleaved state sequence: blank, y1, blank, y2, ..., blank."""
    states = [BLANK]
    for y in labels:
        states.append(y)
        states.append(BLANK)
    return states


def ctc_forward_logprob(post, labels):
    """Log probability that the posteriorgram emits exactly ``labels``.

    Sums over every path that collapses to the label sequence; returns
    -inf when no such path exists (e.g. too few frames).
    """
    lp = posterior_matrix(post)
    labels = list(labels)
    check_labels(labels, 1, lp.shape[1], "posteriorgram columns")
    n = lp.shape[0]
    if not labels:
        return float(np.sum(lp[:, BLANK])) if n else 0.0
    if n == 0:
        return NEG_INF
    states = _expanded_states(labels)
    s = len(states)
    alpha = np.full(s, NEG_INF)
    alpha[:2] = lp[0, states[:2]]  # a path starts on the blank or the first label
    for t in range(1, n):
        prev = alpha
        alpha = np.full(s, NEG_INF)
        for j in range(s):
            a = prev[j]
            if j >= 1:
                a = log_add(a, prev[j - 1])
            if j >= 2 and states[j] != BLANK and states[j] != states[j - 2]:
                a = log_add(a, prev[j - 2])
            if a != NEG_INF:
                alpha[j] = a + lp[t, states[j]]
    return float(log_add(alpha[s - 1], alpha[s - 2]))


def ctc_viterbi_align(post, labels, eps_dec):
    """Most probable single alignment of ``labels`` plus trigger frames.

    Ties prefer the path that advances (and therefore emits labels)
    earliest.  nu = first_occurrence + eps_dec (checked as the search's),
    reported unclamped.  Raises when the labels cannot be aligned within
    the frame count.
    """
    check_count(eps_dec, "eps_dec")
    lp = posterior_matrix(post)
    labels = list(labels)
    check_labels(labels, 1, lp.shape[1], "posteriorgram columns")
    n = lp.shape[0]
    if not labels:
        return TriggerAlignment(tuple([BLANK] * n), (), ())
    if n == 0:
        raise ValueError("no valid alignment")
    states = _expanded_states(labels)
    s = len(states)
    score = np.full((n, s), NEG_INF)
    back = np.zeros((n, s), dtype=np.int64)
    score[0, :2] = lp[0, states[:2]]
    for t in range(1, n):
        for j in range(s):
            cands = [j]
            if j >= 1:
                cands.append(j - 1)
            if j >= 2 and states[j] != BLANK and states[j] != states[j - 2]:
                cands.append(j - 2)
            # ties pick the largest predecessor: the path that got here first
            best = max(cands, key=lambda c: (score[t - 1, c], c))
            if score[t - 1, best] == NEG_INF:
                continue
            score[t, j] = score[t - 1, best] + lp[t, states[j]]
            back[t, j] = best
    end = max((s - 1, s - 2), key=lambda c: (score[n - 1, c], c))
    if score[n - 1, end] == NEG_INF:
        raise ValueError("no valid alignment")
    seq = [0] * n
    j = end
    for t in range(n - 1, -1, -1):
        seq[t] = j
        j = back[t, j]
    path = tuple(states[j] for j in seq)
    # a label first fires where the path enters its state
    first = tuple(t + 1 for t, j in enumerate(seq)
                  if states[j] != BLANK and (t == 0 or seq[t - 1] != j))
    return TriggerAlignment(path, first, tuple(f + eps_dec for f in first))


def _split_columns(prefix):
    """A column-tuple prefix as (parent, last column); (None, None) for ()."""
    return (prefix[:-1], prefix[-1]) if prefix else (None, None)


def ctc_prefix_step(post_row, hyps, local_threshold=1e-4):
    """One frame of prefix beam search: extend every prefix by this frame.

    hyps maps prefixes, tuples of column indices (no blanks), to their
    blank-final and label-final masses from the previous frame (anything
    with ``p_b`` and ``p_nb``, such as PrefixScores).  Returns the updated
    mapping to PrefixScores, containing the survivors and their one-label
    extensions.  Blank mass is always propagated; a non-blank label is
    skipped for the whole frame when its linear probability falls below
    ``local_threshold`` (or is exactly zero), since it can contribute no
    usable mass.  Entries whose blank and non-blank masses both come out
    zero are dropped: a prefix no path can reach is not a candidate, and
    keeping it would let downstream ranking terms that ignore path mass
    promote an impossible sequence.  The extensions come from the mass
    matrix of :func:`_prefix_masses`, carried prefix by carried prefix
    and column by column, as Python floats.
    The search runs it on interned prefixes; this tuple form is kept as
    the tests' reference against path enumeration and the forward score.
    """
    row = np.asarray(post_row, dtype=np.float64)
    if row.ndim != 1:
        raise ValueError(f"posterior row must be a vector, got shape {row.shape}")
    # plain floats: scores stay host-precision floats throughout
    carried, cols, masses = _prefix_masses(row.tolist(), hyps, local_threshold, _split_columns)
    out = {p: PrefixScores(p_b, p_nb) for p, (p_b, p_nb) in carried.items()}
    parents = list(hyps)
    rows, where = np.nonzero(masses != NEG_INF)
    for i, j, mass in zip(rows.tolist(), where.tolist(), masses[rows, where].tolist()):
        out[parents[i] + (cols[j],)] = PrefixScores(NEG_INF, mass)
    return out


def _prefix_masses(row, hyps, local_threshold, split):
    """The recursion behind :func:`ctc_prefix_step` and the search's CTC
    stage, on a posterior row of Python floats.

    ``split(prefix)`` gives a carried prefix's (parent, last column),
    (None, None) for the empty prefix.  Returns ``(carried, cols,
    masses)``.  ``carried`` maps each prefix of ``hyps`` that keeps some
    mass to its new ``[p_b, p_nb]``, in the order of ``hyps``.  ``cols``
    lists the active label columns, those at or above ``local_threshold``,
    in column order.  ``masses`` is a float64 (len(hyps), len(cols))
    matrix, row i for the i-th prefix of ``hyps``: the mass of extending
    it by ``cols[j]``, or -inf where that extension has zero mass or is
    itself carried.

    An extension that is not carried gets one contribution only, so its
    p_b is -inf and its p_nb is its entry: the total mass plus the label,
    or p_b plus the label for its own last column, added by NumPy, whose
    float64 ``+`` rounds as Python's does.  A carried prefix's p_nb gets at
    most two contributions, its own repeat and its carried parent's
    extension, through ``log_add`` on Python floats; ``log_add`` is
    commutative bit for bit, so the order they arrive in changes no bit.
    """
    log_thresh = math.log(local_threshold) if local_threshold > 0 else NEG_INF
    cols = [k for k, lp in enumerate(row)
            if k != BLANK and not (lp == NEG_INF or lp < log_thresh)]
    lps = [row[k] for k in cols]
    where = {k: j for j, k in enumerate(cols)}
    lp_blank = row[BLANK]
    carried = {}
    index = {}  # carried prefix -> its row of masses
    kin = []  # per carried prefix: its [p_b, p_nb], parent, last column's j, scores
    totals = []
    for i, (prefix, sc) in enumerate(hyps.items()):
        total = log_add(sc.p_b, sc.p_nb)
        # the blank is p_b's one contribution; log_add with a -inf side
        # returns the other side unchanged, so p_nb's start at -inf
        cur = carried[prefix] = [lp_blank + total, NEG_INF]
        index[prefix] = i
        parent, last = split(prefix)
        kin.append((cur, parent, where.get(last), sc))
        totals.append(total)
    masses = np.add.outer(totals, lps)
    for i, (cur, _, j, sc) in enumerate(kin):
        if j is not None:
            # its own last column: the repeat adds to p_nb, and the
            # extension takes p_b's mass only
            cur[1] = log_add(cur[1], lps[j] + sc.p_nb)
            masses[i, j] = lps[j] + sc.p_b
    # a carried child takes its carried parent's extension into its p_nb
    for cur, parent, j, _ in kin:
        i = index.get(parent)
        if i is not None and j is not None:
            cur[1] = log_add(cur[1], float(masses[i, j]))
            masses[i, j] = NEG_INF
    return ({p: v for p, v in carried.items() if v[0] != NEG_INF or v[1] != NEG_INF},
            cols, masses)


def posteriorgram_from_states(states, weight, bias):
    """CTC output head: the (N, d_model) encoder matrix -> the (N, V+1)
    posteriorgram, a linear projection and float64 log-softmax per row.

    The rows are one stack of (1, d_model) @ (d_model, V+1) products, the
    vector-matrix routine of :func:`log_posterior_row`, and one
    :func:`log_softmax_f64` call, so each row has the bits of that
    function on it.  A head tensor that is not float32, the model dtype,
    raises ``ValueError`` naming it (``ctc.w`` or ``ctc.b``) before any
    work.  ``states`` that are not a 2-D matrix as wide as the head's input
    raise ``ValueError``, as does a row whose logits hold NaN or +inf, or
    only -inf (a head weight that is not finite): the matrix call refuses
    it.  :func:`log_posterior_row` gives NaN for such a row instead, and
    the search refuses that row when it reads it."""
    check_model_dtype(SimpleNamespace(ctc_w=weight, ctc_b=bias))
    mat = np.asarray(states)
    if mat.ndim != 2 or mat.shape[1] != weight.shape[0]:
        raise ValueError(f"encoder states of shape {mat.shape}, "
                         f"expected (N, {weight.shape[0]})")
    return log_softmax_f64(np.matmul(mat[:, None, :], weight)[:, 0] + bias)


def log_posterior_row(state_row, weight, bias):
    """One CTC posterior row; streaming emits rows through this same path,
    whose one vector product costs less than a one-row matrix call; a
    streaming session checks the head's dtype once, when it is built."""
    logits = state_row @ weight + bias
    return log_softmax_f64(logits)

