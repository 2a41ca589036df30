"""CTC machinery over log-probability posteriorgrams.

Labels here are posteriorgram column indices: column 0 is the blank,
columns 1..V are the output labels.  A path collapses by first merging
adjacent repeats, then deleting blanks.  All scores live in the log
domain as float64; impossible events are -inf, never an underflowed zero.
"""

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .kernels import NEG_INF, log_add, log_softmax_f64

BLANK = 0


@dataclass
class Posteriorgram:
    """Per-frame label log-probabilities: (N, V+1) float64, column 0 = blank."""

    logp: np.ndarray

    def validate(self, tol=1e-5):
        lp = np.asarray(self.logp)
        if lp.ndim != 2 or lp.shape[0] < 1 or lp.shape[1] < 2:
            raise ValueError(f"posteriorgram must be (N>=1, V+1>=2), got {lp.shape}")
        check_log_probs(lp)
        lse = np.array([_row_lse(row) for row in lp])
        bad = np.flatnonzero(np.abs(lse) > tol)
        if bad.size:
            raise ValueError(f"posteriorgram row {bad[0]} sums to exp({lse[bad[0]]}), not 1")


@dataclass
class PrefixScores:
    """Blank-final and label-final log probability mass of one prefix."""

    p_b: float
    p_nb: float

    @property
    def total(self):
        return log_add(self.p_b, self.p_nb)


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


def check_log_probs(lp):
    """Reject NaN or +inf log probabilities; -inf (probability zero) is allowed."""
    if np.isnan(lp).any() or (lp == math.inf).any():
        raise ValueError("log probabilities contain NaN or +inf")


def _row_lse(row):
    m = float(np.max(row))
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(float(np.sum(np.exp(row - m))))


def _check_labels(labels, n_cols):
    for y in labels:
        if not 1 <= y < n_cols:
            raise ValueError(f"label {y} outside posteriorgram columns 1..{n_cols - 1}")


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
    lp = np.asarray(post.logp if isinstance(post, Posteriorgram) else post, dtype=np.float64)
    labels = list(labels)
    _check_labels(labels, lp.shape[1])
    n = lp.shape[0]
    if not labels:
        return float(np.sum(lp[:, BLANK])) if n else 0.0
    if n == 0:
        return NEG_INF
    states = _expanded_states(labels)
    s = len(states)
    alpha = np.full(s, NEG_INF)
    alpha[0] = lp[0, states[0]]
    if s > 1:
        alpha[1] = lp[0, states[1]]
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
    return float(log_add(alpha[s - 1], alpha[s - 2] if s > 1 else NEG_INF))


def ctc_viterbi_align(post, labels, eps_dec):
    """Most probable single alignment of ``labels`` plus trigger frames.

    Ties prefer the path that advances (and therefore emits labels)
    earliest.  nu = first_occurrence + eps_dec, reported unclamped.
    Raises when the labels cannot be aligned within the frame count.
    """
    lp = np.asarray(post.logp if isinstance(post, Posteriorgram) else post, dtype=np.float64)
    labels = list(labels)
    _check_labels(labels, lp.shape[1])
    n = lp.shape[0]
    if not labels:
        return TriggerAlignment(tuple([BLANK] * n), (), ())
    if n == 0:
        raise ValueError("no valid alignment")
    states = _expanded_states(labels)
    s = len(states)
    score = np.full((n, s), NEG_INF)
    back = np.zeros((n, s), dtype=np.int64)
    score[0, 0] = lp[0, states[0]]
    score[0, 1] = lp[0, states[1]]
    back[0, 0] = 0
    back[0, 1] = 1
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
    ends = [s - 1, s - 2]
    end = max(ends, key=lambda c: (score[n - 1, c], c))
    if score[n - 1, end] == NEG_INF:
        raise ValueError("no valid alignment")
    seq = [0] * n
    j = end
    for t in range(n - 1, -1, -1):
        seq[t] = j
        j = back[t, j]
    path = tuple(states[j] for j in seq)
    first = []
    prev_state = -1
    for t, j in enumerate(seq):
        if j != prev_state and states[j] != BLANK:
            first.append(t + 1)
        prev_state = j
    first = tuple(first)
    return TriggerAlignment(path, first, tuple(f + eps_dec for f in first))


_LAST = attrgetter("last")


def _append_column(prefix, col):
    return prefix + (col,)


def _last_column(prefix):
    return prefix[-1] if prefix else None


def ctc_prefix_step(post_row, hyps, local_threshold=1e-4, child=None):
    """One frame of prefix beam search: extend every prefix by this frame.

    hyps maps prefixes to their blank-final and label-final masses from
    the previous frame (anything with ``p_b`` and ``p_nb``, such as
    PrefixScores).  By default a prefix is a tuple of column indices (no
    blanks).  With ``child`` a prefix is any key with a ``last`` column
    (None for the empty prefix), and ``child(prefix, col)`` returns the
    key of prefix extended by col.  Returns the updated mapping to
    PrefixScores, containing the survivors and their one-label
    extensions.  Blank mass is always propagated; a non-blank label is
    skipped for the whole frame when its linear probability falls below
    ``local_threshold`` (or is exactly zero), since it can contribute no
    usable mass.  Entries whose blank and non-blank masses both come out
    zero are dropped: a prefix no path can reach is not a candidate, and
    keeping it would let downstream ranking terms that ignore path mass
    promote an impossible sequence.
    """
    row = np.asarray(post_row, dtype=np.float64)
    if row.ndim != 1:
        raise ValueError(f"posterior row must be a vector, got shape {row.shape}")
    # plain floats: scores stay host-precision floats throughout
    masses = _prefix_masses(row.tolist(), hyps, local_threshold, child)
    return {p: PrefixScores(p_b, p_nb) for p, (p_b, p_nb) in masses.items()}


def _prefix_masses(row, hyps, local_threshold, child=None):
    """The recursion behind :func:`ctc_prefix_step`, on a posterior row of
    Python floats: returns ``{prefix: [p_b, p_nb]}`` with the same keys
    and values, without wrapping them."""
    log_thresh = math.log(local_threshold) if local_threshold > 0 else NEG_INF
    if child is None:
        child, last_of = _append_column, _last_column
    else:
        last_of = _LAST
    active = [(k, lp) for k, lp in enumerate(row)
              if k != BLANK and not (lp == NEG_INF or lp < log_thresh)]
    acc = {}
    # Each contribution adds to one of a prefix's two masses.  log_add with
    # a -inf side returns the other side unchanged, so only the mass that
    # receives it is added to.
    lp_blank = row[BLANK]
    for prefix, sc in hyps.items():
        p_b, p_nb = sc.p_b, sc.p_nb
        total = log_add(p_b, p_nb)
        cur = acc.get(prefix)
        if cur is None:
            cur = acc[prefix] = [lp_blank + total, NEG_INF]
        else:
            cur[0] = log_add(cur[0], lp_blank + total)
        last = last_of(prefix)
        for k, lp in active:
            if k == last:
                cur[1] = log_add(cur[1], lp + p_nb)
                mass = lp + p_b
            else:
                mass = lp + total
            ext = child(prefix, k)
            nxt = acc.get(ext)
            if nxt is None:
                acc[ext] = [NEG_INF, mass]
            else:
                nxt[1] = log_add(nxt[1], mass)
    return {p: v for p, v in acc.items() if v[0] != NEG_INF or v[1] != NEG_INF}


def posteriorgram_from_states(states, weight, bias):
    """CTC output head: per-row linear projection and float64 log-softmax."""
    mat = states.states if hasattr(states, "states") else np.asarray(states)
    rows = [log_posterior_row(mat[i], weight, bias) for i in range(mat.shape[0])]
    return Posteriorgram(np.stack(rows) if rows else np.zeros((0, weight.shape[1])))


def log_posterior_row(state_row, weight, bias):
    """One CTC posterior row; streaming emits rows through this same path."""
    logits = state_row @ weight + bias
    return log_softmax_f64(logits)


def write_posteriorgram(post, path):
    lp = np.asarray(post.logp, dtype=np.float64)
    with open(path, "wb") as f:
        f.write(f"CTCPOST v1 {lp.shape[0]} {lp.shape[1]}\n".encode("ascii"))
        f.write(lp.astype("<f8").tobytes())


def read_posteriorgram(path):
    with open(path, "rb") as f:
        header = f.readline().decode("ascii", errors="replace").strip()
        parts = header.split()
        if len(parts) != 4 or parts[0] != "CTCPOST" or parts[1] != "v1":
            raise ValueError(f"{path}: bad posteriorgram header {header!r}")
        n, c = int(parts[2]), int(parts[3])
        payload = f.read()
    expected = n * c * 8
    if len(payload) != expected:
        raise ValueError(f"{path}: expected {expected} payload bytes, found {len(payload)}")
    post = Posteriorgram(np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(n, c))
    post.validate()
    return post
