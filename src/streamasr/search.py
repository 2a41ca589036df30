"""Frame-synchronous one-pass beam search joining CTC and the triggered decoder.

Per encoder frame n the search (1) extends every surviving prefix through
one CTC prefix-search step, (2) ranks the results by the CTC prefix score
p_prfx = log(p_b + p_nb) + alpha0 * log p_lm + beta * |prefix| and prunes
to the top K within beam width theta1, (3) gives each surviving prefix
that lacks one a triggered-attention score using encoder rows 1..n +
eps_dec, (4) combines both scores,

    p_joint = lam * log p_prfx + (1 - lam) * log p_ta
              + alpha * log p_lm + beta * |prefix|,

and (5) carries forward the union of the top P by p_joint and the top P
within width theta2 by p_prfx.  Triggered-attention scores are cached per
prefix together with the decoder states and the encoder truncation each
label was scored at, so a label's score never silently shifts to a later
frame once computed.  A cached prefix also keeps its next-label decoder
step at the latest truncation; its children and the final ``<eos>`` pass
share that one step, and the steps a frame needs run as one batched
decoder call.

A prefix is a sequence of posteriorgram column indices (blank = 0 never
appears); the start token is implicit.  Label ids are column - 1.  The
search holds each prefix as an interned :class:`Prefix` node (a parent,
a last column and a length), found through the search's
:class:`PrefixTable`, so extending, hashing and looking up a prefix cost
O(1) however long it grows.  Hooks, labels and trace lines still see
column tuples.
"""

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import decoder as dec_mod
from .ctc import check_log_probs, ctc_prefix_step
from .kernels import NEG_INF, log_add


@dataclass
class DecodeParams:
    """Search weights and beam sizes.

    lam balances CTC against the attention decoder; alpha0/alpha are the
    LM weights inside the CTC ranking and the joint score; beta is the
    per-label insertion bonus.  k_size/theta1 prune the CTC candidates,
    p_size/theta2 shape the carried beam.  eps_dec is the decoder
    look-ahead in encoder frames.  local_threshold is the per-frame label
    probability below which the CTC step skips a label.  The sizes and
    eps_dec must be integers, the weights and widths finite, and
    local_threshold in [0, 1); anything else raises ``ValueError``.

    The hooks see (prefix, omega_hat, frame, post_row): the prefix as a
    tuple of posteriorgram columns and omega_hat as a view of this frame's
    pruned candidates keyed by such tuples, both built only when a hook is
    set.  acond is asked shortest prefix first, then in tuple order.
    dcond returning True deletes a prefix's triggered-attention (TA) score
    so it is computed again this frame.  acond returning False skips TA
    scoring for a prefix this frame; its fused score then falls back to
    the parent's TA score.  A declined prefix still gets a TA score when a
    descendant is scored later: missing ancestors are scored first,
    shortest first, at that frame's encoder truncation.  A prefix
    re-scored after dcond and a missing ancestor both read their parent's
    decoder step at that frame's truncation, the step the parent's other
    children share.
    """

    lam: float = 0.5
    alpha0: float = 0.7
    alpha: float = 0.5
    beta: float = 2.0
    k_size: int = 300
    p_size: int = 30
    theta1: float = 16.0
    theta2: float = 6.0
    eps_dec: int = 18
    local_threshold: float = 1e-4
    add_eos_at_finalize: bool = True
    dcond: object = None  # fn(prefix, omega_hat, frame, post_row) -> bool; None = never
    acond: object = None  # fn(prefix, omega_hat, frame, post_row) -> bool; None = always

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must be in [0, 1], got {self.lam}")
        for name in ("k_size", "p_size"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.k_size < self.p_size or self.p_size < 1:
            raise ValueError(f"need k_size >= p_size >= 1, got {self.k_size}, {self.p_size}")
        for name in ("alpha0", "alpha", "beta", "theta1", "theta2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.theta1 <= 0 or self.theta2 <= 0:
            raise ValueError("beam widths must be positive")
        check_eps_dec(self.eps_dec)
        if not 0.0 <= self.local_threshold < 1.0:
            raise ValueError(f"local_threshold must be in [0, 1), got {self.local_threshold}")


def _is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def check_eps_dec(eps_dec):
    """Reject a decoder look-ahead that is not a non-negative integer."""
    if not _is_int(eps_dec) or eps_dec < 0:
        raise ValueError(f"eps_dec must be a non-negative integer, got {eps_dec!r}")


@dataclass
class LossParams:
    """Mixing weight for the two training objectives."""

    gamma: float = 0.3

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")


@dataclass(slots=True)
class Hypothesis:
    """One search prefix with its CTC mass and fused bookkeeping."""

    prefix: object  # a Prefix inside a search; any sized key works for the scores
    p_b: float
    p_nb: float
    lm_state: object
    lm_logp: float
    ta_logp: float | None = None


@dataclass
class DecodeResult:
    labels: tuple
    score: float
    trace: list = field(default_factory=list)


class Prefix:
    """One interned search prefix: the empty prefix, or a parent plus one
    last column.

    A search makes one node per distinct prefix (see PrefixTable), so a
    node hashes and compares equal by identity.  ``len`` is the number of
    columns and ``<`` is the lexicographic order of the column tuples,
    built only when two nodes are compared: the same order as the tuples
    the search used to key on.
    """

    __slots__ = ("parent", "last", "length")

    def __init__(self, parent=None, last=None):
        self.parent = parent
        self.last = last
        self.length = 0 if parent is None else parent.length + 1

    def __len__(self):
        return self.length

    def __lt__(self, other):
        return self.as_tuple() < other.as_tuple()

    def as_tuple(self):
        """The prefix's posteriorgram columns, oldest first."""
        cols = [None] * self.length
        node = self
        for i in range(self.length - 1, -1, -1):
            cols[i] = node.last
            node = node.parent
        return tuple(cols)

    def __repr__(self):
        return f"Prefix{self.as_tuple()}"


class PrefixTable:
    """The child table that interns one search's prefixes: each (parent,
    column) pair maps to one Prefix, so a prefix reached again comes back
    as the same node and finds the state kept under it."""

    def __init__(self):
        self.root = Prefix()
        self._children = {}

    def child(self, parent, col):
        """The node of ``parent`` extended by column ``col``."""
        key = (parent, col)
        node = self._children.get(key)
        if node is None:
            node = self._children[key] = Prefix(parent, col)
        return node

    def retain(self, live):
        """Keep only the ``live`` prefixes and their ancestors in the table
        and return them as a set.  The walk up from each live prefix stops
        at the first node already kept."""
        keep = {self.root}
        for node in live:
            while node not in keep:
                keep.add(node)
                node = node.parent
        self._children = {(node.parent, node.last): node for node in keep
                          if node.parent is not None}
        return keep

    def __iter__(self):
        """Every non-empty prefix in the table."""
        return iter(self._children.values())


def prefix_score(hyp, alpha0, beta):
    """CTC ranking score: log prefix mass + weighted LM + insertion bonus."""
    return log_add(hyp.p_b, hyp.p_nb) + alpha0 * hyp.lm_logp + beta * len(hyp.prefix)


def joint_score(hyp, params, fallback_ta=None):
    """Fused score; uses the hypothesis's own TA score or the caller's fallback.

    The lam == 1 branch reproduces prefix_score's arithmetic exactly (not
    just to rounding), which is what makes the pure-CTC reduction an
    identity rather than an approximation.
    """
    ta = hyp.ta_logp if hyp.ta_logp is not None else fallback_ta
    if ta is None:
        raise ValueError("no triggered-attention score for prefix or its parent")
    logp = log_add(hyp.p_b, hyp.p_nb)
    if params.lam == 1.0:
        s = logp
    elif params.lam == 0.0:
        s = (1.0 - params.lam) * ta
    else:
        s = params.lam * logp + (1.0 - params.lam) * ta
    return s + params.alpha * hyp.lm_logp + params.beta * len(hyp.prefix)


def _rank_key(scores):
    return lambda p: (-scores[p], len(p), p)


def _within(ranked, scores, size, width):
    """The first ``size`` of ``ranked`` (best first) that score no lower
    than the best minus ``width``."""
    kept = ranked[:size]
    if kept:
        cut = scores[kept[0]] - width
        kept = [p for p in kept if not scores[p] < cut]
    return kept


def prune(hyps, scores, size, width):
    """Keep the top ``size`` by score, then drop anything below max - width.

    ``scores`` maps each key of ``hyps`` to its score.  The result is in
    rank order.  Ties break toward shorter, then lexicographically smaller
    prefixes.
    """
    if size < 1:
        raise ValueError(f"prune size must be >= 1, got {size}")
    ranked = sorted(hyps, key=_rank_key(scores))
    return {p: hyps[p] for p in _within(ranked, scores, size, width)}


def top_hypotheses(hyps, scores, size):
    """Keep the top ``size`` by score with the same tie-breaking as prune."""
    kept = sorted(hyps, key=_rank_key(scores))[:size]
    return {p: hyps[p] for p in kept}


def _format_trace(frame, beams, prefix, phat, pjoint):
    ids = ",".join(str(c - 1) for c in prefix)
    return f"frame={frame} beams={beams} best={ids} p_prfx={phat!r} p_joint={pjoint!r}"


class _PrefixBeam:
    """What the joint and the pure-CTC search share: the carried beam over
    interned prefixes, the CTC stage of a frame and the carry.

    ``banned_cols`` are posteriorgram columns the search never extends a
    prefix with.
    """

    def __init__(self, lm, params, n_cols, banned_cols):
        self.lm = lm
        self.params = params
        self.n_cols = n_cols
        self._banned_cols = banned_cols
        self.prefixes = PrefixTable()
        root = self.prefixes.root
        self.hyps = {
            root: Hypothesis(root, p_b=0.0, p_nb=NEG_INF, lm_state=lm.start_state(), lm_logp=0.0)
        }
        self.frame = 0
        self.trace = []
        self._last_carried = dict(self.hyps)
        self._last_phat = {root: 0.0}

    def _ctc_stage(self, post_row):
        """Check a posterior row and count the frame, extend the beam through
        one CTC step and the LM, and prune by the CTC ranking score.

        Returns the row as floats, every candidate's ranking score (phat),
        and the candidates within k_size and theta1 (omega_hat) in rank
        order.
        """
        row = np.array(post_row, dtype=np.float64, copy=True)
        if row.shape != (self.n_cols,):
            raise ValueError(f"posterior row shape {row.shape}, expected ({self.n_cols},)")
        check_log_probs(row)
        self.frame += 1
        p = self.params
        row[self._banned_cols] = NEG_INF
        row = row.tolist()
        stepped = ctc_prefix_step(row, self.hyps, p.local_threshold, self.prefixes.child)
        omega_ctc = {}
        phat = {}
        for pre, sc in stepped.items():
            h = self.hyps.get(pre)
            if h is None:
                parent = self.hyps[pre.parent]
                state, inc = self.lm.extend(parent.lm_state, pre.last - 1)
                h = Hypothesis(pre, sc.p_b, sc.p_nb, state, parent.lm_logp + inc)
            else:
                h = Hypothesis(pre, sc.p_b, sc.p_nb, h.lm_state, h.lm_logp)
            omega_ctc[pre] = h
            phat[pre] = prefix_score(h, p.alpha0, p.beta)
        omega_hat = prune(omega_ctc, phat, p.k_size, p.theta1)
        if not omega_hat:
            raise RuntimeError("search collapsed")
        return row, phat, omega_hat

    def _carry(self, omega_hat, top, phat, pjoint):
        """Carry ``top`` (the top p_size prefixes by pjoint) and then the top
        p_size of omega_hat within theta2 by phat, trace the frame, and keep
        only the carried prefixes and their ancestors in the prefix table.

        Returns the set of those prefixes.  omega_hat is in phat rank
        order, so the second cut needs no sort.  The carried order (top
        first) is the order the next frame accumulates CTC mass in.
        """
        p = self.params
        kept = {pre: omega_hat[pre] for pre in _within(list(omega_hat), phat, p.p_size, p.theta2)}
        carried = {pre: omega_hat[pre] for pre in top}
        carried.update(kept)
        self.hyps = carried
        self._last_carried = kept
        self._last_phat = phat
        best = min(kept, key=_rank_key(pjoint))
        self.trace.append(_format_trace(self.frame, len(kept), best.as_tuple(),
                                        phat[best], pjoint[best]))
        return self.prefixes.retain(carried)

    @property
    def best_ctc_partial(self):
        """Best carried prefix by CTC ranking score, as label ids."""
        best = min(self._last_carried, key=_rank_key(self._last_phat))
        return tuple(c - 1 for c in best.as_tuple())

    def _result(self, scores):
        """The DecodeResult of the last frame's best carried prefix by ``scores``."""
        best = min(self._last_carried, key=_rank_key(scores))
        return DecodeResult(tuple(c - 1 for c in best.as_tuple()), float(scores[best]),
                            list(self.trace))


@dataclass
class _TaEntry:
    logp: float
    nus: tuple
    hist: list  # per-layer attention.KeyValues: self-attention keys and values
    step: tuple = None  # (nu, child_hist, log_posterior) of the next label, see _step


class JointSearch(_PrefixBeam):
    """Mutable per-utterance state of the joint decode, advanced frame by frame.

    The same object backs offline decoding and streaming sessions; both
    call :meth:`advance` once per encoder frame with the posterior row
    and every encoder row available so far, then :meth:`finalize`.
    """

    def __init__(self, dec, lm, params, n_cols):
        banned = [dec.sos_id + 1]
        if dec.eos_id is not None:
            banned.append(dec.eos_id + 1)
        super().__init__(lm, params, n_cols, [c for c in banned if c < n_cols])
        self.dec = dec
        self.ta = {self.prefixes.root: _TaEntry(0.0, (), dec_mod.empty_history(dec))}
        self.cross = None  # CrossAttentionCache over the encoder rows, from the first frame
        self._last_pjoint = {self.prefixes.root: 0.0}

    def advance(self, post_row, enc_rows):
        """Process one frame: returns nothing, mutates the beam."""
        row, phat, omega_hat = self._ctc_stage(post_row)
        n = self.frame
        p = self.params
        if self.cross is None:
            self.cross = dec_mod.CrossAttentionCache(self.dec, enc_rows)
        self.cross.update(enc_rows)

        if p.dcond is not None or p.acond is not None:
            # the hooks see column tuples, built only when a hook is set
            cols = {pre: pre.as_tuple() for pre in omega_hat}
            view = {cols[pre]: h for pre, h in omega_hat.items()}
        if p.dcond is not None:
            for pre in omega_hat:
                if pre and pre in self.ta and p.dcond(cols[pre], view, n, row):
                    del self.ta[pre]
        if p.acond is None:
            targets = [pre for pre in omega_hat if pre not in self.ta]
        else:
            targets = [pre for pre in sorted(omega_hat, key=lambda q: (len(q), cols[q]))
                       if pre not in self.ta and p.acond(cols[pre], view, n, row)]
        self._score_ta(targets, min(n + p.eps_dec, self.cross.enc.shape[0]))

        pjoint = {}
        for pre, h in omega_hat.items():
            entry = self.ta.get(pre)
            if entry is not None:
                h.ta_logp = entry.logp
                pjoint[pre] = joint_score(h, p)
            else:
                h.ta_logp = None
                parent = self.ta.get(pre.parent)
                pjoint[pre] = joint_score(h, p, parent.logp if parent else None)

        live = self._carry(omega_hat, top_hypotheses(omega_hat, pjoint, p.p_size), phat, pjoint)
        self._evict_ta(live)
        self._last_pjoint = pjoint

    def _score_ta(self, targets, nu):
        """Give each of ``targets`` a TA entry at truncation nu, scoring
        any ancestors that have none first.

        Each round creates the entries whose parent has one, after
        stepping all of their distinct parents in one decoder call; a
        later round serves children of entries made this frame (missing
        ancestors, ``dcond`` re-scoring).  Rows of a batched decoder step
        do not depend on each other, so the order within a round does not
        change any score.
        """
        todo = {}
        for pre in targets:
            while pre not in self.ta and pre not in todo:
                todo[pre] = None
                pre = pre.parent
        while todo:
            ready = [pre for pre in todo if pre.parent in self.ta]
            self._step([pre.parent for pre in ready], nu)
            for pre in ready:
                parent = self.ta[pre.parent]
                _, hist, logpost = parent.step
                self.ta[pre] = _TaEntry(parent.logp + float(logpost[pre.last - 1]),
                                        parent.nus + (nu,), hist)
                del todo[pre]

    def _step(self, prefixes, nu):
        """Give each of ``prefixes`` its next-label decoder step at
        truncation nu, running the missing ones as one batched step.

        The step depends only on the prefix's entry and nu, so it runs
        once per pair: every child of the prefix and the ``<eos>`` pass
        read the kept result, and the children share the one history.
        """
        stale = [pre for pre in dict.fromkeys(prefixes)
                 if self.ta[pre].step is None or self.ta[pre].step[0] != nu]
        entries = [self.ta[pre] for pre in stale]
        steps = dec_mod.advance_positions(
            self.dec, self.cross, [e.hist for e in entries],
            [pre.last - 1 if pre else self.dec.sos_id for pre in stale],
            [len(pre) for pre in stale], nu)
        for entry, (rows, logpost) in zip(entries, steps):
            entry.step = (nu, dec_mod.append_history(entry.hist, rows), logpost)

    def _evict_ta(self, live):
        """Keep the entries of ``live`` (the carried prefixes and their
        ancestors), and only the steps a later frame or finalize can still
        read: nu never falls below the encoder rows already seen."""
        self.ta = {pre: e for pre, e in self.ta.items() if pre in live}
        seen = self.cross.enc.shape[0]
        for entry in self.ta.values():
            if entry.step is not None and entry.step[0] < seen:
                entry.step = None

    def finalize(self, enc_rows):
        """Pick the joint-score winner of the final frame's carried beam."""
        if self.frame == 0:
            return DecodeResult((), 0.0, list(self.trace))
        scores = {pre: self._last_pjoint[pre] for pre in self._last_carried}
        p = self.params
        if p.add_eos_at_finalize and self.dec.eos_id is not None:
            self.cross.update(enc_rows)
            avail = self.cross.enc.shape[0]
            scored = [pre for pre in self._last_carried if pre in self.ta]
            self._step(scored, avail)
            for pre in scored:
                entry = self.ta[pre]
                eos_logp = float(entry.step[2][self.dec.eos_id])
                eos_hyp = replace(self._last_carried[pre], ta_logp=entry.logp + eos_logp)
                scores[pre] = joint_score(eos_hyp, p)
        return self._result(scores)


def decode(enc, post, lm, dec, params):
    """Offline joint decode of a whole utterance.

    enc: EncoderStates (or matrix); post: Posteriorgram whose rows match
    the encoder rows one to one.  Posterior rows are only read at their
    own frame, exactly as a streaming session would see them.
    """
    states = enc.states if hasattr(enc, "states") else np.asarray(enc)
    logp = post.logp
    n = logp.shape[0]
    if n < 1:
        raise ValueError("empty utterance")
    if states.shape[0] != n:
        raise ValueError(f"{n} posterior rows but {states.shape[0]} encoder rows")
    if not np.isfinite(states).all():
        raise ValueError("encoder states contain non-finite values")
    check_log_probs(logp)
    search = JointSearch(dec, lm, params, logp.shape[1])
    for i in range(n):
        search.advance(logp[i], states)
    return search.finalize(states)


class CtcPrefixSearch(_PrefixBeam):
    """Pure CTC prefix beam search with the same pruning cascade as the
    joint search but no attention decoder anywhere.

    With p_size == k_size and theta2 == theta1 the second prune is a
    no-op and this is a classic single-prune prefix beam search.
    ``banned_ids`` are label ids the search never emits; each must be an
    integer in [0, n_cols - 1), else ``ValueError``.
    """

    def __init__(self, lm, params, n_cols, banned_ids=()):
        banned_ids = tuple(banned_ids)
        for i in banned_ids:
            if not _is_int(i) or not 0 <= i < n_cols - 1:
                raise ValueError(f"banned id {i!r} is not a label id in [0, {n_cols - 1})")
        super().__init__(lm, params, n_cols, [i + 1 for i in banned_ids])

    def advance(self, post_row, enc_rows=None):
        _, phat, omega_hat = self._ctc_stage(post_row)
        # omega_hat is in phat order, so its head is the top p_size by phat
        self._carry(omega_hat, list(omega_hat)[:self.params.p_size], phat, phat)

    def finalize(self, enc_rows=None):
        if self.frame == 0:
            return DecodeResult((), 0.0, list(self.trace))
        return self._result(self._last_phat)


def joint_loss(post, enc, y, align, dec, lp):
    """Weighted sum of the CTC and truncated-decoder negative log likelihoods.

    y is the reference label-id sequence; align supplies the per-label
    encoder truncation points (from the forced alignment of y against
    post).  At gamma exactly 0 or 1 the other term is not evaluated, so
    the limits equal the single objectives identically.  A y that the
    posteriorgram cannot emit yields +inf.
    """
    from .ctc import ctc_forward_logprob
    from .decoder import ta_prefix_score

    y = list(y)
    loss = 0.0
    if lp.gamma > 0.0:
        loss += -lp.gamma * ctc_forward_logprob(post, [label + 1 for label in y])
    if lp.gamma < 1.0:
        loss += -(1.0 - lp.gamma) * ta_prefix_score(enc, y, align.nu, dec)
    return float(loss)


def ctc_prefix_search(post, lm, params, banned_ids=()):
    """Offline pure-CTC prefix beam search over a posteriorgram."""
    logp = post.logp
    if logp.shape[0] < 1:
        raise ValueError("empty utterance")
    check_log_probs(logp)
    search = CtcPrefixSearch(lm, params, logp.shape[1], banned_ids)
    for i in range(logp.shape[0]):
        search.advance(logp[i])
    return search.finalize()
