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

:class:`JointSearch` is the one implementation.  Its decoder-less case,
:class:`CtcPrefixSearch`, is the pure CTC prefix beam search: steps (3)
and (4) do not run and p_joint is p_prfx, so the carried top P is the
head of the first prune, and finalize has no ``<eos>`` pass.

A prefix is a sequence of posteriorgram column indices (blank = 0 never
appears); the start token is implicit.  Label ids are column - 1.  The
search holds each prefix as an interned :class:`Prefix` node (a parent,
a last column, a length, its LM state and LM log probability), found
through the search's :class:`PrefixTable`, so extending, hashing and
looking up a prefix cost O(1) however long it grows, and each LM step
runs once per carried LM state.  Hooks, labels and trace lines still see
column tuples.  A frame's CTC candidates stay plain masses until the
first prune: only its survivors become :class:`Hypothesis` objects.
"""

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import decoder as dec_mod
# ctc_prefix_step is not called here, but stays bound: the benchmark's
# tracer (perfbench/tracer.py) wraps it in this module by name.
from .ctc import _prefix_masses, check_log_probs, ctc_prefix_step  # noqa: F401
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
    eps_dec must be integers, the weights and widths finite real numbers
    (not bools), local_threshold a real number in [0, 1),
    add_eos_at_finalize a bool, and each hook None or callable; anything
    else raises ``ValueError``.

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
        for name in ("lam", "alpha0", "alpha", "beta", "theta1", "theta2", "local_threshold"):
            if not _is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a real number, got {getattr(self, name)!r}")
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
        if not isinstance(self.add_eos_at_finalize, bool):
            raise ValueError(f"add_eos_at_finalize must be a bool, got {self.add_eos_at_finalize!r}")
        for name in ("dcond", "acond"):
            hook = getattr(self, name)
            if hook is not None and not callable(hook):
                raise ValueError(f"{name} must be None or callable, got {hook!r}")


def _is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


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
    lm_logp: float
    ta_logp: float | None = None


@dataclass
class DecodeResult:
    labels: tuple
    score: float
    trace: list = field(default_factory=list)


class Prefix:
    """One interned search prefix: the empty prefix, or a parent plus one
    last column, with the LM state after its labels and their cumulative
    LM log probability.

    A search makes one node per distinct prefix (see PrefixTable), so a
    node hashes and compares equal by identity.  ``len`` is the number of
    columns and ``<`` is the lexicographic order of the column tuples,
    built only when two nodes are compared: the same order as the tuples
    the search used to key on.
    """

    __slots__ = ("parent", "last", "length", "lm_state", "lm_logp")

    def __init__(self, parent, last, lm_state, lm_logp):
        self.parent = parent
        self.last = last
        self.length = 0 if parent is None else parent.length + 1
        self.lm_state = lm_state
        self.lm_logp = lm_logp

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
    as the same node and finds the state kept under it.

    A node gets its LM state and log probability from ``lm`` when it is
    interned.  The LM steps come from a memo keyed on (parent LM state,
    column), so prefixes that share an LM state share each step.
    """

    def __init__(self, lm):
        self.lm = lm
        self.root = Prefix(None, None, lm.start_state(), 0.0)
        self._children = {}
        self._lm_steps = {}  # (LM state, column) -> (next LM state, log p increment)

    def child(self, parent, col):
        """The node of ``parent`` extended by column ``col``."""
        key = (parent, col)
        node = self._children.get(key)
        if node is None:
            step_key = (parent.lm_state, col)
            step = self._lm_steps.get(step_key)
            if step is None:
                step = self._lm_steps[step_key] = self.lm.extend(parent.lm_state, col - 1)
            node = self._children[key] = Prefix(parent, col, step[0],
                                                parent.lm_logp + step[1])
        return node

    def retain(self, live):
        """Keep only the ``live`` prefixes and their ancestors in the table
        and return them as a set.  The walk up from each live prefix stops
        at the first node already kept.  The LM memo keeps only the steps
        from the live prefixes' LM states, the only ones the next frame
        extends."""
        keep = {self.root}
        states = set()
        for node in live:
            states.add(node.lm_state)
            while node not in keep:
                keep.add(node)
                node = node.parent
        self._children = {(node.parent, node.last): node for node in keep
                          if node.parent is not None}
        self._lm_steps = {key: step for key, step in self._lm_steps.items()
                          if key[0] in states}
        return keep

    def __iter__(self):
        """Every non-empty prefix in the table."""
        return iter(self._children.values())


def prefix_score(hyp, alpha0, beta):
    """CTC ranking score: log prefix mass + weighted LM + insertion bonus."""
    return _phat(hyp.p_b, hyp.p_nb, hyp.lm_logp, len(hyp.prefix), alpha0, beta)


def _phat(p_b, p_nb, lm_logp, length, alpha0, beta):
    """prefix_score of a prefix given as its masses, LM log probability
    and length; the search ranks candidates with it before any
    Hypothesis exists."""
    return log_add(p_b, p_nb) + alpha0 * lm_logp + beta * length


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


@dataclass
class _TaEntry:
    logp: float
    nus: tuple
    hist: list  # per-layer attention.KeyValues: self-attention keys and values
    step: tuple = None  # (nu, child_hist, log_posterior) of the next label, see _step


class JointSearch:
    """Mutable per-utterance state of the one-pass search, advanced frame by frame.

    The same object backs offline decoding and streaming sessions; both
    call :meth:`advance` once per encoder frame with the posterior row
    and every encoder row available so far, then :meth:`finalize`.
    ``n_cols`` must be the decoder's vocab_size + 1 (the blank, then one
    column per label id), else ``ValueError``; the decoder's reserved ids
    are never emitted.  Without a decoder it is the pure CTC search, see
    :class:`CtcPrefixSearch`.
    """

    def __init__(self, dec, lm, params, n_cols):
        if n_cols != dec.vocab_size + 1:
            raise ValueError(f"posteriorgram has {n_cols} columns, but the decoder's "
                             f"{dec.vocab_size} labels need {dec.vocab_size + 1}")
        self._start(dec, lm, params, n_cols, dec.reserved_ids)

    def _start(self, dec, lm, params, n_cols, banned_ids):
        """Set up the empty beam; ``dec`` is None for the pure CTC search."""
        banned_ids = tuple(banned_ids)
        for i in banned_ids:
            if not _is_int(i) or not 0 <= i < n_cols - 1:
                raise ValueError(f"banned id {i!r} is not a label id in [0, {n_cols - 1})")
        self.dec = dec
        self.params = params
        self.n_cols = n_cols
        self._banned_cols = [i + 1 for i in banned_ids]
        self.prefixes = PrefixTable(lm)
        root = self.prefixes.root
        self.hyps = {root: Hypothesis(root, p_b=0.0, p_nb=NEG_INF, lm_logp=0.0)}
        self.frame = 0
        self.trace = []
        self._last_carried = dict(self.hyps)
        self._last_phat = {root: 0.0}
        self._last_pjoint = {root: 0.0}
        self.ta = None if dec is None else {root: _TaEntry(0.0, (), dec_mod.empty_history(dec))}
        self.cross = None  # CrossAttentionCache over the encoder rows, from the first frame

    def advance(self, post_row, enc_rows=None):
        """Process one frame: returns nothing, mutates the beam.  ``enc_rows``,
        every encoder row so far, are read only with a decoder."""
        if enc_rows is None and self.dec is not None:
            raise ValueError("the joint search needs the encoder rows")
        row = np.array(post_row, dtype=np.float64, copy=True)
        if row.shape != (self.n_cols,):
            raise ValueError(f"posterior row shape {row.shape}, expected ({self.n_cols},)")
        check_log_probs(row)
        self.frame += 1
        p = self.params
        row[self._banned_cols] = NEG_INF
        row = row.tolist()

        # the CTC stage: one prefix step (its new nodes take their LM step
        # from the table), phat from the masses, and the first prune by
        # phat; only its survivors become Hypotheses
        masses = _prefix_masses(row, self.hyps, p.local_threshold, self.prefixes.child)
        alpha0, beta = p.alpha0, p.beta
        phat = {pre: _phat(m[0], m[1], pre.lm_logp, pre.length, alpha0, beta)
                for pre, m in masses.items()}
        omega_hat = {pre: Hypothesis(pre, m[0], m[1], pre.lm_logp)  # in phat rank order
                     for pre, m in prune(masses, phat, p.k_size, p.theta1).items()}
        if not omega_hat:
            raise RuntimeError("search collapsed")

        if self.dec is None:
            pjoint, top = phat, list(omega_hat)[:p.p_size]
        else:
            pjoint = self._ta_stage(row, omega_hat, enc_rows)
            top = top_hypotheses(omega_hat, pjoint, p.p_size)
        # Carry the top p_size by pjoint, then the top p_size of omega_hat
        # within theta2 by phat.  The carried order (top first) is the order
        # the next frame accumulates CTC mass in.
        kept = {pre: omega_hat[pre] for pre in _within(list(omega_hat), phat, p.p_size, p.theta2)}
        self.hyps = {pre: omega_hat[pre] for pre in top}
        self.hyps.update(kept)
        self._last_carried = kept
        self._last_phat = phat
        self._last_pjoint = pjoint
        best = min(kept, key=_rank_key(pjoint))
        self.trace.append(_format_trace(self.frame, len(kept), best.as_tuple(),
                                        phat[best], pjoint[best]))
        live = self.prefixes.retain(self.hyps)
        if self.dec is not None:
            self._evict_ta(live)

    def _ta_stage(self, row, omega_hat, enc_rows):
        """Run the hooks, give omega_hat's prefixes their TA scores at this
        frame's truncation, and return every candidate's joint score."""
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
        return pjoint

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

    @property
    def best_ctc_partial(self):
        """Best carried prefix by CTC ranking score, as label ids."""
        best = min(self._last_carried, key=_rank_key(self._last_phat))
        return tuple(c - 1 for c in best.as_tuple())

    def finalize(self, enc_rows=None):
        """Pick the joint-score winner of the final frame's carried beam,
        rescored with ``<eos>`` when a decoder and the params ask for it."""
        if enc_rows is None and self.dec is not None:
            raise ValueError("the joint search needs the encoder rows")
        if self.frame == 0:
            return DecodeResult((), 0.0, list(self.trace))
        scores = {pre: self._last_pjoint[pre] for pre in self._last_carried}
        p = self.params
        if self.dec is not None and p.add_eos_at_finalize and self.dec.eos_id is not None:
            self.cross.update(enc_rows)
            avail = self.cross.enc.shape[0]
            scored = [pre for pre in self._last_carried if pre in self.ta]
            self._step(scored, avail)
            for pre in scored:
                entry = self.ta[pre]
                eos_logp = float(entry.step[2][self.dec.eos_id])
                eos_hyp = replace(self._last_carried[pre], ta_logp=entry.logp + eos_logp)
                scores[pre] = joint_score(eos_hyp, p)
        best = min(self._last_carried, key=_rank_key(scores))
        return DecodeResult(tuple(c - 1 for c in best.as_tuple()), float(scores[best]),
                            list(self.trace))


class CtcPrefixSearch(JointSearch):
    """Pure CTC prefix beam search: the joint search without a decoder,
    with the same pruning cascade.

    With p_size == k_size and theta2 == theta1 the second prune is a
    no-op and this is a classic single-prune prefix beam search.
    ``banned_ids`` are label ids the search never emits; each must be an
    integer in [0, n_cols - 1), else ``ValueError``.
    """

    def __init__(self, lm, params, n_cols, banned_ids=()):
        self._start(None, lm, params, n_cols, banned_ids)

    # not inherited: the benchmark's tracer patches each class's own dict
    advance = JointSearch.advance
    # likewise bound here for the tracer (perfbench/tracer.py)
    finalize = JointSearch.finalize


def _search_offline(search, post, states=None):
    """Run a fresh ``search`` over every posterior row and finalize it.
    ``states`` are the encoder rows, one per posterior row (None without a
    decoder); each posterior row is read only at its own frame, as a
    streaming session reads it."""
    logp = post.logp
    n = logp.shape[0]
    if n < 1:
        raise ValueError("empty utterance")
    if states is not None:
        if states.shape[0] != n:
            raise ValueError(f"{n} posterior rows but {states.shape[0]} encoder rows")
        if not np.isfinite(states).all():
            raise ValueError("encoder states contain non-finite values")
    check_log_probs(logp)
    for i in range(n):
        search.advance(logp[i], states)
    return search.finalize(states)


def decode(enc, post, lm, dec, params):
    """Offline joint decode of a whole utterance.

    enc: EncoderStates (or matrix); post: Posteriorgram whose rows match
    the encoder rows one to one and whose width is dec.vocab_size + 1.
    """
    states = enc.states if hasattr(enc, "states") else np.asarray(enc)
    return _search_offline(JointSearch(dec, lm, params, post.logp.shape[1]), post, states)


def ctc_prefix_search(post, lm, params, banned_ids=()):
    """Offline pure-CTC prefix beam search over a posteriorgram."""
    return _search_offline(CtcPrefixSearch(lm, params, post.logp.shape[1], banned_ids), post)


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
