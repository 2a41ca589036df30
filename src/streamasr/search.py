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
share that one step.

Prefixes are tuples of posteriorgram column indices (blank = 0 never
appears); the start token is implicit.  Label ids are column - 1.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import decoder as dec_mod
from .ctc import BLANK, PrefixScores, check_log_probs, ctc_prefix_step
from .kernels import NEG_INF, log_add


@dataclass
class DecodeParams:
    """Search weights and beam sizes.

    lam balances CTC against the attention decoder; alpha0/alpha are the
    LM weights inside the CTC ranking and the joint score; beta is the
    per-label insertion bonus.  k_size/theta1 prune the CTC candidates,
    p_size/theta2 shape the carried beam.  eps_dec is the decoder
    look-ahead in encoder frames.

    The hooks see (prefix, omega_hat, frame, post_row).  dcond returning
    True deletes a prefix's triggered-attention (TA) score so it is
    computed again this frame.  acond returning False skips TA scoring
    for a prefix this frame; its fused score then falls back to the
    parent's TA score.  A declined prefix still gets a TA score when a
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
        if self.k_size < self.p_size or self.p_size < 1:
            raise ValueError(f"need k_size >= p_size >= 1, got {self.k_size}, {self.p_size}")
        if self.theta1 <= 0 or self.theta2 <= 0:
            raise ValueError("beam widths must be positive")
        if self.eps_dec < 0:
            raise ValueError(f"eps_dec must be >= 0, got {self.eps_dec}")


@dataclass
class LossParams:
    """Mixing weight for the two training objectives."""

    gamma: float = 0.3

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")


@dataclass
class Hypothesis:
    """One search prefix with its CTC mass and fused bookkeeping."""

    prefix: tuple
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


def prune(hyps, score_fn, size, width):
    """Keep the top ``size`` by score, then drop anything below max - width.

    Ties break toward shorter, then lexicographically smaller prefixes.
    """
    if size < 1:
        raise ValueError(f"prune size must be >= 1, got {size}")
    scores = {p: score_fn(h) for p, h in hyps.items()}
    kept = sorted(hyps, key=_rank_key(scores))[:size]
    if kept:
        cut = scores[kept[0]] - width
        kept = [p for p in kept if not scores[p] < cut]
    return {p: hyps[p] for p in kept}


def top_hypotheses(hyps, score_fn, size):
    """Keep the top ``size`` by score with the same tie-breaking as prune."""
    scores = {p: score_fn(h) for p, h in hyps.items()}
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
    step: tuple = None  # (nu, child_hist, log_posterior) of the next label, see _next


class JointSearch:
    """Mutable per-utterance state of the joint decode, advanced frame by frame.

    The same object backs offline decoding and streaming sessions; both
    call :meth:`advance` once per encoder frame with the posterior row
    and every encoder row available so far, then :meth:`finalize`.
    """

    def __init__(self, dec, lm, params, n_cols):
        self.dec = dec
        self.lm = lm
        self.params = params
        self.n_cols = n_cols
        banned = [dec.sos_id + 1]
        if dec.eos_id is not None:
            banned.append(dec.eos_id + 1)
        self._banned_cols = [c for c in banned if c < n_cols]
        self.hyps = {
            (): Hypothesis((), p_b=0.0, p_nb=NEG_INF, lm_state=lm.start_state(), lm_logp=0.0)
        }
        self.ta = {(): _TaEntry(0.0, (), dec_mod.empty_history(dec))}
        self.cross = None  # CrossAttentionCache over the encoder rows, from the first frame
        self.frame = 0
        self.trace = []
        self._last_carried = dict(self.hyps)
        self._last_pjoint = {(): 0.0}
        self._last_phat = {(): 0.0}

    def advance(self, post_row, enc_rows):
        """Process one frame: returns nothing, mutates the beam."""
        row = np.array(post_row, dtype=np.float64, copy=True)
        if row.shape != (self.n_cols,):
            raise ValueError(f"posterior row shape {row.shape}, expected ({self.n_cols},)")
        check_log_probs(row)
        self.frame += 1
        n = self.frame
        p = self.params
        row[self._banned_cols] = NEG_INF
        row = row.tolist()
        if self.cross is None:
            self.cross = dec_mod.CrossAttentionCache(self.dec, enc_rows)
        self.cross.update(enc_rows)

        prev = {pre: PrefixScores(h.p_b, h.p_nb) for pre, h in self.hyps.items()}
        stepped = ctc_prefix_step(row, prev, p.local_threshold)
        omega_ctc = {}
        for pre, sc in stepped.items():
            h = self.hyps.get(pre)
            if h is None:
                parent = self.hyps[pre[:-1]]
                state, inc = self.lm.extend(parent.lm_state, pre[-1] - 1)
                h = Hypothesis(pre, sc.p_b, sc.p_nb, state, parent.lm_logp + inc)
            else:
                h = replace(h, p_b=sc.p_b, p_nb=sc.p_nb)
            omega_ctc[pre] = h

        phat = {pre: prefix_score(h, p.alpha0, p.beta) for pre, h in omega_ctc.items()}
        omega_hat = prune(omega_ctc, lambda h: phat[h.prefix], p.k_size, p.theta1)
        if not omega_hat:
            raise RuntimeError("search collapsed")

        if p.dcond is not None:
            for pre in omega_hat:
                if pre and pre in self.ta and p.dcond(pre, omega_hat, n, row):
                    del self.ta[pre]

        for pre in sorted(omega_hat, key=lambda q: (len(q), q)):
            if pre in self.ta:
                continue
            if p.acond is not None and not p.acond(pre, omega_hat, n, row):
                continue
            self._score_ta(pre, n)

        pjoint = {}
        for pre, h in omega_hat.items():
            entry = self.ta.get(pre)
            if entry is not None:
                h.ta_logp = entry.logp
                pjoint[pre] = joint_score(h, p)
            else:
                h.ta_logp = None
                parent = self.ta.get(pre[:-1]) if pre else None
                pjoint[pre] = joint_score(h, p, parent.logp if parent else None)

        carried = top_hypotheses(omega_hat, lambda h: pjoint[h.prefix], p.p_size)
        omega_hat = prune(omega_hat, lambda h: phat[h.prefix], p.p_size, p.theta2)
        carried.update(omega_hat)
        self.hyps = carried
        self._evict_ta()

        self._last_carried = omega_hat
        self._last_pjoint = pjoint
        self._last_phat = phat
        best = min(omega_hat, key=_rank_key(pjoint))
        self.trace.append(_format_trace(n, len(omega_hat), best, phat[best], pjoint[best]))

    def _score_ta(self, pre, n):
        """Give ``pre`` a TA entry at frame n, first scoring (shortest first,
        at the same truncation) any ancestors that have none."""
        nu = min(n + self.params.eps_dec, self.cross.enc.shape[0])
        missing = [pre]
        while missing[-1][:-1] not in self.ta:
            missing.append(missing[-1][:-1])
        for pre in reversed(missing):
            parent = self.ta[pre[:-1]]
            hist, logpost = self._next(pre[:-1], nu)
            self.ta[pre] = _TaEntry(parent.logp + float(logpost[pre[-1] - 1]),
                                    parent.nus + (nu,), hist)

    def _next(self, pre, nu):
        """(child_hist, log_posterior) of the label after ``pre`` at truncation nu.

        The decoder step depends only on ``pre``'s entry and nu, so it runs
        once per pair: every child of ``pre`` and the ``<eos>`` pass read the
        kept result, and the children share the one history.
        """
        entry = self.ta[pre]
        if entry.step is None or entry.step[0] != nu:
            token = pre[-1] - 1 if pre else self.dec.sos_id
            rows, logpost = dec_mod.advance_position(
                self.dec, self.cross, entry.hist, token, len(pre), nu
            )
            entry.step = (nu, dec_mod.append_history(entry.hist, rows), logpost)
        return entry.step[1:]

    def _evict_ta(self):
        """Keep the entries of live prefixes' ancestors, and only the steps
        a later frame or finalize can still read: nu never falls below the
        encoder rows already seen."""
        keep = set()
        for pre in self.hyps:
            for i in range(len(pre) + 1):
                keep.add(pre[:i])
        self.ta = {pre: e for pre, e in self.ta.items() if pre in keep}
        seen = self.cross.enc.shape[0]
        for entry in self.ta.values():
            if entry.step is not None and entry.step[0] < seen:
                entry.step = None

    @property
    def best_ctc_partial(self):
        """Best carried prefix by CTC ranking score, as label ids."""
        best = min(self._last_carried, key=_rank_key(self._last_phat))
        return tuple(c - 1 for c in best)

    def finalize(self, enc_rows):
        """Pick the joint-score winner of the final frame's carried beam."""
        if self.frame == 0:
            return DecodeResult((), 0.0, list(self.trace))
        scores = {pre: self._last_pjoint[pre] for pre in self._last_carried}
        p = self.params
        if p.add_eos_at_finalize and self.dec.eos_id is not None:
            self.cross.update(enc_rows)
            avail = self.cross.enc.shape[0]
            for pre, h in self._last_carried.items():
                entry = self.ta.get(pre)
                if entry is None:
                    continue
                _, logpost = self._next(pre, avail)
                eos_hyp = replace(h, ta_logp=entry.logp + float(logpost[self.dec.eos_id]))
                scores[pre] = joint_score(eos_hyp, p)
        best = min(self._last_carried, key=_rank_key(scores))
        return DecodeResult(tuple(c - 1 for c in best), float(scores[best]), list(self.trace))


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


class CtcPrefixSearch:
    """Pure CTC prefix beam search with the same pruning cascade as the
    joint search but no attention decoder anywhere.

    With p_size == k_size and theta2 == theta1 the second prune is a
    no-op and this is a classic single-prune prefix beam search.
    """

    def __init__(self, lm, params, n_cols, banned_ids=()):
        self.lm = lm
        self.params = params
        self.n_cols = n_cols
        self._banned_cols = [i + 1 for i in banned_ids if i + 1 < n_cols]
        self.hyps = {
            (): Hypothesis((), p_b=0.0, p_nb=NEG_INF, lm_state=lm.start_state(), lm_logp=0.0)
        }
        self.frame = 0
        self.trace = []
        self._last_carried = dict(self.hyps)
        self._last_phat = {(): 0.0}

    def advance(self, post_row, enc_rows=None):
        row = np.array(post_row, dtype=np.float64, copy=True)
        if row.shape != (self.n_cols,):
            raise ValueError(f"posterior row shape {row.shape}, expected ({self.n_cols},)")
        check_log_probs(row)
        self.frame += 1
        p = self.params
        row[self._banned_cols] = NEG_INF
        row = row.tolist()
        prev = {pre: PrefixScores(h.p_b, h.p_nb) for pre, h in self.hyps.items()}
        stepped = ctc_prefix_step(row, prev, p.local_threshold)
        omega_ctc = {}
        for pre, sc in stepped.items():
            h = self.hyps.get(pre)
            if h is None:
                parent = self.hyps[pre[:-1]]
                state, inc = self.lm.extend(parent.lm_state, pre[-1] - 1)
                h = Hypothesis(pre, sc.p_b, sc.p_nb, state, parent.lm_logp + inc)
            else:
                h = replace(h, p_b=sc.p_b, p_nb=sc.p_nb)
            omega_ctc[pre] = h
        phat = {pre: prefix_score(h, p.alpha0, p.beta) for pre, h in omega_ctc.items()}
        omega_hat = prune(omega_ctc, lambda h: phat[h.prefix], p.k_size, p.theta1)
        if not omega_hat:
            raise RuntimeError("search collapsed")
        carried = top_hypotheses(omega_hat, lambda h: phat[h.prefix], p.p_size)
        omega_hat = prune(omega_hat, lambda h: phat[h.prefix], p.p_size, p.theta2)
        carried.update(omega_hat)
        self.hyps = carried
        self._last_carried = omega_hat
        self._last_phat = phat
        best = min(omega_hat, key=_rank_key(phat))
        self.trace.append(_format_trace(self.frame, len(omega_hat), best, phat[best], phat[best]))

    @property
    def best_ctc_partial(self):
        best = min(self._last_carried, key=_rank_key(self._last_phat))
        return tuple(c - 1 for c in best)

    def finalize(self, enc_rows=None):
        if self.frame == 0:
            return DecodeResult((), 0.0, list(self.trace))
        scores = {pre: self._last_phat[pre] for pre in self._last_carried}
        best = min(self._last_carried, key=_rank_key(scores))
        return DecodeResult(tuple(c - 1 for c in best), float(scores[best]), list(self.trace))


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
