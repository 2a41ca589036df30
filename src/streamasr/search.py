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
decoder call.  The encoder rows the decoder reads have one owner, the
search's append-only :class:`~streamasr.decoder.CrossAttentionCache`:
a caller adds rows as they exist (all at once offline, as the encoder
emits them in a streaming session), and frame n needs its own row.

:class:`JointSearch` is the one implementation.  Its decoder-less case,
:class:`CtcPrefixSearch`, is the pure CTC prefix beam search: steps (3)
and (4) do not run and p_joint is p_prfx, so the carried top P is the
head of the first prune, and finalize has no ``<eos>`` pass.  Each class
states how many rows past frame n its frame n reads (``lookahead``:
eps_dec for the joint search, 0 without a decoder), which is how long a
streaming session holds the frame back.

A prefix is a sequence of posteriorgram column indices (blank = 0 never
appears); the start token is implicit.  Label ids are column - 1.  The
search holds each prefix as an interned :class:`Prefix` node (a parent,
a last column, a length, its LM state and LM log probability), found
through the search's :class:`PrefixTable`, so extending, hashing and
looking up a prefix cost O(1) however long it grows, and each LM step
runs once per search while its state is carried or among the last
``PrefixTable.SPARE_ROWS`` to leave.  Hooks, labels and trace lines
still see column tuples.  A frame's CTC candidates are ranked as arrays
with no node of their own: the extensions' masses come as a (carried
prefix x active column) matrix, their LM increments from the table's
memo rows, and phat for all of them is one NumPy expression.  A partial selection
leaves rank tuples only for the carried prefixes and the extensions that
can be among the first prune's survivors.  Only the survivors the search
keeps are interned and become :class:`Hypothesis` objects, all of the
first prune's with a decoder and the top P without one.  Every score is
a Python float, as are the weights ``DecodeParams`` holds, and a zero LM
weight means no LM term.  Every ranking goes through one routine,
``_rank``, which breaks score ties toward shorter, then lexicographically
smaller column tuples: the first prune directly, and the p_joint rankings
(the top P, the frame's best and finalize's best) through :func:`prune`;
what ranks by p_prfx afterwards reads the first prune's order.  A frame
commits only after every hook has returned.
"""

import math
from dataclasses import dataclass, field, replace
from itertools import islice
from operator import attrgetter

import numpy as np

from . import decoder as dec_mod
from .ctc import _prefix_masses, check_eps_dec, check_log_probs, ctc_forward_logprob
from .ctc import ctc_prefix_step  # noqa: F401 (uncalled; the tracer wraps it here)
from .ctc import posterior_matrix
from .kernels import NEG_INF, is_int, is_real, log_add


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
    (not bools), local_threshold a real number in [0, 1), and each hook
    None or callable; anything else raises ``ValueError``.

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
    dcond: object = None  # fn(prefix, omega_hat, frame, post_row) -> bool; None = never
    acond: object = None  # fn(prefix, omega_hat, frame, post_row) -> bool; None = always

    def __post_init__(self):
        for name in ("lam", "alpha0", "alpha", "beta", "theta1", "theta2", "local_threshold"):
            if not is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a real number, got {getattr(self, name)!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must be in [0, 1], got {self.lam}")
        for name in ("k_size", "p_size"):
            if not is_int(getattr(self, name)):
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
        for name in ("dcond", "acond"):
            hook = getattr(self, name)
            if hook is not None and not callable(hook):
                raise ValueError(f"{name} must be None or callable, got {hook!r}")
        # held as Python numbers: a NumPy scalar would turn every score it
        # touches, and so the trace lines, into NumPy scalars
        for name in ("lam", "alpha0", "alpha", "beta", "theta1", "theta2", "local_threshold"):
            setattr(self, name, float(getattr(self, name)))
        for name in ("k_size", "p_size", "eps_dec"):
            setattr(self, name, int(getattr(self, name)))


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

    __slots__ = ("parent", "last", "length", "lm_state", "lm_logp", "refs")

    def __init__(self, parent, last, lm_state, lm_logp):
        self.parent = parent
        self.last = last
        self.length = 0 if parent is None else parent.length + 1
        self.lm_state = lm_state
        self.lm_logp = lm_logp
        self.refs = 0  # its children in the table, plus 1 while carried; -1 once dropped

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


_PARENT_LAST = attrgetter("parent", "last")


class PrefixTable:
    """The child table that interns one search's prefixes: each (parent,
    column) pair maps to one Prefix, so a prefix reached again comes back
    as the same node and finds the state kept under it.  A search interns
    only the candidates it keeps, and the table holds only the carried
    prefixes and their ancestors: ``Prefix.refs`` counts a node's children
    in the table and 1 while it is carried, and a node whose count falls
    to 0 leaves the table, taking 1 from its parent.

    A node gets its LM state and log probability from ``lm`` when it is
    interned.  The LM steps come from a memo with one row per LM state
    and one entry per posterior column (``n_cols`` of them), one record
    per step: its log p increment in a float64 matrix, NaN until the step
    is taken (an LM's NaN is refused), and the LM's next state in the
    row's dict, keyed by column.  Entries are filled lazily, one LM step
    per (state, column) pair that a candidate of nonzero mass needs, and
    the search reads them as a matrix to rank candidates that have no
    node, so prefixes that share an LM state share each step.  Steps are
    taken only from the carried prefixes' states, the ones a frame
    extends.  When a state's last carried prefix leaves the beam, its row
    becomes spare, steps and all, and a state that comes back takes its
    row back.  A new state gets a fresh row while at most ``SPARE_ROWS``
    rows are spare, else the row of the state that left longest ago,
    emptied.  So each step runs once per search while its state is
    carried or among the last ``SPARE_ROWS`` to leave, and the memo holds
    at most (the most states carried at once + ``SPARE_ROWS``) rows,
    whatever the LM.
    """

    SPARE_ROWS = 64  # covers the 29 states of the benchmark's bigram

    def __init__(self, lm, n_cols):
        self.lm = lm
        self.root = Prefix(None, None, lm.start_state(), 0.0)
        self.root.refs = 1  # a search starts by carrying the root
        self._children = {}
        self._carried = {self.root: None}
        self._new = []  # nodes interned since the last retain
        self._rows = {}  # carried LM state -> its row in the memo
        self._spare = {}  # LM state that left the beam -> its row, oldest exit first
        self._next = []  # per row: column -> the LM's next state
        self._inc = np.full((0, n_cols), np.nan)  # log p increments, NaN until stepped

    def _row(self, state):
        """The memo row of LM state ``state``; a state without one gets a
        fresh row, or the oldest spare row, emptied, once more than
        ``SPARE_ROWS`` are spare."""
        r = self._rows.get(state)
        if r is None:
            if len(self._spare) <= self.SPARE_ROWS:
                r = len(self._next)
                self._next.append({})
            else:
                r = self._spare.pop(next(iter(self._spare)))
                self._next[r] = {}
                self._inc[r] = np.nan
            self._rows[state] = r
            if r == len(self._inc):
                more, width = max(r, 8), self._inc.shape[1]
                self._inc = np.concatenate((self._inc, np.full((more, width), np.nan)))
        return r

    def _take_steps(self, rows, states, cols):
        """Take the LM step of each (row, LM state, column) triple whose
        step is not memoised yet, in the order given.  An increment that
        is NaN or +inf raises ``ValueError``: no score could rank it, and
        NaN marks a step not taken.  The steps taken before a raise stay
        memoised."""
        taken_r, taken_c, incs = [], [], []
        try:
            for r, state, col in zip(rows, states, cols):
                nxt = self._next[r]
                if col not in nxt:  # an LM state may come more than once
                    nxt_state, inc = self.lm.extend(state, col - 1)
                    if not inc < math.inf:
                        raise ValueError(f"LM step from state {state!r} by label {col - 1} "
                                         f"gave log p increment {inc!r}")
                    nxt[col] = nxt_state
                    taken_r.append(r)
                    taken_c.append(col)
                    incs.append(inc)
        finally:
            self._inc[taken_r, taken_c] = incs

    def increments(self, states, cols, need):
        """The log p increments of each LM state of ``states`` (a list)
        extended by each column of ``cols``, as a float64 (len(states),
        len(cols)) matrix.  The LM steps that the boolean matrix ``need``
        marks are taken first, each once, in row-major order; an entry it
        does not mark holds NaN unless its step was taken before."""
        rows = np.array([self._row(s) for s in states], dtype=np.intp)
        cols = np.array(cols, dtype=np.intp)
        inc = self._inc[rows[:, None], cols]
        i, j = np.nonzero(need & np.isnan(inc))
        if len(i):
            self._take_steps(rows[i].tolist(), [states[k] for k in i.tolist()],
                             cols[j].tolist())
            inc = self._inc[rows[:, None], cols]
        return inc

    def child(self, parent, col):
        """The node of ``parent`` extended by column ``col``, with the LM
        step from the parent's state taken if the memo lacks it."""
        key = (parent, col)
        node = self._children.get(key)
        if node is None:
            state = parent.lm_state
            r = self._row(state)
            if col not in self._next[r]:
                self._take_steps((r,), (state,), (col,))
            # a Python float: a NumPy scalar would reach every score and trace line
            lm_logp = parent.lm_logp + float(self._inc[r, col])
            node = self._children[key] = Prefix(parent, col, self._next[r][col], lm_logp)
            parent.refs += 1
            self._new.append(node)
        return node

    def retain(self, live):
        """Make ``live`` the carried prefixes, touching only those that
        enter or leave the carried set and the nodes interned since the
        last call.  The memo row of a state no longer carried becomes the
        newest spare row, and a state carried again takes its spare row
        back."""
        live, old = dict.fromkeys(live), self._carried
        for node in live:
            if node not in old:
                node.refs += 1
                r = self._spare.pop(node.lm_state, None)
                if r is not None:
                    self._rows[node.lm_state] = r
        states = {node.lm_state for node in live}
        for node in old:
            if node not in live:
                node.refs -= 1
                self._drop(node)
                if node.lm_state not in states:
                    r = self._rows.pop(node.lm_state, None)
                    if r is not None:
                        self._spare[node.lm_state] = r
        for node in self._new:
            self._drop(node)
        self._carried, self._new = live, []

    def _drop(self, node):
        """Drop ``node`` if nothing holds it, and each ancestor then left empty."""
        while not node.refs and node.parent is not None:
            del self._children[node.parent, node.last]
            node.refs = -1
            node = node.parent
            node.refs -= 1

    def __iter__(self):
        """Every non-empty prefix in the table."""
        return iter(self._children.values())


def prefix_score(hyp, alpha0, beta):
    """CTC ranking score: log prefix mass + weighted LM + insertion bonus.

    The public form of :func:`_phat`, with which the search ranks.  Kept
    as the score the tests compare :func:`joint_score` against; no
    decode calls it.
    """
    return _phat(hyp.p_b, hyp.p_nb, hyp.lm_logp, len(hyp.prefix), alpha0, beta)


def _phat(p_b, p_nb, lm_logp, length, alpha0, beta):
    """prefix_score of a prefix given as its masses, LM log probability
    and length; the search ranks its carried candidates with it before
    any Hypothesis exists (an extension's p_b is -inf, so its phat is the
    same sum with its one mass in place of the log_add).  A zero LM
    weight means no LM term, so an LM's -inf never meets it as 0 * -inf."""
    s = log_add(p_b, p_nb)
    if alpha0:
        s += alpha0 * lm_logp
    return s + beta * length


def joint_score(hyp, params, fallback_ta=None):
    """Fused score; uses the hypothesis's own TA score or the caller's fallback.

    The lam == 1 branch reproduces prefix_score's arithmetic exactly (not
    just to rounding), which is what makes the pure-CTC reduction an
    identity rather than an approximation.  As in prefix_score, a zero
    LM weight means no LM term.
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
    if params.alpha:
        s += params.alpha * hyp.lm_logp
    return s + params.beta * len(hyp.prefix)


def _rank(ranked, size, width):
    """The one ranking of the search: sort the rank tuples ``ranked``
    (-score, length, then items that order as the column tuple) in place,
    best first, and return the first ``size`` of them that score no lower
    than the best minus ``width``."""
    ranked.sort()
    kept = ranked[:size]
    if kept:
        cut = -kept[0][0] - width
        kept = [r for r in kept if not -r[0] < cut]
    return kept


def prune(hyps, scores, size, width):
    """Keep the top ``size`` by score, then drop anything below max - width.

    ``scores`` maps each key of ``hyps`` (prefixes or column tuples) to
    its score.  The result is in rank order, through :func:`_rank`: ties
    break toward shorter, then lexicographically smaller prefixes.  The
    search ranks its p_joint beams with it: the carried top P, the
    frame's best and finalize's best.
    """
    if size < 1:
        raise ValueError(f"prune size must be >= 1, got {size}")
    ranked = _rank([(-scores[k], len(k), k) for k in hyps], size, width)
    return {k: hyps[k] for _, _, k in ranked}


def _format_trace(frame, beams, ids, phat, pjoint):
    """One trace line; ``ids`` is the best prefix's label ids joined by commas."""
    return f"frame={frame} beams={beams} best={ids} p_prfx={phat!r} p_joint={pjoint!r}"


def _changed_columns(old, new):
    """The length of the longest common prefix of nodes ``old`` and
    ``new`` that is one node of both paths, and ``new``'s columns after
    it, oldest first.  It walks only the labels by which the two differ,
    not their whole length.  Every path ends at the search's one root, so
    the walks meet; a prefix interned again after it left the table is a
    new node, and the walks then meet higher up, which costs more labels
    but gives the same columns."""
    cols = []
    while new.length > old.length:
        cols.append(new.last)
        new = new.parent
    while old.length > new.length:
        old = old.parent
    while old is not new:
        cols.append(new.last)
        new, old = new.parent, old.parent
    cols.reverse()
    return new.length, cols


@dataclass
class _TaEntry:
    logp: float
    nu: int  # the truncation its own label was scored at (0 for the root)
    state: dec_mod.DecoderState  # the prefix's, opaque here
    step: tuple = None  # (nu, child_hist, log_posterior) of the next label, see _step


class JointSearch:
    """Mutable per-utterance state of the one-pass search, advanced frame by frame.

    The same object backs offline decoding and streaming sessions; both
    hand it encoder rows through :meth:`add_rows` as they exist, call
    :meth:`advance` once per encoder frame with its posterior row, then
    :meth:`finalize`.
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
            if not is_int(i) or not 0 <= i < n_cols - 1:
                raise ValueError(f"banned id {i!r} is not a label id in [0, {n_cols - 1})")
        self.dec = dec
        self.params = params
        self.n_cols = n_cols
        self._banned_cols = [i + 1 for i in banned_ids]
        self.prefixes = PrefixTable(lm, n_cols)
        root = self.prefixes.root
        self.hyps = {root: Hypothesis(root, p_b=0.0, p_nb=NEG_INF, lm_logp=0.0)}
        self.frame = 0
        self.trace = []
        # the last trace line's best node and its label ids joined by commas,
        # and the last partial's node and label ids
        self._trace_best = (root, "")
        self._partial = (root, ())
        self._last_carried = dict(self.hyps)
        self._last_pjoint = {root: 0.0}
        self.ta = None if dec is None else {
            root: _TaEntry(0.0, 0, dec_mod.DecoderState(dec_mod.empty_history(dec), dec.sos_id))}
        self.cross = None if dec is None else dec_mod.CrossAttentionCache(dec)

    @property
    def lookahead(self):
        """Encoder rows past frame n that :meth:`advance` reads at frame n:
        the decoder's eps_dec, so a streaming caller advances frame n once
        n + lookahead rows exist."""
        return self.params.eps_dec

    def add_rows(self, enc_rows):
        """Append the next encoder rows, (n, d_model), for the decoder to
        read; a row that is not finite raises ``ValueError`` and none is
        added.  Without a decoder this does nothing."""
        if self.cross is not None:
            self.cross.extend(enc_rows)

    def advance(self, post_row):
        """Process one frame: returns nothing, mutates the beam.  With a
        decoder, the frame's own encoder row must have been added.  A row
        in which no prefix keeps nonzero probability (a zero blank and no
        label the search may extend) raises ``ValueError``; that and a
        hook that raises leave ``frame``, ``hyps``, ``trace`` and the TA
        cache as they were, so the frame can be advanced again."""
        row = np.array(post_row, dtype=np.float64, copy=True)
        if row.shape != (self.n_cols,):
            raise ValueError(f"posterior row shape {row.shape}, expected ({self.n_cols},)")
        check_log_probs(row)
        if self.cross is not None and self.cross.rows <= self.frame:
            raise ValueError(f"frame {self.frame + 1} needs its encoder row, "
                             f"but {self.cross.rows} were added")
        row[self._banned_cols] = NEG_INF
        row = row.tolist()
        omega_hat, phat = self._ctc_stage(row)
        p = self.params
        pjoint = phat if self.dec is None else self._ta_stage(row, omega_hat, self.frame + 1)
        # Every hook has returned: commit.  omega_hat is in phat rank order,
        # so the top p_size within theta2 by phat is its head.  The carried
        # beam adds the top p_size by pjoint (all of omega_hat without a
        # decoder); its order is the order the next frame accumulates in.
        self.frame += 1
        cut = phat[next(iter(omega_hat))] - p.theta2
        kept = {}
        for pre, h in islice(omega_hat.items(), p.p_size):
            if phat[pre] < cut:
                break
            kept[pre] = h
        if self.dec is None:
            self.hyps, best = omega_hat, next(iter(kept))
        else:
            self.hyps = prune(omega_hat, pjoint, p.p_size, math.inf)
            self.hyps.update(kept)
            best = next(iter(prune(kept, pjoint, 1, math.inf)))
        self._last_carried = kept
        self._last_pjoint = pjoint
        self.trace.append(_format_trace(self.frame, len(kept), self._trace_ids(best),
                                        phat[best], pjoint[best]))
        self.prefixes.retain(self.hyps)
        if self.dec is not None:
            self._evict_ta()

    def _ctc_stage(self, row):
        """One CTC prefix step, phat for every candidate and the first
        prune by phat.  Returns omega_hat, the survivors as Hypotheses in
        phat rank order (the carried top P by phat is its head, read
        without ranking again), and their phat.  Raises ``ValueError``
        before any state changes when no candidate has nonzero mass.

        The extensions are ranked as arrays: phat of all of them is one
        NumPy expression over the (carried prefix x active column) mass
        matrix, in the order and float64 rounding of ``_phat`` (an
        extension's p_b is -inf, so its log_add is its one mass, and a
        zero alpha0 leaves the LM term out).  A partial selection finds the
        ``survivors``-th best -phat among the carried prefixes and the
        extensions; rank tuples (-phat, length, parent, column, ...) are
        built only for the carried prefixes and the extensions at or below
        it, so exact ties at that place still reach :func:`_rank`.  The
        tuples order as (-phat, length, column tuple) and compare nodes,
        building their column tuples, only on exact ties (the root is the
        one candidate of length 0, so its None parent is never compared).
        Only the survivors the search keeps become nodes: all of them with
        a decoder (the TA stage and the hooks read them), the top p_size
        without one (the carried beam is their head).  Every value handed
        on is a Python float.
        """
        p = self.params
        alpha0, beta = p.alpha0, p.beta
        parents = list(self.hyps)
        carried, cols, masses = _prefix_masses(row, self.hyps, p.local_threshold, _PARENT_LAST)
        ranked = [(-_phat(m[0], m[1], pre.lm_logp, pre.length, alpha0, beta),
                   pre.length, pre.parent, pre.last, pre, m[0], m[1])
                  for pre, m in carried.items()]
        valid = masses != NEG_INF
        n_ext = int(np.count_nonzero(valid))
        if not ranked and not n_ext:
            raise ValueError(f"frame {self.frame + 1}: no prefix has nonzero probability")
        inc = self.prefixes.increments([pre.lm_state for pre in parents], cols, valid)
        lm_logp = np.array([pre.lm_logp for pre in parents])
        length = np.array([pre.length + 1 for pre in parents], dtype=np.float64)
        s = masses + alpha0 * (lm_logp[:, None] + inc) if alpha0 else masses
        neg = -(s + beta * length[:, None])
        survivors = p.k_size if self.dec is not None else p.p_size
        if len(ranked) + n_ext > survivors:
            negs = np.concatenate(([r[0] for r in ranked], neg[valid]))
            kth = np.partition(negs, survivors - 1)[survivors - 1]
            valid &= neg <= kth
        rows, where = np.nonzero(valid)
        for i, j, neg_ij, mass in zip(rows.tolist(), where.tolist(), neg[rows, where].tolist(),
                                      masses[rows, where].tolist()):
            parent = parents[i]
            ranked.append((neg_ij, parent.length + 1, parent, cols[j], None, NEG_INF, mass))
        child = self.prefixes.child
        omega_hat, phat = {}, {}
        for neg_i, _, parent, col, pre, p_b, p_nb in _rank(ranked, survivors, p.theta1):
            if pre is None:
                pre = child(parent, col)
            omega_hat[pre] = Hypothesis(pre, p_b, p_nb, pre.lm_logp)
            phat[pre] = -neg_i
        return omega_hat, phat

    def _ta_stage(self, row, omega_hat, n):
        """Ask the hooks about frame ``n``, then give omega_hat's prefixes
        their TA scores at its truncation, and return every candidate's
        joint score.  Every hook is asked before any TA entry is deleted
        or added, so a hook that raises leaves the TA cache as it was."""
        p = self.params
        drop = ()
        if p.dcond is not None or p.acond is not None:
            # the hooks see column tuples, built only when a hook is set
            cols = {pre: pre.as_tuple() for pre in omega_hat}
            view = {cols[pre]: h for pre, h in omega_hat.items()}
        if p.dcond is not None:
            drop = {pre for pre in omega_hat
                    if pre and pre in self.ta and p.dcond(cols[pre], view, n, row)}
        if p.acond is None:
            targets = [pre for pre in omega_hat if pre not in self.ta or pre in drop]
        else:
            targets = [pre for pre in sorted(omega_hat, key=lambda q: (len(q), cols[q]))
                       if (pre not in self.ta or pre in drop)
                       and p.acond(cols[pre], view, n, row)]
        for pre in drop:
            del self.ta[pre]
        self._score_ta(targets, min(n + p.eps_dec, self.cross.rows))

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
                self.ta[pre] = _TaEntry(parent.logp + float(logpost[pre.last - 1]), nu,
                                        dec_mod.DecoderState(hist, pre.last - 1))
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
        if not stale:
            return
        entries = [self.ta[pre] for pre in stale]
        steps = dec_mod.advance_positions(self.cross, [e.state for e in entries], nu)
        for entry, (hist, logpost) in zip(entries, steps):
            entry.step = (nu, hist, logpost)

    def _evict_ta(self):
        """Keep the entries of the prefixes still in the table (the carried
        prefixes and their ancestors), and only the steps a later frame or
        finalize can still read: nu never falls below the encoder rows
        already seen."""
        self.ta = {pre: e for pre, e in self.ta.items() if pre.refs > 0}
        seen = self.cross.rows
        for entry in self.ta.values():
            if entry.step is not None and entry.step[0] < seen:
                entry.step = None

    def _trace_ids(self, best):
        """``best``'s label ids joined by commas, built from the last trace
        line's: the labels after the nodes' common prefix are cut off,
        found from the end one comma at a time, and ``best``'s appended,
        so a frame costs the labels that changed."""
        node, text = self._trace_best
        if best is not node:
            n, cols = _changed_columns(node, best)
            parts = [str(c - 1) for c in cols]
            if n:
                cut = len(text)
                for _ in range(node.length - n):
                    cut = text.rfind(",", 0, cut)
                parts.insert(0, text[:cut])
            text = ",".join(parts)
            self._trace_best = (best, text)
        return text

    @property
    def best_ctc_prefix(self):
        """Best carried prefix by CTC ranking score, as its node."""
        return next(iter(self._last_carried))  # carried in phat rank order

    @property
    def best_ctc_partial(self):
        """Best carried prefix by CTC ranking score, as label ids, built
        from the last partial's as :meth:`_trace_ids` builds its text."""
        best = self.best_ctc_prefix
        node, ids = self._partial
        if best is not node:
            n, cols = _changed_columns(node, best)
            ids = ids[:n] + tuple(c - 1 for c in cols)
            self._partial = (best, ids)
        return ids

    def finalize(self):
        """Pick the joint-score winner of the final frame's carried beam,
        rescored with ``<eos>`` at every encoder row added when the
        decoder has an ``<eos>`` id."""
        if self.frame == 0:
            return DecodeResult((), 0.0, list(self.trace))
        scores = {pre: self._last_pjoint[pre] for pre in self._last_carried}
        p = self.params
        if self.dec is not None and self.dec.eos_id is not None:
            avail = self.cross.rows
            scored = [pre for pre in self._last_carried if pre in self.ta]
            self._step(scored, avail)
            for pre in scored:
                entry = self.ta[pre]
                eos_logp = float(entry.step[2][self.dec.eos_id])
                eos_hyp = replace(self._last_carried[pre], ta_logp=entry.logp + eos_logp)
                scores[pre] = joint_score(eos_hyp, p)
        best = next(iter(prune(self._last_carried, scores, 1, math.inf)))
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

    # a frame reads only its own posterior row
    lookahead = 0

    def __init__(self, lm, params, n_cols, banned_ids=()):
        self._start(None, lm, params, n_cols, banned_ids)

    # not inherited: the benchmark's tracer patches each class's own dict
    advance = JointSearch.advance
    # likewise bound here for the tracer (perfbench/tracer.py)
    finalize = JointSearch.finalize


def _search_offline(search, logp, states=None):
    """Run a fresh ``search`` over every row of the posteriorgram ``logp``
    and finalize it.  ``states`` are the encoder rows, one per posterior
    row (None without a decoder), added once, and checked by the search's
    cross-attention cache as they are added; each posterior row is read,
    and checked, only at its own frame, as a streaming session reads it."""
    n = logp.shape[0]
    if n < 1:
        raise ValueError("empty utterance")
    if states is not None:
        if states.shape[0] != n:
            raise ValueError(f"{n} posterior rows but {states.shape[0]} encoder rows")
        search.add_rows(states)
    for i in range(n):
        search.advance(logp[i])
    return search.finalize()


def decode(enc, post, lm, dec, params):
    """Offline joint decode of a whole utterance.

    enc: the (N, d_model) encoder matrix; post: the posteriorgram, whose
    rows match the encoder rows one to one and whose width is
    dec.vocab_size + 1.  A posteriorgram that is not 2-D raises ``ValueError``.
    """
    logp = posterior_matrix(post)
    return _search_offline(JointSearch(dec, lm, params, logp.shape[1]), logp, np.asarray(enc))


def ctc_prefix_search(post, lm, params, banned_ids=()):
    """Offline pure-CTC prefix beam search over an (N, V+1) posteriorgram,
    which must be 2-D, else ``ValueError``."""
    logp = posterior_matrix(post)
    return _search_offline(CtcPrefixSearch(lm, params, logp.shape[1], banned_ids), logp)


def joint_loss(post, enc, y, align, dec, lp):
    """Weighted sum of the CTC and truncated-decoder negative log likelihoods.

    post is the (N, V+1) posteriorgram and enc the (N, d_model) encoder
    matrix; y is the reference label-id sequence; align supplies the
    per-label encoder truncation points (from the forced alignment of y
    against post).  At gamma exactly 0 or 1 the other term is not
    evaluated, so the limits equal the single objectives identically.  A
    y that the posteriorgram cannot emit yields +inf.
    """
    y = list(y)
    loss = 0.0
    if lp.gamma > 0.0:
        loss += -lp.gamma * ctc_forward_logprob(post, [label + 1 for label in y])
    if lp.gamma < 1.0:
        loss += -(1.0 - lp.gamma) * dec_mod.ta_prefix_score(enc, y, align.nu, dec)
    return float(loss)
