"""Interned search prefixes: identity, tuple order, the bounded child
table and its LM memo, nodes only for the candidates the search keeps,
and bit-identity with the tuple-keyed search and the all-nodes CTC stage
they replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamasr import search as search_mod
from streamasr.lm import LanguageModel, UniformLM
from streamasr.modelio import random_features
from streamasr.search import (CtcPrefixSearch, DecodeParams, JointSearch, Prefix, PrefixTable,
                              _rank, ctc_prefix_search, prefix_score, prune)
from streamasr.streaming import StreamConfig, StreamingSession
from helpers import HookFailed, RaiseOnce, bigram, logprob_rows, record_interned, tiny_model
from oracles import (_tuple_prefix_step, all_nodes_ctc_stage, memo_row, rebuilt_retain,
                     tuple_ctc_search)

NEG_INF = float("-inf")


def node(table, cols):
    pre = table.root
    for c in cols:
        pre = table.child(pre, c)
    return pre


def test_table_interns_each_prefix_once():
    table = PrefixTable(UniformLM(9), 10)
    a = node(table, (3, 4))
    assert node(table, (3, 4)) is a
    assert node(table, (4, 3)) is not a
    assert len(a) == 2 and a.last == 4 and a.parent is node(table, (3,))
    assert a.as_tuple() == (3, 4) and table.root.as_tuple() == ()
    assert not table.root and a


def test_equal_score_and_length_sort_in_tuple_order():
    table = PrefixTable(UniformLM(9), 10)
    cols = [(4, 2), (3, 5), (3, 4, 1), (4, 1), (2,), (3, 4)]
    nodes = {c: node(table, c) for c in cols}
    scores = {n: -1.0 for n in nodes.values()}
    ranked = _rank([(-scores[n], len(n), n) for n in nodes.values()], len(nodes), math.inf)
    assert [r[2].as_tuple() for r in ranked] == sorted(cols, key=lambda c: (len(c), c))
    kept = prune({n: n for n in nodes.values()}, scores, 2, 1.0)
    assert [n.as_tuple() for n in kept] == [(2,), (3, 4)]
    assert nodes[(3, 4)] < nodes[(3, 5)] and not nodes[(3, 5)] < nodes[(3, 4)]
    assert nodes[(3, 4)] < nodes[(3, 4, 1)] and nodes[(3, 4, 1)] < nodes[(4, 1)]


def test_retain_keeps_live_prefixes_and_ancestors_only():
    table = PrefixTable(UniformLM(9), 10)
    live = [node(table, (1, 2, 3)), node(table, (1, 4))]
    node(table, (1, 2, 5))
    node(table, (6,))
    table.retain(live)
    want = {(), (1,), (1, 2), (1, 2, 3), (1, 4)}
    assert {n.as_tuple() for n in table} | {()} == want
    # an ancestor reached again is the node the live prefix hangs from
    assert node(table, (1, 2)) is live[0].parent
    assert node(table, (1, 2, 5)).parent is live[0].parent


def assert_one_record_per_step(table):
    """Each memo row holds a non-NaN increment at exactly the columns of
    its next-state dict, and the rows no state has yet hold only NaN: a
    NaN increment is what marks a step not taken."""
    for r, nxt in enumerate(table._next):
        assert set(np.flatnonzero(~np.isnan(table._inc[r])).tolist()) == set(nxt)
    assert np.isnan(table._inc[len(table._next):]).all()


def check_retain_against_rebuild(table):
    """Make every ``retain`` of ``table`` check, after it returns, that
    the table holds what the full rebuild keeps: the same nodes, the same
    child table, the same memo rows, each of a carried LM state, and the
    same spare rows in the same order, steps unchanged.  Every row is a
    carried state's or a spare one, and the memo holds at most (the most
    states carried before + ``SPARE_ROWS``) rows: a frame makes rows only
    for the states carried into it, and a fresh one only while at most
    ``SPARE_ROWS`` are spare.  Each row keeps one record per step (see
    :func:`assert_one_record_per_step`)."""
    retain = table.retain
    most = 1  # the root's state

    def checked(live):
        nonlocal most
        live = list(live)
        keep, children, rows, spare = rebuilt_retain(table, live)
        retain(live)
        assert set(table) | {table.root} == keep
        assert table._children == children
        assert {state: memo_row(table, state) for state in table._rows} == rows
        assert [(state, memo_row(table, state)) for state in table._spare] == spare
        carried = {pre.lm_state for pre in live}
        assert set(table._rows) <= carried and not carried & set(table._spare)
        held = [*table._rows.values(), *table._spare.values()]
        assert sorted(held) == list(range(len(table._next)))
        assert len(table._next) <= most + table.SPARE_ROWS
        most = max(most, len(carried))
        assert all(pre.refs > 0 for pre in keep)
        assert_one_record_per_step(table)

    table.retain = checked


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_incremental_retain_equals_the_full_rebuild(data):
    """Random pure-CTC and joint searches, with and without hooks (one of
    which may raise once, the frame then advanced again): after every
    frame the table equals the one today's rebuild would leave."""
    joint = data.draw(st.booleans())
    seed = data.draw(st.integers(0, 2**32 - 1))
    n_cols = 6 if joint else data.draw(st.integers(3, 6))
    n = data.draw(st.integers(1, 16))
    rng = np.random.default_rng(seed)
    logp = logprob_rows(rng, n, n_cols)
    lm = UniformLM(n_cols - 1) if data.draw(st.booleans()) else bigram(rng, n_cols - 1, False)
    if data.draw(st.booleans()):
        lm = HistoryLM(lm)  # no two prefixes share an LM state
    k = data.draw(st.integers(1, 12))
    hooks = {}
    if joint and data.draw(st.booleans()):
        # acond declines odd lengths, or two generations of every three,
        # so a candidate's nearest scored ancestor may be its grandparent
        declines = data.draw(st.sampled_from([2, 3]))
        hooks = dict(dcond=lambda pre, *_: len(pre) % 3 == 1,
                     acond=lambda pre, *_: len(pre) % declines == 0)
        name = data.draw(st.sampled_from(["dcond", "acond"]))
        hooks[name] = RaiseOnce(hooks[name], at=data.draw(st.integers(1, n)))
    params = DecodeParams(
        k_size=k, p_size=data.draw(st.integers(1, k)),
        theta1=data.draw(st.sampled_from([0.5, 4.0, 16.0])),
        theta2=data.draw(st.sampled_from([0.5, 6.0])),
        local_threshold=data.draw(st.sampled_from([0.0, 0.2])), **hooks)
    if joint:
        search = JointSearch(tiny_model(seed % 1000).decoder, lm, params, n_cols)
        search.add_rows(rng.standard_normal((n, 8)).astype(np.float32))
    else:
        search = CtcPrefixSearch(lm, params, n_cols)
    # fewer spare rows than the class keeps, so that rows are evicted; with
    # none, a row goes to the next new state as soon as its state leaves
    search.prefixes.SPARE_ROWS = data.draw(st.sampled_from([0, 2, PrefixTable.SPARE_ROWS]))
    check_retain_against_rebuild(search.prefixes)
    interned = record_interned(search)
    for row in logp:
        try:
            search.advance(row)
        except HookFailed:
            search.advance(row)
    assert search.frame == n
    if joint:
        assert all(pre.refs > 0 for pre in interned if pre.ta is not None)


def quantized_rows(rng, n, c):
    """Log probabilities from three levels per row: labels often share a
    probability, so sibling prefixes tie exactly in score and length."""
    levels = rng.integers(1, 4, size=(n, c)).astype(np.float64)
    return np.log(levels / levels.sum(axis=1, keepdims=True))


def zero_blank_frames(rng, logp, banned_ids, local_threshold):
    """Give about half the frames a blank of probability exactly zero, the
    labels renormalised.  A prefix whose p_b is then -inf gives its repeat
    extension zero mass.  A frame is left as it is when no label the
    search may emit would stay at or above ``local_threshold``: with no
    label and no blank the search has nothing to extend."""
    out = logp.copy()
    allowed = [i for i in range(out.shape[1] - 1) if i not in banned_ids]
    floor = math.log(local_threshold) if local_threshold > 0 else NEG_INF
    for i in np.flatnonzero(rng.random(out.shape[0]) < 0.5):
        labels = out[i, 1:] - np.logaddexp.reduce(out[i, 1:])
        if labels[allowed].max() >= floor:
            out[i, 1:] = labels
            out[i, 0] = NEG_INF
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_interned_search_matches_tuple_reference(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    n_cols = data.draw(st.integers(3, 6))
    n = data.draw(st.integers(1, 14))
    quantized = data.draw(st.booleans())
    rng = np.random.default_rng(seed)
    logp = quantized_rows(rng, n, n_cols) if quantized else logprob_rows(rng, n, n_cols)
    zero_blanks = data.draw(st.booleans())
    if data.draw(st.booleans()):
        lm = UniformLM(n_cols - 1)
    else:
        lm = bigram(rng, n_cols - 1, quantized)
    k = data.draw(st.integers(1, 12))
    params = DecodeParams(
        k_size=k, p_size=data.draw(st.integers(1, k)),
        theta1=data.draw(st.sampled_from([0.5, 4.0, 16.0])),
        theta2=data.draw(st.sampled_from([0.5, 6.0])),
        alpha0=data.draw(st.sampled_from([0.0, 0.7])),
        beta=data.draw(st.sampled_from([0.0, 0.5, 2.0])),
        local_threshold=data.draw(st.sampled_from([0.0, 1e-4, 0.2])))
    banned = tuple(data.draw(st.sets(st.integers(0, n_cols - 2), max_size=n_cols - 2)))
    if zero_blanks:
        logp = zero_blank_frames(rng, logp, banned, params.local_threshold)
    got = ctc_prefix_search(logp, lm, params, banned_ids=banned)
    labels, score, trace = tuple_ctc_search(logp, lm, params, banned)
    assert got.trace == trace
    assert got.labels == labels
    assert got.score == score


def session(ctc_only, frames=1600, **params_kw):
    m = tiny_model(130)
    params = DecodeParams(k_size=16, p_size=8, **params_kw)
    sess = StreamingSession(m, UniformLM(3), params, StreamConfig(eps_enc=1, eps_dec=2),
                            ctc_only=ctc_only)
    feats = random_features(131, frames, m.d_feat)
    return sess, feats


def ancestors(prefixes):
    out = set()
    for pre in prefixes:
        while pre is not None:
            out.add(pre)
            pre = pre.parent
    return out


@pytest.mark.parametrize("ctc_only", [True, False])
def test_long_session_keeps_only_live_prefixes_and_their_ancestors(ctc_only):
    sess, feats = session(ctc_only)
    search = sess.search
    interned = record_interned(search)
    for start in range(0, feats.frames.shape[0], 4):
        sess.push(feats.frames[start:start + 4])
    assert search.frame >= 390
    live = ancestors(search.hyps)
    assert set(search.prefixes) | {search.prefixes.root} == live
    if not ctc_only:
        assert {pre for pre in interned if pre.ta is not None} <= live
    assert max(len(pre) for pre in search.hyps) > 20
    sess.finalize()


@pytest.mark.parametrize("ctc_only", [True, False])
def test_prefix_tuples_are_built_a_few_times_per_frame(monkeypatch, ctc_only):
    built = []
    as_tuple = Prefix.as_tuple

    def counting(self):
        built.append(self)
        return as_tuple(self)

    monkeypatch.setattr(Prefix, "as_tuple", counting)
    sess, feats = session(ctc_only, frames=400)
    for start in range(0, feats.frames.shape[0], 4):
        sess.push(feats.frames[start:start + 4])
    frames = sess.search.frame
    assert frames >= 90
    # one for the trace line and one for the streaming partial per frame,
    # against 16-32 candidates ranked per frame
    assert len(built) <= 3 * frames


def test_hooks_see_column_tuples():
    seen = []

    def dcond(pre, omega, frame, row):
        seen.append((pre, omega))
        return False

    sess, feats = session(False, frames=40, dcond=dcond, acond=lambda pre, *_: True)
    sess.push(feats.frames)
    sess.finalize()
    assert seen
    for pre, omega in seen:
        assert type(pre) is tuple and pre in omega
        assert all(type(key) is tuple for key in omega)


@pytest.mark.parametrize("bad", [-1, 5, 99, 1.0, 2.5, True, "1", None])
def test_ctc_search_rejects_banned_ids_that_are_not_label_ids(bad):
    # 6 columns: the blank plus label ids 0..4.  -1 used to ban the blank
    # column and 99 was silently ignored.
    logp = logprob_rows(np.random.default_rng(132), 5, 6)
    with pytest.raises(ValueError, match="banned id"):
        ctc_prefix_search(logp, UniformLM(5), DecodeParams(), banned_ids=(bad,))
    with pytest.raises(ValueError, match="banned id"):
        CtcPrefixSearch(UniformLM(5), DecodeParams(), 6, banned_ids=(0, bad))
    CtcPrefixSearch(UniformLM(5), DecodeParams(), 6, banned_ids=(0, np.int64(4)))


class HistoryLM(LanguageModel):
    """A bigram whose state is the whole label history, so no two prefixes
    share an LM state and the memo can never serve one prefix's step to
    another; or, given ``window``, only the last ``window`` labels, a
    finite set of states that prefixes share and return to."""

    def __init__(self, inner, window=None):
        self.inner = inner
        self.window = window

    def start_state(self):
        return ()

    def extend(self, state, label):
        _, inc = self.inner.extend(state[-1:], label)
        state = state + (label,)
        return state if self.window is None else state[-self.window:], inc


class CountingLM(LanguageModel):
    """Records every (state, label) it is asked to extend."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def start_state(self):
        return self.inner.start_state()

    def extend(self, state, label):
        self.calls.append((state, label))
        return self.inner.extend(state, label)


def chained_lm(lm, cols):
    """LM state and log probability of a column prefix, extended label by
    label in the order the search adds them."""
    state, logp = lm.start_state(), 0.0
    for c in cols:
        state, inc = lm.extend(state, c - 1)
        logp = logp + inc
    return state, logp


def ctc_setup(seed, n=30, n_cols=6, **params_kw):
    rng = np.random.default_rng(seed)
    logp = logprob_rows(rng, n, n_cols)
    params_kw.setdefault("local_threshold", 0.0)
    params = DecodeParams(k_size=12, p_size=5, theta1=8.0, **params_kw)
    return logp, bigram(rng, n_cols - 1, False), params


def test_node_lm_fields_equal_chaining_extend_over_its_labels():
    logp, lm, params = ctc_setup(140)
    search = CtcPrefixSearch(lm, params, logp.shape[1])
    for row in logp:
        search.advance(row)
        # the carried prefixes and their ancestors
        for pre in search.prefixes:
            state, lm_logp = chained_lm(lm, pre.as_tuple())
            assert pre.lm_state == state and pre.lm_logp == lm_logp
    assert max(len(pre) for pre in search.hyps) > 10


def test_memo_with_history_states_matches_tuple_search_and_stays_bounded():
    logp, inner, params = ctc_setup(141, n=24)
    lm = HistoryLM(inner)
    search = CtcPrefixSearch(lm, params, logp.shape[1])
    table = search.prefixes
    most = 1
    for row in logp:
        search.advance(row)
        carried_states = {pre.lm_state for pre in search.hyps}
        assert len(carried_states) == len(search.hyps)
        most = max(most, len(carried_states))
        # the memo's rows: the carried states' and at most SPARE_ROWS more
        assert len(table._next) <= most + table.SPARE_ROWS
    got = search.finalize()
    want_labels, want_score, want_trace = tuple_ctc_search(logp, lm, params)
    assert got.trace == want_trace
    assert got.labels == want_labels and got.score == want_score


@pytest.mark.parametrize("ctc_only", [True, False])
def test_each_lm_step_runs_once_while_its_state_stays_carried(ctc_only):
    logp, inner, params = ctc_setup(142, n=40)
    lm = CountingLM(inner)
    if ctc_only:
        search = CtcPrefixSearch(lm, params, logp.shape[1])
    else:
        m = tiny_model(142)
        search = JointSearch(m.decoder, lm, params, logp.shape[1])
        enc = np.random.default_rng(143).standard_normal((logp.shape[0], m.d_model))
        search.add_rows(enc.astype(np.float32))
    for row in logp:
        search.advance(row)
    # a bigram has one state per label plus the empty history, 6 here: a
    # state that leaves the beam keeps its row among the spare ones, so
    # each (state, label) pair is stepped once per search
    n_labels = logp.shape[1] - 1
    assert n_labels + 1 <= search.prefixes.SPARE_ROWS
    assert len(set(lm.calls)) == len(lm.calls) <= (n_labels + 1) * n_labels


@pytest.mark.parametrize("window", [None, 4])
def test_memo_stays_within_the_most_carried_states_plus_the_spare_rows(window):
    """A long pure-CTC search under an LM with many more states than
    SPARE_ROWS: the whole history, where a state evicted from the spare
    rows seldom comes back, or the last four labels, where states come
    back both while spare and after they were evicted.  The memo never
    holds more than (the most states carried so far + SPARE_ROWS) rows, a
    state back from the spare rows is not stepped again, one back after
    its row was evicted is, and the decode equals the tuple search."""
    rng = np.random.default_rng(160 if window is None else 172)
    n_cols = 6 if window is None else 5
    logp = logprob_rows(rng, 200 if window is None else 150, n_cols)
    inner = HistoryLM(bigram(rng, n_cols - 1, False), window)
    lm = CountingLM(inner)
    k = 60 if window is None else 40
    params = DecodeParams(k_size=k, p_size=k // 2, theta1=8.0, local_threshold=0.0)
    search = CtcPrefixSearch(lm, params, n_cols)
    table = search.prefixes
    memo, evicted, returned, most = {}, set(), 0, 1
    for row in logp:
        spare = set(table._spare)
        start = len(lm.calls)
        search.advance(row)
        for state, label in lm.calls[start:]:
            # stepped once while its state keeps a row
            assert label not in memo.setdefault(state, set())
            memo[state].add(label)
        for state in spare:
            if state in table._rows:
                returned += 1
            elif state not in table._spare:
                evicted.add(state)
                memo.pop(state, None)
        most = max(most, len({pre.lm_state for pre in search.hyps}))
        assert len(table._next) <= most + table.SPARE_ROWS
    seen, again = set(), set()
    for call in lm.calls:
        (again if call in seen else seen).add(call)
    assert {state for state, _ in again} <= evicted
    if window is None:
        assert len({state for state, _ in lm.calls}) > 10 * table.SPARE_ROWS
    else:
        assert again and returned
    got = search.finalize()
    want_labels, want_score, want_trace = tuple_ctc_search(logp, inner, params)
    assert got.trace == want_trace
    assert got.labels == want_labels and got.score == want_score


def carried_tuples(search):
    return {pre.as_tuple(): (h.p_b, h.p_nb) for pre, h in search.hyps.items()}


def recorded_phats(search):
    """A list to which each of ``search``'s frames appends the phat of its
    first prune's survivors, as the search's CTC stage returns it."""
    phats, stage = [], search._ctc_stage

    def recording(row):
        omega_hat, phat = stage(row)
        phats.append(phat)
        return omega_hat, phat

    search._ctc_stage = recording
    return phats


def masked_row(search, row):
    """The posterior row the search's CTC stage reads: banned columns at
    -inf, as Python floats."""
    out = np.array(row, dtype=np.float64)
    out[search._banned_cols] = NEG_INF
    return out.tolist()


@pytest.mark.parametrize("ctc_only", [True, False])
def test_search_phat_is_prefix_score_of_each_survivor(monkeypatch, ctc_only):
    logp, lm, params = ctc_setup(144, n=20, alpha0=0.7, beta=1.5)
    built, created = [], []
    hypothesis, prefix = search_mod.Hypothesis, search_mod.Prefix

    def recording(*args):
        h = hypothesis(*args)
        built.append(h)
        return h

    def counting(*args):
        node = prefix(*args)
        created.append(node)
        return node

    if ctc_only:
        search = CtcPrefixSearch(lm, params, logp.shape[1])
    else:
        m = tiny_model(144)
        search = JointSearch(m.decoder, lm, params, logp.shape[1])
    enc = np.random.default_rng(145).standard_normal((logp.shape[0], 8)).astype(np.float32)
    search.add_rows(enc)
    monkeypatch.setattr(search_mod, "Hypothesis", recording)
    monkeypatch.setattr(search_mod, "Prefix", counting)
    node_cap = params.p_size if ctc_only else params.k_size
    phats = recorded_phats(search)
    nodes = 0
    for row in logp:
        del built[:], created[:]
        candidates = len(_tuple_prefix_step(masked_row(search, row), carried_tuples(search),
                                            params.local_threshold))
        search.advance(row)
        # Hypotheses are built for the first prune's survivors only, and
        # nodes only for the survivors the search keeps
        assert 0 < len(built) <= min(params.k_size, candidates)
        assert len(created) <= node_cap and len(created) < candidates
        assert {h.prefix for h in built} >= set(search.hyps) | set(created)
        for h in built:
            assert h.lm_logp == h.prefix.lm_logp
            assert phats[-1][h.prefix] == prefix_score(h, params.alpha0, params.beta)
        nodes += len(created)
    assert nodes > 0


def view_recording_hooks(views):
    """dcond and acond hooks that record, per frame, the omega_hat view
    the first hook call of that frame sees, as (columns, p_b, p_nb)."""
    def record(pre, view, frame, row):
        views.setdefault(frame, [(cols, h.p_b, h.p_nb) for cols, h in view.items()])

    return dict(dcond=lambda *a: record(*a) or False, acond=lambda *a: record(*a) or True)


def assert_stage_matches_all_nodes(search, logp, lm, params, views):
    """Advance ``search`` over ``logp``; frame by frame, the first prune's
    survivors equal those of the stage that interned every candidate: all
    k of them as the hooks see them (``views``) in a joint search, the
    carried top p without a decoder."""
    joint = search.dec is not None
    phats = recorded_phats(search)
    for frame, row in enumerate(logp, start=1):
        want = all_nodes_ctc_stage(masked_row(search, row), search.hyps, lm, params,
                                   params.k_size if joint else params.p_size)
        search.advance(row)
        assert [(pre.as_tuple(), v) for pre, v in phats[-1].items()] == \
            [(cols, phat) for cols, _, _, phat in want]
        masses = [(cols, p_b, p_nb) for cols, p_b, p_nb, _ in want]
        if joint:
            # the hooks run unless the root is the only survivor
            assert views.get(frame, masses[:1]) == masses
            assert set(carried_tuples(search).items()) <= {(c, (b, nb)) for c, b, nb in masses}
        else:
            assert [(c, b, nb) for c, (b, nb) in carried_tuples(search).items()] == masses


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ctc_stage_survivors_match_the_all_nodes_reference(data):
    """Frame by frame, the first prune's survivors equal those of the
    stage that interned every candidate: all k of them as the hooks see
    them in the joint search, the carried top p without a decoder."""
    joint = data.draw(st.booleans())
    seed = data.draw(st.integers(0, 2**32 - 1))
    n_cols = 6 if joint else data.draw(st.integers(3, 6))
    n = data.draw(st.integers(1, 12))
    quantized = data.draw(st.booleans())
    rng = np.random.default_rng(seed)
    logp = quantized_rows(rng, n, n_cols) if quantized else logprob_rows(rng, n, n_cols)
    zero_blanks = data.draw(st.booleans())
    lm = UniformLM(n_cols - 1) if data.draw(st.booleans()) else bigram(rng, n_cols - 1, quantized)
    k = data.draw(st.integers(1, 12))
    views = {}
    params = DecodeParams(
        k_size=k, p_size=data.draw(st.integers(1, k)),
        theta1=data.draw(st.sampled_from([0.5, 4.0, 16.0])),
        theta2=data.draw(st.sampled_from([0.5, 6.0])),
        alpha0=data.draw(st.sampled_from([0.0, 0.7])),
        beta=data.draw(st.sampled_from([0.0, 0.5, 2.0])),
        local_threshold=data.draw(st.sampled_from([0.0, 1e-4, 0.2])),
        **view_recording_hooks(views))
    if joint:
        search = JointSearch(tiny_model(seed % 1000).decoder, lm, params, n_cols)
        search.add_rows(rng.standard_normal((n, 8)).astype(np.float32))
    else:
        search = CtcPrefixSearch(lm, params, n_cols)
    if zero_blanks:
        banned = [c - 1 for c in search._banned_cols]
        logp = zero_blank_frames(rng, logp, banned, params.local_threshold)
    assert_stage_matches_all_nodes(search, logp, lm, params, views)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ctc_stage_keeps_exact_ties_at_the_kth_place(data):
    """phat is the mass alone (alpha0 = beta = 0, a uniform LM) and each
    row holds two or three distinct values, so many candidates tie exactly
    with the k-th best (the p-th without a decoder).  The survivors still
    match the stage that ranked every candidate."""
    joint = data.draw(st.booleans())
    seed = data.draw(st.integers(0, 2**32 - 1))
    n_cols = 6 if joint else data.draw(st.integers(3, 6))
    n = data.draw(st.integers(1, 10))
    levels = data.draw(st.sampled_from([(1, 2), (1, 3), (1, 2, 4), (2, 3, 5)]))
    rng = np.random.default_rng(seed)
    probs = rng.choice(np.array(levels, dtype=np.float64), size=(n, n_cols))
    logp = np.log(probs / probs.sum(axis=1, keepdims=True))
    k = data.draw(st.integers(1, 8))
    views = {}
    lm = UniformLM(n_cols - 1)
    params = DecodeParams(k_size=k, p_size=data.draw(st.integers(1, k)), theta1=16.0,
                          alpha0=0.0, beta=0.0, local_threshold=0.0,
                          **view_recording_hooks(views))
    if joint:
        search = JointSearch(tiny_model(seed % 1000).decoder, lm, params, n_cols)
        search.add_rows(rng.standard_normal((n, 8)).astype(np.float32))
    else:
        search = CtcPrefixSearch(lm, params, n_cols)
    assert_stage_matches_all_nodes(search, logp, lm, params, views)


def test_zero_mass_extension_takes_no_lm_step():
    """With the blank at probability zero in frame 1, every carried prefix
    has p_b = -inf in frame 2, so extending one by its own last label has
    zero mass: it is dropped before its LM step is taken."""
    rng = np.random.default_rng(146)
    logp = logprob_rows(rng, 2, 4)
    logp[0, 1:] -= np.logaddexp.reduce(logp[0, 1:])
    logp[0, 0] = NEG_INF
    lm = CountingLM(HistoryLM(bigram(rng, 3, False)))
    search = CtcPrefixSearch(lm, DecodeParams(k_size=20, p_size=10, local_threshold=0.0), 4)
    search.advance(logp[0])
    carried = list(search.hyps)
    assert [len(pre) for pre in carried] == [1, 1, 1]
    assert all(search.hyps[pre].p_b == NEG_INF for pre in carried)
    del lm.calls[:]
    search.advance(logp[1])
    repeats = {(pre.lm_state, pre.last - 1) for pre in carried}
    assert lm.calls and not repeats & set(lm.calls)


def test_first_prune_keeps_a_candidate_exactly_at_the_beam_edge():
    # phat is the mass alone (alpha0 = beta = 0): the root at -1, (1,) at
    # exactly -1 - theta1, (2,) below it
    params = DecodeParams(k_size=5, p_size=5, theta1=4.0, theta2=100.0, alpha0=0.0, beta=0.0,
                          local_threshold=0.0)
    search = CtcPrefixSearch(UniformLM(2), params, 3)
    phats = recorded_phats(search)
    search.advance([-1.0, -5.0, -20.0])
    assert [(pre.as_tuple(), v) for pre, v in phats[-1].items()] == [((), -1.0), ((1,), -5.0)]



@pytest.mark.parametrize("ctc_only", [True, False])
def test_no_numpy_scalar_reaches_scores_or_trace(ctc_only):
    logp, lm, params = ctc_setup(147, n=12, alpha0=0.7, beta=1.5)
    if ctc_only:
        search = CtcPrefixSearch(lm, params, logp.shape[1])
    else:
        m = tiny_model(147)
        search = JointSearch(m.decoder, lm, params, logp.shape[1])
        search.add_rows(np.random.default_rng(148).standard_normal(
            (logp.shape[0], m.d_model)).astype(np.float32))
    phats = recorded_phats(search)
    for row in logp:
        search.advance(row)
        for h in search.hyps.values():
            assert type(h.p_b) is float and type(h.p_nb) is float
            assert type(h.lm_logp) is float and type(h.prefix.lm_logp) is float
        assert all(type(v) is float for v in phats[-1].values())
        assert all(type(v) is float for v in search._last_pjoint.values())
    result = search.finalize()
    assert type(result.score) is float
    assert result.trace and not any("np." in line for line in result.trace)


class BlockingLM(LanguageModel):
    """An LM that gives the label pairs in ``blocked`` probability zero: a
    log p increment of -inf for label b right after label a, for each
    (a, b) in it (a is None at the start)."""

    def __init__(self, inner, blocked):
        self.inner = inner
        self.blocked = blocked

    def start_state(self):
        return self.inner.start_state(), None

    def extend(self, state, label):
        inner_state, last = state
        nxt, inc = self.inner.extend(inner_state, label)
        return (nxt, label), NEG_INF if (last, label) in self.blocked else inc


def assert_no_nan_scores(search, phat):
    assert not any(math.isnan(v) for v in phat.values())
    assert not any(math.isnan(v) for v in search._last_pjoint.values())
    assert "nan" not in search.trace[-1]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_zero_lm_weight_keeps_an_lm_minus_inf_out_of_every_score(data):
    """An LM that gives some labels probability zero, under LM weights of
    zero and above: a zero weight means no LM term, so no score is NaN
    (0 * -inf), and the pure CTC search still equals the tuple search."""
    joint = data.draw(st.booleans())
    seed = data.draw(st.integers(0, 2**32 - 1))
    n_cols = 6 if joint else data.draw(st.integers(3, 6))
    n = data.draw(st.integers(1, 10))
    rng = np.random.default_rng(seed)
    logp = logprob_rows(rng, n, n_cols)
    labels = st.integers(0, n_cols - 2)
    blocked = data.draw(st.sets(st.tuples(st.none() | labels, labels), min_size=1, max_size=8))
    inner = UniformLM(n_cols - 1) if data.draw(st.booleans()) else bigram(rng, n_cols - 1, False)
    lm = BlockingLM(inner, blocked)
    k = data.draw(st.integers(1, 10))
    params = DecodeParams(
        k_size=k, p_size=data.draw(st.integers(1, k)),
        alpha0=data.draw(st.sampled_from([0.0, 0.7])),
        alpha=data.draw(st.sampled_from([0.0, 0.5])),
        lam=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
        beta=data.draw(st.sampled_from([0.0, 1.5])),
        theta1=data.draw(st.sampled_from([4.0, 16.0])), local_threshold=0.0)
    if joint:
        m = tiny_model(seed % 1000)
        search = JointSearch(m.decoder, lm, params, n_cols)
        search.add_rows(rng.standard_normal((n, m.d_model)).astype(np.float32))
    else:
        search = CtcPrefixSearch(lm, params, n_cols)
    phats = recorded_phats(search)
    for row in logp:
        search.advance(row)
        assert_no_nan_scores(search, phats[-1])
    got = search.finalize()
    assert not math.isnan(got.score)
    if not joint:
        want_labels, want_score, want_trace = tuple_ctc_search(logp, lm, params)
        assert got.trace == want_trace
        assert got.labels == want_labels and got.score == want_score


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_lm_increment_that_is_nan_or_pos_inf_is_refused(bad):
    class BadLM(UniformLM):
        def extend(self, state, label):
            return state, bad if label == 1 else self._logp

    logp = logprob_rows(np.random.default_rng(149), 2, 4)
    search = CtcPrefixSearch(BadLM(3), DecodeParams(k_size=5, p_size=3, local_threshold=0.0), 4)
    with pytest.raises(ValueError, match=r"from state \(\) by label 1 gave log p increment"):
        search.advance(logp[0])
    # the step taken before the refusal stays memoised, one record of it
    table = search.prefixes
    assert sum(len(nxt) for nxt in table._next) == 1
    assert_one_record_per_step(table)
