"""Interned search prefixes: identity, tuple order, the bounded child
table and its LM memo, and bit-identity with the tuple-keyed search they
replaced."""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamasr import search as search_mod
from streamasr.ctc import Posteriorgram
from streamasr.lm import LanguageModel, UniformLM
from streamasr.modelio import random_features
from streamasr.search import (CtcPrefixSearch, DecodeParams, JointSearch, Prefix, PrefixTable,
                              _rank_key, ctc_prefix_search, prefix_score, prune)
from streamasr.streaming import StreamConfig, StreamingSession
from helpers import bigram, logprob_rows, tiny_model
from oracles import tuple_ctc_search


def node(table, cols):
    pre = table.root
    for c in cols:
        pre = table.child(pre, c)
    return pre


def test_table_interns_each_prefix_once():
    table = PrefixTable(UniformLM(9))
    a = node(table, (3, 4))
    assert node(table, (3, 4)) is a
    assert node(table, (4, 3)) is not a
    assert len(a) == 2 and a.last == 4 and a.parent is node(table, (3,))
    assert a.as_tuple() == (3, 4) and table.root.as_tuple() == ()
    assert not table.root and a


def test_equal_score_and_length_sort_in_tuple_order():
    table = PrefixTable(UniformLM(9))
    cols = [(4, 2), (3, 5), (3, 4, 1), (4, 1), (2,), (3, 4)]
    nodes = {c: node(table, c) for c in cols}
    scores = {n: -1.0 for n in nodes.values()}
    ranked = sorted(nodes.values(), key=_rank_key(scores))
    assert [n.as_tuple() for n in ranked] == sorted(cols, key=lambda c: (len(c), c))
    kept = prune({n: n for n in nodes.values()}, scores, 2, 1.0)
    assert [n.as_tuple() for n in kept] == [(2,), (3, 4)]
    assert nodes[(3, 4)] < nodes[(3, 5)] and not nodes[(3, 5)] < nodes[(3, 4)]
    assert nodes[(3, 4)] < nodes[(3, 4, 1)] and nodes[(3, 4, 1)] < nodes[(4, 1)]


def test_retain_keeps_live_prefixes_and_ancestors_only():
    table = PrefixTable(UniformLM(9))
    live = [node(table, (1, 2, 3)), node(table, (1, 4))]
    node(table, (1, 2, 5))
    node(table, (6,))
    keep = table.retain(live)
    want = {(), (1,), (1, 2), (1, 2, 3), (1, 4)}
    assert {n.as_tuple() for n in keep} == want
    assert {n.as_tuple() for n in table} == want - {()}
    # an ancestor reached again is the node the live prefix hangs from
    assert node(table, (1, 2)) is live[0].parent
    assert node(table, (1, 2, 5)).parent is live[0].parent


def quantized_rows(rng, n, c):
    """Log probabilities from three levels per row: labels often share a
    probability, so sibling prefixes tie exactly in score and length."""
    levels = rng.integers(1, 4, size=(n, c)).astype(np.float64)
    return np.log(levels / levels.sum(axis=1, keepdims=True))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_interned_search_matches_tuple_reference(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    n_cols = data.draw(st.integers(3, 6))
    n = data.draw(st.integers(1, 14))
    quantized = data.draw(st.booleans())
    rng = np.random.default_rng(seed)
    logp = quantized_rows(rng, n, n_cols) if quantized else logprob_rows(rng, n, n_cols)
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
    got = ctc_prefix_search(Posteriorgram(logp), lm, params, banned_ids=banned)
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
    for start in range(0, feats.frames.shape[0], 4):
        sess.push(feats.frames[start:start + 4])
    search = sess.search
    assert search.frame >= 390
    live = ancestors(search.hyps)
    assert set(search.prefixes) | {search.prefixes.root} == live
    if not ctc_only:
        assert set(search.ta) <= live
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
        ctc_prefix_search(Posteriorgram(logp), UniformLM(5), DecodeParams(), banned_ids=(bad,))
    with pytest.raises(ValueError, match="banned id"):
        CtcPrefixSearch(UniformLM(5), DecodeParams(), 6, banned_ids=(0, bad))
    CtcPrefixSearch(UniformLM(5), DecodeParams(), 6, banned_ids=(0, np.int64(4)))


class HistoryLM(LanguageModel):
    """A bigram whose state is the whole label history, so no two prefixes
    share an LM state and the memo can never serve one prefix's step to
    another."""

    def __init__(self, inner):
        self.inner = inner

    def start_state(self):
        return ()

    def extend(self, state, label):
        _, inc = self.inner.extend(state[-1:], label)
        return state + (label,), inc


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
    labels = logp.shape[1] - 1
    search = CtcPrefixSearch(lm, params, logp.shape[1])
    for row in logp:
        search.advance(row)
        carried_states = {pre.lm_state for pre in search.hyps}
        assert len(carried_states) == len(search.hyps)
        assert len(search.prefixes._lm_steps) <= len(carried_states) * labels
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
    extended = set()
    for row in logp:
        start = len(lm.calls)
        search.advance(row, None if ctc_only else enc.astype(np.float32))
        for call in lm.calls[start:]:
            assert call not in extended
            extended.add(call)
        carried = {pre.lm_state for pre in search.hyps}
        extended = {(state, label) for state, label in extended if state in carried}
    # a bigram has one state per label plus the empty history, and a pair
    # whose state left the beam is extended again if the state returns
    n_labels = logp.shape[1] - 1
    assert len(set(lm.calls)) <= (n_labels + 1) * n_labels < len(lm.calls)


@pytest.mark.parametrize("ctc_only", [True, False])
def test_search_phat_is_prefix_score_of_each_survivor(monkeypatch, ctc_only):
    logp, lm, params = ctc_setup(144, n=20, alpha0=0.7, beta=1.5)
    built = []
    hypothesis = search_mod.Hypothesis

    def recording(*args):
        h = hypothesis(*args)
        built.append(h)
        return h

    if ctc_only:
        search = CtcPrefixSearch(lm, params, logp.shape[1])
    else:
        m = tiny_model(144)
        search = JointSearch(m.decoder, lm, params, logp.shape[1])
    enc = np.random.default_rng(145).standard_normal((logp.shape[0], 8)).astype(np.float32)
    monkeypatch.setattr(search_mod, "Hypothesis", recording)
    dropped = 0
    for row in logp:
        del built[:]
        search.advance(row, None if ctc_only else enc)
        # Hypotheses are built for the first prune's survivors only
        assert 0 < len(built) <= min(params.k_size, len(search._last_phat))
        assert {h.prefix for h in built} >= set(search.hyps)
        for h in built:
            assert h.lm_logp == h.prefix.lm_logp
            assert search._last_phat[h.prefix] == prefix_score(h, params.alpha0, params.beta)
        dropped += len(search._last_phat) - len(built)
    assert dropped > 0
