"""Interned search prefixes: identity, tuple order, the bounded child
table, and bit-identity with the tuple-keyed search they replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamasr.ctc import Posteriorgram
from streamasr.lm import NgramLM, UniformLM
from streamasr.modelio import random_features
from streamasr.search import (CtcPrefixSearch, DecodeParams, Prefix, PrefixTable,
                              _rank_key, ctc_prefix_search, prune)
from streamasr.streaming import StreamConfig, StreamingSession
from helpers import logprob_rows, tiny_model
from oracles import tuple_ctc_search


def node(table, cols):
    pre = table.root
    for c in cols:
        pre = table.child(pre, c)
    return pre


def test_table_interns_each_prefix_once():
    table = PrefixTable()
    a = node(table, (3, 4))
    assert node(table, (3, 4)) is a
    assert node(table, (4, 3)) is not a
    assert len(a) == 2 and a.last == 4 and a.parent is node(table, (3,))
    assert a.as_tuple() == (3, 4) and table.root.as_tuple() == ()
    assert not table.root and a


def test_equal_score_and_length_sort_in_tuple_order():
    table = PrefixTable()
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
    table = PrefixTable()
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


def bigram(rng, n_labels, quantized):
    """A back-off bigram over label ids, built in memory."""
    def logp():
        return math.log(rng.choice([0.25, 0.5])) if quantized else math.log(rng.uniform(0.05, 1))

    entries = {(a,): (logp(), logp()) for a in range(n_labels)}
    for a in range(n_labels):
        for b in range(n_labels):
            if rng.random() < 0.5:
                entries[(a, b)] = (logp(), 0.0)
    return NgramLM(entries, 2)


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
