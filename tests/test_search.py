import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from streamasr.ctc import ctc_forward_logprob, ctc_viterbi_align, posteriorgram_from_states
from streamasr.decoder import CrossAttentionCache, ta_prefix_score
from streamasr.encoder import encode
from streamasr.kernels import NEG_INF, log_add
from streamasr.lm import UniformLM
from streamasr.modelio import _SCHEMA, _Block
from streamasr.search import (CtcPrefixSearch, DecodeParams, Hypothesis,
                              JointSearch, LossParams, PrefixTable, _rank, ctc_prefix_search,
                              decode, joint_loss, joint_score, prefix_score,
                              prune)
from streamasr.streaming import StreamConfig, StreamingSession
from helpers import HookFailed, RaiseOnce, bigram, logprob_rows, random_enc_states, tiny_model
from oracles import rank_key, sorted_key_prune, top_hypotheses, within

TRACE_RE = re.compile(
    r"^frame=(\d+) beams=(\d+) best=((?:-?\d+)(?:,-?\d+)*)? ?p_prfx=(\S+) p_joint=(\S+)$"
)


def hyp(prefix, p_b, p_nb, lm_logp=0.0, ta=None):
    return Hypothesis(prefix, p_b, p_nb, lm_logp=lm_logp, ta_logp=ta)


def by_columns(prefix_keyed):
    """A search's prefix-keyed dict (``ta``, ``hyps``) keyed by column tuples."""
    return {pre.as_tuple(): v for pre, v in prefix_keyed.items()}


def ta_schedules(search, kept):
    """Each TA entry's truncation schedule, the nu of every label it
    scores, keyed by column tuple.  An entry the search made since the
    last call extends its parent entry's schedule by its own nu, as it
    was scored on that entry; ``kept`` holds the entries of earlier calls
    with their schedules, as a parent entry may since have been rescored.
    Call it after every frame."""
    out = {}
    for pre in sorted(search.ta, key=lambda q: q.length):
        entry = search.ta[pre]
        if id(entry) not in kept:  # kept holds the entry, so its id is not reused
            kept[id(entry)] = entry, out[pre.parent] + (entry.nu,) if pre.length else ()
        out[pre] = kept[id(entry)][1]
    return by_columns(out)


def scored(hyps, score_fn):
    return {p: score_fn(h) for p, h in hyps.items()}


def decode_setup(seed, n=4, **params_kw):
    m = tiny_model(seed)
    rng = np.random.default_rng(seed + 500)
    enc = random_enc_states(rng, n, 8)
    post = posteriorgram_from_states(enc, m.ctc_w, m.ctc_b)
    lm = UniformLM(3)
    params = DecodeParams(**params_kw)
    return m, enc, post, lm, params


def test_prefix_score_formula():
    h = hyp((3, 4), math.log(0.2), math.log(0.1), lm_logp=-1.3)
    want = math.log(0.3) + 0.7 * -1.3 + 2.0 * 2
    assert prefix_score(h, 0.7, 2.0) == pytest.approx(want, abs=1e-12)


def test_joint_score_formula_mixed():
    p = DecodeParams(lam=0.3, alpha=0.5, beta=2.0)
    h = hyp((3,), math.log(0.2), math.log(0.1), lm_logp=-0.9, ta=-1.7)
    want = 0.3 * math.log(0.3) + 0.7 * -1.7 + 0.5 * -0.9 + 2.0
    assert joint_score(h, p) == pytest.approx(want, abs=1e-12)


def test_joint_score_pure_ctc_is_bitwise_prefix_score():
    p = DecodeParams(lam=1.0, alpha0=0.7, alpha=0.7, beta=2.0)
    h = hyp((3, 4, 3), -0.123456789, -1.23456789, lm_logp=-2.7182818, ta=-9.9)
    assert joint_score(h, p) == prefix_score(h, p.alpha0, p.beta)


def test_joint_score_pure_attention_drops_ctc_mass():
    p = DecodeParams(lam=0.0, alpha=0.0, beta=0.0)
    h = hyp((3,), -0.5, -0.7, ta=-1.25)
    assert joint_score(h, p) == -1.25


def test_joint_score_falls_back_to_parent_then_errors():
    p = DecodeParams()
    h = hyp((3,), -0.5, -0.7, ta=None)
    assert joint_score(h, p, fallback_ta=-2.0) == joint_score(
        hyp((3,), -0.5, -0.7, ta=-2.0), p)
    with pytest.raises(ValueError, match="no triggered-attention score"):
        joint_score(h, p)


def test_prune_width_drops_distant_tail():
    hyps = {(3,): hyp((3,), 0.0, NEG_INF),
            (4,): hyp((4,), -5.0, NEG_INF),
            (3, 4): hyp((3, 4), -20.0, NEG_INF)}
    kept = prune(hyps, scored(hyps, lambda h: log_add(h.p_b, h.p_nb)), size=10, width=16.0)
    assert set(kept) == {(3,), (4,)}


def test_prune_size_keeps_best():
    hyps = {(c,): hyp((c,), -float(c), NEG_INF) for c in (3, 4, 5, 6)}
    kept = prune(hyps, scored(hyps, lambda h: h.p_b), size=2, width=100.0)
    assert set(kept) == {(3,), (4,)}


def test_prune_tie_breaks_toward_shorter_then_lexicographic():
    hyps = {(4,): hyp((4,), -1.0, NEG_INF),
            (3,): hyp((3,), -1.0, NEG_INF),
            (): hyp((), -1.0, NEG_INF)}
    kept = prune(hyps, scored(hyps, lambda h: h.p_b), size=2, width=50.0)
    assert set(kept) == {(), (3,)}


def test_prune_keeps_all_neg_inf_rather_than_emptying():
    hyps = {(3,): hyp((3,), NEG_INF, NEG_INF)}
    kept = prune(hyps, scored(hyps, lambda h: log_add(h.p_b, h.p_nb)), size=4, width=6.0)
    assert set(kept) == {(3,)}


def test_prune_with_infinite_width_is_size_only():
    hyps = {(c,): hyp((c,), -float(c), NEG_INF) for c in (3, 4, 5)}
    assert set(prune(hyps, scored(hyps, lambda h: h.p_b), 2, math.inf)) == {(3,), (4,)}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_prune_and_the_rank_routine_equal_the_sorted_key_form(data):
    """prune and the search's rank routine against the sort by key and the
    width cut they replaced: scores tie exactly, some are -inf, and the
    width may be infinite.  The routine orders interned nodes as it orders
    their column tuples."""
    keys = data.draw(st.lists(st.lists(st.integers(1, 3), max_size=3).map(tuple),
                              min_size=1, max_size=12, unique=True))
    values = st.sampled_from([NEG_INF, -4.0, -2.5, -1.0, -0.5, 0.0])
    scores = {k: data.draw(values) for k in keys}
    size = data.draw(st.integers(1, len(keys) + 2))
    width = data.draw(st.sampled_from([0.0, 0.5, 1.5, 3.0, math.inf]))
    hyps = {k: object() for k in keys}
    want = within(sorted(keys, key=rank_key(scores)), scores, size, width)
    assert list(prune(hyps, scores, size, width).items()) == \
        list(sorted_key_prune(hyps, scores, size, width).items())
    assert list(prune(hyps, scores, size, width)) == want
    assert list(prune(hyps, scores, size, math.inf)) == list(top_hypotheses(hyps, scores, size))
    assert [r[2] for r in _rank([(-scores[k], len(k), k) for k in keys], size, width)] == want
    table = PrefixTable(UniformLM(3), 4)
    nodes = {}
    for k in keys:
        pre = table.root
        for c in k:
            pre = table.child(pre, c)
        nodes[k] = pre
    ranked = _rank([(-scores[k], len(k), nodes[k]) for k in keys], size, width)
    assert [r[2].as_tuple() for r in ranked] == want


@pytest.mark.parametrize("joint", [True, False])
def test_the_search_ranks_its_p_joint_beams_through_prune(monkeypatch, joint):
    # a joint frame ranks its carried top P and its best by p_joint, and
    # finalize its best, each through the module's prune, which the
    # benchmark's tracer counts; a CTC-only frame ranks by phat alone, so
    # only finalize calls it
    n = 6
    m, enc, post, lm, params = decode_setup(39, n=n, k_size=8, p_size=3)
    want = (decode(enc, post, lm, m.decoder, params) if joint
            else ctc_prefix_search(post, lm, params, banned_ids=m.decoder.reserved_ids))
    from streamasr import search as search_mod
    calls, real = [], search_mod.prune

    def counting(hyps, scores, size, width):
        calls.append(size)
        return real(hyps, scores, size, width)

    monkeypatch.setattr(search_mod, "prune", counting)
    got = (decode(enc, post, lm, m.decoder, params) if joint
           else ctc_prefix_search(post, lm, params, banned_ids=m.decoder.reserved_ids))
    assert calls == ([params.p_size, 1] * n if joint else []) + [1]
    assert (got.labels, got.score, got.trace) == (want.labels, want.score, want.trace)


def test_decode_params_validation():
    with pytest.raises(ValueError, match="lam must be in"):
        DecodeParams(lam=1.5)
    with pytest.raises(ValueError, match="k_size >= p_size"):
        DecodeParams(k_size=2, p_size=5)
    with pytest.raises(ValueError, match="beam widths"):
        DecodeParams(theta1=0.0)
    with pytest.raises(ValueError, match="eps_dec"):
        DecodeParams(eps_dec=-1)


@pytest.mark.parametrize("field, bad", [
    ("k_size", 16.0), ("p_size", 8.5), ("eps_dec", 1.5), ("eps_dec", True),
    ("alpha0", math.nan), ("alpha", math.nan), ("beta", math.inf),
    ("theta1", math.nan), ("theta2", math.inf),
    ("local_threshold", 2.0), ("local_threshold", 1.0), ("local_threshold", -1e-9),
    ("local_threshold", math.nan),
])
def test_decode_params_reject_values_the_search_cannot_use(field, bad):
    # each of these used to pass validation and then crash deep in the
    # search or decode to garbage (nan scores, empty labels, no pruning)
    with pytest.raises(ValueError, match=field):
        DecodeParams(**{field: bad})


@pytest.mark.parametrize("field, bad", [
    ("lam", "0.5"), ("lam", None), ("lam", True),
    ("alpha0", "0.7"), ("alpha0", False), ("alpha", True), ("alpha", None),
    ("beta", "2"), ("beta", True), ("theta1", None), ("theta1", True),
    ("theta2", "6"), ("theta2", False), ("local_threshold", "1e-4"),
    ("local_threshold", None), ("local_threshold", False),
    ("dcond", 3), ("dcond", "never"), ("acond", 3), ("acond", True),
])
def test_decode_params_reject_values_of_the_wrong_type(field, bad):
    # a string or None used to raise TypeError from a comparison, a bool
    # weight passed as a number, and a non-callable hook failed mid-search
    with pytest.raises(ValueError, match=field):
        DecodeParams(**{field: bad})


def test_decode_params_accept_numpy_reals_and_callable_hooks():
    p = DecodeParams(lam=np.float64(0.25), alpha=np.float32(0.5), beta=3,
                     theta1=np.int64(8), dcond=lambda *a: False, acond=print)
    assert p.lam == 0.25 and p.theta1 == 8


def test_decode_params_accept_integer_likes_and_threshold_bounds():
    p = DecodeParams(k_size=np.int64(16), p_size=np.int32(8), eps_dec=np.int64(0),
                     local_threshold=0.0)
    assert (p.k_size, p.p_size, p.eps_dec) == (16, 8, 0)
    DecodeParams(local_threshold=0.999)


@pytest.mark.parametrize("bad", [[NEG_INF, 0.0, NEG_INF, NEG_INF], [NEG_INF] * 4])
def test_frame_with_no_reachable_prefix_is_refused_before_any_state_changes(bad):
    # blank at zero probability and no label the search may extend: the
    # only finite label is banned, or no column is finite
    search = CtcPrefixSearch(UniformLM(3), DecodeParams(k_size=4, p_size=2), 4, banned_ids=(0,))
    with pytest.raises(ValueError, match="frame 1: no prefix"):
        search.advance(bad)
    assert search.frame == 0 and search.trace == [] and by_columns(search.hyps) == {
        (): hyp(search.prefixes.root, 0.0, NEG_INF)}
    search.advance([-0.5, -2.0, -1.5, -2.5])
    hyps, trace = by_columns(search.hyps), list(search.trace)
    with pytest.raises(ValueError, match="frame 2: no prefix"):
        search.advance(bad)
    assert search.frame == 1 and search.trace == trace and by_columns(search.hyps) == hyps
    search.advance([-0.5, -2.0, -1.5, -2.5])
    assert search.frame == 2 and search.finalize().trace[:1] == trace


def test_numpy_real_params_decode_as_the_python_floats_they_hold():
    logp = logprob_rows(np.random.default_rng(127), 6, 4)
    got = ctc_prefix_search(logp, UniformLM(3), DecodeParams(
        alpha0=np.float32(0.7), beta=np.float64(1.5), theta1=np.int64(8), k_size=np.int64(40)))
    want = ctc_prefix_search(logp, UniformLM(3), DecodeParams(
        alpha0=float(np.float32(0.7)), beta=1.5, theta1=8.0, k_size=40))
    assert got.trace == want.trace and got.score == want.score
    assert type(got.score) is float and not any("np." in line for line in got.trace)


def test_blank_peaked_single_frame_decodes_empty():
    m, enc, post, lm, params = decode_setup(100, n=1)
    c = post.shape[1]
    row = np.full(c, math.log(1e-7 / (c - 1)))
    row[0] = math.log1p(-1e-7)
    peaked = row[None, :]
    out = decode(enc, peaked, lm, m.decoder, params)
    assert out.labels == ()


def test_decode_rejects_empty_and_mismatched_inputs():
    m, enc, post, lm, params = decode_setup(101)
    with pytest.raises(ValueError, match="empty utterance"):
        decode(enc, np.zeros((0, 6)), lm, m.decoder, params)
    with pytest.raises(ValueError, match="posterior rows but"):
        decode(enc[:2], post, lm, m.decoder, params)


@pytest.mark.parametrize("n_cols", [10, 4])
def test_joint_search_rejects_posteriorgram_of_wrong_width(n_cols):
    # the 5-label decoder needs 6 columns: 10 used to fail with an
    # IndexError in the decoder, 4 decoded a truncated label set
    m, enc, _, lm, params = decode_setup(125)
    post = logprob_rows(np.random.default_rng(126), 4, n_cols)
    want = f"posteriorgram has {n_cols} columns, but the decoder's 5 labels need 6"
    with pytest.raises(ValueError, match=want):
        decode(enc, post, lm, m.decoder, params)
    with pytest.raises(ValueError, match=want):
        JointSearch(m.decoder, lm, params, n_cols)


def test_trace_lines_are_well_formed_and_frame_synchronous():
    m, enc, post, lm, params = decode_setup(102, n=4)
    out = decode(enc, post, lm, m.decoder, params)
    assert len(out.trace) == 4
    for i, line in enumerate(out.trace, start=1):
        match = TRACE_RE.match(line)
        assert match, line
        assert int(match.group(1)) == i
        assert int(match.group(2)) >= 1
        float(match.group(4))
        float(match.group(5))


def test_search_never_reads_future_posterior_rows():
    # two utterances sharing their first rows produce identical leading
    # trace lines: frame n depends only on rows 1..n
    m, enc, post, lm, params = decode_setup(103, n=5)
    other = post.copy()
    other[3:] = np.roll(other[3:], 1, axis=1)
    a = decode(enc, post, lm, m.decoder, params)
    b = decode(enc, other, lm, m.decoder, params)
    assert a.trace[:3] == b.trace[:3]


def test_lookahead_beyond_length_saturates():
    m, enc, post, lm, _ = decode_setup(104, n=4)
    a = decode(enc, post, lm, m.decoder, DecodeParams(eps_dec=3))
    b = decode(enc, post, lm, m.decoder, DecodeParams(eps_dec=4000))
    assert a.labels == b.labels
    assert a.score == b.score
    assert a.trace == b.trace


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pure_ctc_reduction_is_bitwise(data):
    """At lam 1 the joint search, the pure CTC search and a ctc_only
    streaming session decode the same bits: the search without a decoder
    is the joint search with its TA stage off."""
    seed = data.draw(st.integers(0, 2**16))
    m = tiny_model(seed)
    rng = np.random.default_rng(seed)
    frames = rng.standard_normal((data.draw(st.integers(1, 80)), 4)).astype(np.float32)
    lm = bigram(rng, 5, quantized=False) if data.draw(st.booleans()) else UniformLM(3)
    k = data.draw(st.integers(1, 40))
    params = DecodeParams(lam=1.0, alpha0=0.7, alpha=0.7, k_size=k,
                          p_size=data.draw(st.integers(1, k)),
                          theta2=data.draw(st.sampled_from([0.5, 6.0])), eps_dec=1)
    enc = encode(frames, m.encoder, 1)
    post = posteriorgram_from_states(enc, m.ctc_w, m.ctc_b)
    joint = decode(enc, post, lm, m.decoder, params)
    banned = (m.decoder.sos_id, m.decoder.eos_id)
    pure = ctc_prefix_search(post, lm, params, banned_ids=banned)
    session = StreamingSession(m, lm, params, StreamConfig(eps_enc=1, eps_dec=1), ctc_only=True)
    chunk = data.draw(st.integers(1, 9))
    for start in range(0, frames.shape[0], chunk):
        session.push(frames[start:start + chunk])
    streamed = session.finalize()
    for out in (pure, streamed):
        assert out.labels == joint.labels
        assert out.score == joint.score
        assert out.trace == joint.trace


def last_line_result(trace):
    """What finalize returns without the ``<eos>`` pass: the last trace
    line's best labels and its p_joint, which ``repr`` prints exactly."""
    match = TRACE_RE.match(trace[-1])
    ids = match.group(3)
    return (tuple(int(i) for i in ids.split(",")) if ids else ()), float(match.group(5))


def test_eos_rescoring_changes_finalize_only():
    m, enc, post, lm, _ = decode_setup(106, n=4)
    out = decode(enc, post, lm, m.decoder, DecodeParams(lam=0.4))
    # the pass runs after the last frame, so it rescores what the trace shows
    assert out.score != last_line_result(out.trace)[1]


def test_no_eos_model_skips_final_rescoring():
    m = tiny_model(107, with_eos=False)
    rng = np.random.default_rng(607)
    enc = random_enc_states(rng, 3, 8)
    post = posteriorgram_from_states(enc, m.ctc_w, m.ctc_b)
    out = decode(enc, post, UniformLM(4), m.decoder, DecodeParams())
    assert (out.labels, out.score) == last_line_result(out.trace)


def test_banned_reserved_labels_never_decoded():
    m, enc, post, lm, params = decode_setup(108, n=6)
    out = decode(enc, post, lm, m.decoder, params)
    assert m.decoder.sos_id not in out.labels
    assert m.decoder.eos_id not in out.labels
    for line in out.trace:
        ids = TRACE_RE.match(line).group(3)
        if ids:
            assert "0" not in ids.split(",") and "1" not in ids.split(",")


def test_delete_hook_forces_rescoring_at_later_frame():
    m, enc, post, lm, _ = decode_setup(109, n=3)
    target = {}

    def dcond(pre, omega, frame, row):
        return frame == 2 and len(pre) == 1

    params = DecodeParams(eps_dec=0, dcond=dcond, k_size=8, p_size=8,
                          theta1=1e6, theta2=1e6, local_threshold=0.0)
    search = JointSearch(m.decoder, lm, params, post.shape[1])
    search.add_rows(enc)
    search.advance(post[0])
    for pre, entry in by_columns(search.ta).items():
        if len(pre) == 1:
            target[pre] = entry.nu
    assert target and all(nu == 1 for nu in target.values())
    search.advance(post[1])
    ta = by_columns(search.ta)
    for pre in target:
        if pre in ta:
            assert ta[pre].nu == 2


def test_skip_hook_falls_back_to_parent_score():
    m, enc, post, lm, _ = decode_setup(110, n=1)
    params = DecodeParams(lam=0.5, acond=lambda pre, omega, frame, row: False,
                          k_size=8, p_size=8, theta1=1e6, theta2=1e6,
                          local_threshold=0.0)
    search = JointSearch(m.decoder, lm, params, post.shape[1])
    search.add_rows(enc)
    search.advance(post[0])
    # nothing new was scored: only the root entry remains
    assert set(by_columns(search.ta)) == {()}
    for pre, val in search._last_pjoint.items():
        h = search.hyps.get(pre)
        if h is None or not pre:
            continue
        # fused score used the root's 0.0 attention mass as fallback
        want = joint_score(Hypothesis(pre, h.p_b, h.p_nb, h.lm_logp, None),
                           params, fallback_ta=0.0)
        assert val == pytest.approx(want, abs=1e-12)


HOOK_ANSWERS = {"dcond": lambda pre, *_: len(pre) % 2 == 1,
                "acond": lambda pre, *_: len(pre) != 2}


def ta_snapshot(search):
    return [(pre, e.logp, e.nu) for pre, e in search.ta.items()]


@pytest.mark.parametrize("call", [1, 3])
@pytest.mark.parametrize("hook", ["dcond", "acond"])
def test_search_retried_after_a_raising_hook_equals_one_that_never_raises(hook, call):
    # the hook raises part way through frame 5's calls (dcond after it has
    # already asked to delete scores); the frame is then advanced again
    m, enc, post, lm, _ = decode_setup(115, n=20)
    kw = dict(k_size=8, p_size=4, eps_dec=1, local_threshold=0.0)
    want = decode(enc, post, lm, m.decoder, DecodeParams(**kw, **{hook: HOOK_ANSWERS[hook]}))
    flaky = RaiseOnce(HOOK_ANSWERS[hook], at=5, call=call)
    search = JointSearch(m.decoder, lm, DecodeParams(**kw, **{hook: flaky}), post.shape[1])
    search.add_rows(enc)
    for row in post:
        before = (search.frame, dict(search.hyps), list(search.trace), ta_snapshot(search))
        try:
            search.advance(row)
        except HookFailed:
            assert (search.frame, search.hyps, search.trace, ta_snapshot(search)) == before
            search.advance(row)
    assert flaky.raised
    got = search.finalize()
    assert got.trace == want.trace
    assert got.labels == want.labels and got.score == want.score


def spelled(node):
    """A prefix node's label ids, rebuilt from its columns."""
    return tuple(c - 1 for c in node.as_tuple())


def best_move(old, new):
    """How the best prefix moved between two frames, by column tuples."""
    a, b = old.as_tuple(), new.as_tuple()
    if a == b:
        return "same"
    if b[:len(a)] == a:
        return "extension"
    if a[:len(b)] == b:
        return "ancestor"
    if a[:-1] == b[:-1]:
        return "sibling"
    return "unrelated"


def advance_checking_kept_labels(search, rows):
    """Advance ``search`` over ``rows``, checking after every frame that
    the kept trace text and partial equal a full rebuild, and that a frame
    a hook fails leaves both as they were before it is advanced again.
    Returns how the trace's best prefix moved on each frame."""
    moves = []
    for row in rows:
        prev = search._trace_best[0]
        before = (search._trace_best, search._partial, search.best_ctc_partial)
        try:
            search.advance(row)
        except HookFailed:
            assert (search._trace_best, search._partial, search.best_ctc_partial) == before
            search.advance(row)
        node, text = search._trace_best
        best = next(iter(prune(search._last_carried, search._last_pjoint, 1, math.inf)))
        assert node is best and text == ",".join(str(i) for i in spelled(best))
        assert TRACE_RE.match(search.trace[-1]).group(3) == (text or None)
        assert search.best_ctc_partial == spelled(search.best_ctc_prefix)
        assert search.best_ctc_prefix is next(iter(search._last_carried))
        moves.append(best_move(prev, best))
    return moves


def kept_labels_case(seed, joint, n, scale, beta, retry_at):
    """A small search and its posterior rows: peaky ones at a large
    ``scale``, with few prefixes carried, so the best prefix moves often
    (back to an ancestor too, when an insertion penalty ``beta`` < 0
    outweighs a longer prefix's equal mass); the joint search's dcond
    raises once at frame ``retry_at``."""
    m = tiny_model(seed % 7, vocab_size=4)
    rng = np.random.default_rng(seed)
    post = logprob_rows(rng, n, 5) * scale
    post -= np.log(np.exp(post).sum(axis=1, keepdims=True))
    kw = dict(k_size=6, p_size=3, theta1=30.0, theta2=30.0, beta=beta, local_threshold=0.0)
    if joint:
        hook = RaiseOnce(lambda *_: False, at=retry_at)
        search = JointSearch(m.decoder, UniformLM(2), DecodeParams(**kw, dcond=hook, eps_dec=1),
                             5)
        search.add_rows(random_enc_states(rng, n, 8))
    else:
        search = CtcPrefixSearch(bigram(rng, 4, False), DecodeParams(**kw), 5, (0,))
    return search, post


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), joint=st.booleans(), n=st.integers(1, 16),
       scale=st.sampled_from([1.0, 3.0, 8.0]), beta=st.sampled_from([0.5, -1.5]),
       retry_at=st.integers(1, 16))
def test_kept_trace_text_and_partial_equal_a_full_rebuild(seed, joint, n, scale, beta, retry_at):
    search, post = kept_labels_case(seed, joint, n, scale, beta, retry_at)
    for move in advance_checking_kept_labels(search, post):
        event(move)
    assert search.finalize().trace == search.trace


def test_kept_labels_cases_cover_every_move_of_the_best_prefix():
    # the sweep above draws these; here a fixed set of cases shows that the
    # best moves to a sibling, an ancestor and an unrelated prefix in both
    # searches, and that the joint search's hook fails at least once
    for joint in (False, True):
        seen, retried = set(), False
        for seed, beta in itertools.product(range(6), (0.5, -1.5)):
            search, post = kept_labels_case(seed, joint, 16, 3.0, beta, 3)
            seen.update(advance_checking_kept_labels(search, post))
            retried |= joint and search.params.dcond.raised
        assert {"extension", "sibling", "ancestor", "unrelated"} <= seen, (joint, seen)
        assert retried or not joint


def test_best_ctc_partial_tracks_prefix_ranking():
    m, enc, post, lm, params = decode_setup(111, n=3)
    search = JointSearch(m.decoder, lm, params, post.shape[1])
    search.add_rows(enc)
    assert search.best_ctc_partial == ()
    search.advance(post[0])
    best = search.best_ctc_partial
    assert all(0 <= lab < m.decoder.vocab_size - 1 for lab in best) or best == ()


def test_finalize_before_any_frame_is_empty():
    m, enc, post, lm, params = decode_setup(112)
    search = JointSearch(m.decoder, lm, params, post.shape[1])
    search.add_rows(enc)
    out = search.finalize()
    assert out.labels == () and out.score == 0.0 and out.trace == []


def test_ta_cache_holds_only_ancestors_of_live_prefixes():
    m, enc, post, lm, params = decode_setup(113, n=5)
    search = JointSearch(m.decoder, lm, params, post.shape[1])
    search.add_rows(enc)
    for i in range(5):
        search.advance(post[i])
        live = set()
        for pre in by_columns(search.hyps):
            for j in range(len(pre) + 1):
                live.add(pre[:j])
        assert set(by_columns(search.ta)) <= live


def test_loss_params_validation():
    LossParams(0.0)
    LossParams(1.0)
    with pytest.raises(ValueError, match="gamma must be in"):
        LossParams(1.5)


def loss_setup(seed):
    m = tiny_model(seed)
    rng = np.random.default_rng(seed + 1)
    enc = random_enc_states(rng, 6, 8)
    post = posteriorgram_from_states(enc, m.ctc_w, m.ctc_b)
    y = (2, 3)
    align = ctc_viterbi_align(post, [lab + 1 for lab in y], eps_dec=2)
    return m, enc, post, y, align


@pytest.mark.parametrize("bad", [2.5, np.float64(3.0), True, None])
def test_joint_loss_rejects_truncation_points_that_are_not_integers(bad):
    m, enc, post, y, align = loss_setup(131)
    align = replace(align, nu=(align.nu[0], bad))
    with pytest.raises(ValueError, match="is not an integer"):
        joint_loss(post, enc, y, align, m.decoder, LossParams(0.3))


def test_joint_loss_limits_are_exact():
    m, enc, post, y, align = loss_setup(114)
    ctc_nll = -ctc_forward_logprob(post, [lab + 1 for lab in y])
    ta_nll = -ta_prefix_score(enc, y, align.nu, m.decoder)
    assert joint_loss(post, enc, y, align, m.decoder, LossParams(1.0)) == pytest.approx(
        ctc_nll, abs=1e-12)
    assert joint_loss(post, enc, y, align, m.decoder, LossParams(0.0)) == pytest.approx(
        ta_nll, abs=1e-12)
    mixed = joint_loss(post, enc, y, align, m.decoder, LossParams(0.3))
    assert mixed == pytest.approx(0.3 * ctc_nll + 0.7 * ta_nll, abs=1e-10)


def test_joint_loss_unreachable_reference_is_infinite():
    m, enc, post, y, align = loss_setup(115)
    short = post[:1]
    short_enc = enc[:1]
    bad_align = ctc_viterbi_align(post, [lab + 1 for lab in y], eps_dec=0)
    assert joint_loss(short, short_enc, y, bad_align, m.decoder, LossParams(0.5)) == math.inf


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("y", [[-1], [5]])
def test_joint_loss_rejects_label_ids_outside_the_vocabulary(gamma, y):
    # at gamma 0 only the decoder term runs: -1 used to score id 4 there
    m, enc, post, _, _ = loss_setup(117)
    align = ctc_viterbi_align(post, [3], eps_dec=2)
    with pytest.raises(ValueError, match="outside"):
        joint_loss(post, enc, y, align, m.decoder, LossParams(gamma))


def test_offline_entries_take_the_arrays_encode_and_the_ctc_head_return():
    """encode's matrix and the CTC head's posteriorgram go straight into
    every offline entry; decode equals a one-chunk streaming session, and
    a posteriorgram that is not 2-D raises ValueError."""
    m = tiny_model(140)
    frames = np.random.default_rng(141).standard_normal((40, 4)).astype(np.float32)
    lm = UniformLM(3)
    params = DecodeParams(k_size=8, p_size=4, eps_dec=2)
    enc = encode(frames, m.encoder, 1)
    post = posteriorgram_from_states(enc, m.ctc_w, m.ctc_b)
    assert type(enc) is np.ndarray and enc.dtype == np.float32 and enc.shape == (10, 8)
    assert type(post) is np.ndarray and post.dtype == np.float64 and post.shape == (10, 6)

    joint = decode(enc, post, lm, m.decoder, params)
    session = StreamingSession(m, lm, params, StreamConfig(eps_enc=1, eps_dec=2))
    session.push(frames)
    streamed = session.finalize()
    assert len(joint.trace) == 10
    assert joint.labels == streamed.labels and joint.trace == streamed.trace
    pure = ctc_prefix_search(post, lm, params, banned_ids=m.decoder.reserved_ids)
    assert len(pure.trace) == 10

    y = (2, 3)
    cols = [label + 1 for label in y]
    align = ctc_viterbi_align(post, cols, eps_dec=2)
    assert align.nu == tuple(f + 2 for f in align.first_occurrence)
    ctc_nll = -ctc_forward_logprob(post, cols)
    ta_nll = -ta_prefix_score(enc, y, align.nu, m.decoder)
    assert math.isfinite(ctc_nll) and math.isfinite(ta_nll)
    assert joint_loss(post, enc, y, align, m.decoder, LossParams(0.3)) == pytest.approx(
        0.3 * ctc_nll + 0.7 * ta_nll, abs=1e-10)

    row = post[0]
    for call in (lambda: decode(enc, row, lm, m.decoder, params),
                 lambda: ctc_prefix_search(row, lm, params),
                 lambda: ctc_forward_logprob(row, cols),
                 lambda: ctc_viterbi_align(row, cols, 2)):
        with pytest.raises(ValueError, match="posteriorgram must be 2-D"):
            call()


def test_decode_projects_each_encoder_row_once_per_layer_and_head(monkeypatch):
    from streamasr import attention

    m = tiny_model(116, d_layers=2)
    rng = np.random.default_rng(616)
    enc = random_enc_states(rng, 7, 8)
    post = posteriorgram_from_states(enc, m.ctc_w, m.ctc_b)
    params = DecodeParams(k_size=8, p_size=4, eps_dec=1)
    weights = {}
    for d, layer in enumerate(m.decoder.layers):
        for kind, w in (("k", layer.src_mha.w_k), ("v", layer.src_mha.w_v)):
            weights[w.__array_interface__["data"][0]] = [(d, kind, h) for h in range(w.shape[0])]
    rows = {key: 0 for keys in weights.values() for key in keys}
    project_heads = attention.project_heads

    def counting(x, w):
        # one call projects the rows through every head of w
        for key in weights.get(np.asarray(w).__array_interface__["data"][0], ()):
            rows[key] += np.shape(x)[0]
        return project_heads(x, w)

    monkeypatch.setattr(attention, "project_heads", counting)
    decode(enc, post, UniformLM(3), m.decoder, params)
    assert rows == dict.fromkeys(rows, 7)


def test_declined_ancestor_is_scored_before_its_child():
    # acond declines every one-label prefix; scoring a two-label child must
    # first score its parent at the same truncation instead of crashing
    m, enc, post, lm, _ = decode_setup(117, n=5)
    params = DecodeParams(acond=lambda pre, *_: len(pre) != 1, eps_dec=1, k_size=8,
                          p_size=8, theta1=1e6, theta2=1e6, local_threshold=0.0)
    search = JointSearch(m.decoder, lm, params, post.shape[1])
    search.add_rows(enc)
    seen_child, kept = False, {}
    for i in range(5):
        search.advance(post[i])
        ta, nus = by_columns(search.ta), ta_schedules(search, kept)
        for pre, entry in ta.items():
            if len(pre) >= 2:
                seen_child = True
                assert nus[pre][:-1] == nus[pre[:-1]]
                assert ta[pre[:-1]].nu <= entry.nu
            labels = [c - 1 for c in pre]
            assert entry.logp == ta_prefix_score(enc, labels, nus[pre], m.decoder)
    assert seen_child
    out = search.finalize()
    assert out.trace == search.trace


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_joint_search_rejects_non_finite_encoder_rows(bad):
    # one NaN entry used to decode to a nan score with p_joint=nan trace
    # lines; now the rows are refused and none is added
    m, enc, post, lm, params = decode_setup(119, n=6)
    search = JointSearch(m.decoder, lm, params, post.shape[1])
    poisoned = enc.copy()
    poisoned[3, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        search.add_rows(poisoned)
    assert search.cross.rows == 0
    search.add_rows(enc)
    for row in post:
        search.advance(row)
    got = search.finalize()
    want = decode(enc, post, lm, m.decoder, params)
    assert got.labels == want.labels and got.trace == want.trace


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_decode_rejects_non_finite_input(bad):
    m, enc, post, lm, params = decode_setup(118)
    states = enc.copy()
    states[2, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        decode(states, post, lm, m.decoder, params)
    logp = post.copy()
    logp[1, 2] = bad
    with pytest.raises(ValueError, match="NaN or \\+inf"):
        decode(enc, logp, lm, m.decoder, params)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_ctc_prefix_search_rejects_non_finite_input(bad):
    logp = logprob_rows(np.random.default_rng(119), 6, 5)
    logp[2, 3] = bad
    with pytest.raises(ValueError, match="NaN or \\+inf"):
        ctc_prefix_search(logp, UniformLM(3), DecodeParams())


@pytest.mark.parametrize("kind", ["joint", "ctc"])
def test_advance_rejects_row_of_wrong_width(kind):
    m, enc, post, lm, params = decode_setup(119)
    n_cols = post.shape[1]
    if kind == "joint":
        search = JointSearch(m.decoder, lm, params, n_cols)
    else:
        search = CtcPrefixSearch(lm, params, n_cols)
    search.add_rows(enc)
    wide = logprob_rows(np.random.default_rng(120), 1, n_cols + 2)[0]
    with pytest.raises(ValueError, match="posterior row shape"):
        search.advance(wide)
    assert search.frame == 0
    search.advance(post[0])
    assert search.frame == 1


def test_joint_search_needs_encoder_rows():
    # a frame reads its own encoder row, which must have been added first;
    # a refused frame leaves the search as it was
    m, enc, post, lm, params = decode_setup(127)
    search = JointSearch(m.decoder, lm, params, post.shape[1])
    with pytest.raises(ValueError, match="frame 1 needs its encoder row, but 0 were added"):
        search.advance(post[0])
    assert search.frame == 0 and search.trace == []
    search.add_rows(enc[:1])
    search.advance(post[0])
    hyps, trace = dict(search.hyps), list(search.trace)
    with pytest.raises(ValueError, match="frame 2 needs its encoder row, but 1 were added"):
        search.advance(post[1])
    assert search.frame == 1
    assert search.hyps == hyps and search.trace == trace
    search.add_rows(enc[1:])
    for i in range(1, post.shape[0]):
        search.advance(post[i])
    assert search.finalize().trace == search.trace


@pytest.mark.parametrize("bad", ["1-D", "wrong width"])
def test_add_rows_rejects_a_matrix_of_the_wrong_shape(bad):
    m, enc, post, lm, params = decode_setup(128)
    search = JointSearch(m.decoder, lm, params, post.shape[1])
    rows = enc[0] if bad == "1-D" else np.pad(enc, ((0, 0), (0, 1)))
    with pytest.raises(ValueError, match="encoder rows of shape"):
        search.add_rows(rows)
    assert search.cross.rows == 0
    # the pure CTC search reads no encoder rows and ignores them
    CtcPrefixSearch(lm, params, post.shape[1]).add_rows(rows)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("kind", ["joint", "ctc"])
def test_advance_rejects_non_finite_row(kind, bad):
    m, enc, post, lm, params = decode_setup(124)
    n_cols = post.shape[1]
    if kind == "joint":
        search = JointSearch(m.decoder, lm, params, n_cols)
    else:
        search = CtcPrefixSearch(lm, params, n_cols)
    search.add_rows(enc)
    search.advance(post[0])
    hyps, trace = dict(search.hyps), list(search.trace)
    row = post[1].copy()
    row[2] = bad
    with pytest.raises(ValueError, match="NaN or \\+inf"):
        search.advance(row)
    assert search.frame == 1
    assert search.hyps == hyps and search.trace == trace
    search.advance(post[1])
    assert search.frame == 2


def counted_steps(monkeypatch):
    """Record one (parent history, token, position, nu) key per row of
    every batched decoder step."""
    from streamasr import decoder

    calls = []
    step = decoder.advance_positions

    def counting(cache, states, nu):
        calls.extend((s.hist, s.token, s.hist.shape[3], nu) for s in states)
        return step(cache, states, nu)

    monkeypatch.setattr(decoder, "advance_positions", counting)
    return calls


def distinct_steps(calls):
    # a parent is its history object plus the token it feeds; the history
    # objects stay referenced by ``calls``, so their ids are not reused
    return {(id(h), tok, pos, nu) for h, tok, pos, nu in calls}


@pytest.mark.parametrize("seed", [121, 122, 123])
def test_decode_runs_one_decoder_step_per_parent_and_truncation(monkeypatch, seed):
    from streamasr import search as search_mod

    calls = counted_steps(monkeypatch)
    entries = []
    ta_entry = search_mod._TaEntry

    def counting_entry(*args):
        entries.append(args)
        return ta_entry(*args)

    monkeypatch.setattr(search_mod, "_TaEntry", counting_entry)
    m, enc, post, lm, _ = decode_setup(seed, n=6)
    params = DecodeParams(eps_dec=2, k_size=8, p_size=8, theta1=1e6, theta2=1e6)
    decode(enc, post, lm, m.decoder, params)
    assert calls
    assert len(calls) == len(distinct_steps(calls))
    # siblings share their parent's step: fewer steps than scored prefixes
    assert len(calls) < len(entries)


@pytest.mark.parametrize("eps_dec", [2, 4])
def test_no_decoder_call_is_made_without_rows(monkeypatch, eps_dec):
    # seed 124 over 10 encoder rows reaches a round in which every parent
    # already has its step at the truncation: that round calls nothing
    from streamasr import decoder

    sizes = []
    step = decoder.advance_positions

    def counting(cache, states, nu):
        sizes.append(len(states))
        return step(cache, states, nu)

    monkeypatch.setattr(decoder, "advance_positions", counting)
    m, enc, post, lm, _ = decode_setup(124, n=10)
    decode(enc, post, lm, m.decoder, DecodeParams(eps_dec=eps_dec, k_size=8, p_size=8,
                                                  theta1=1e6, theta2=1e6))
    assert len(sizes) == 10 and min(sizes) > 0


@pytest.mark.parametrize("seed", [121, 122, 123])
def test_layer0_self_attention_runs_once_per_distinct_prefix_stepped(monkeypatch, seed):
    # a TA entry keeps its next position's stem, so stepping the prefix
    # again at a later truncation skips layer 0's self-attention
    from streamasr import decoder

    calls = counted_steps(monkeypatch)
    layer0_rows = []
    attend_own = decoder._attend_own_histories

    def counting(q, hists, d):
        if d == 0:
            layer0_rows.extend(hists)
        return attend_own(q, hists, d)

    monkeypatch.setattr(decoder, "_attend_own_histories", counting)
    m, enc, post, lm, _ = decode_setup(seed, n=6)
    params = DecodeParams(eps_dec=2, k_size=8, p_size=8, theta1=1e6, theta2=1e6)
    decode(enc, post, lm, m.decoder, params)
    # a prefix stepped is its history object, the token it feeds and its position
    prefixes = {(id(h), tok, pos) for h, tok, pos, _ in calls}
    assert len(layer0_rows) == len(prefixes) < len(calls)


def test_finalize_reuses_steps_taken_at_the_last_truncation(monkeypatch):
    m, enc, post, lm, _ = decode_setup(124, n=6)
    params = DecodeParams(eps_dec=2, k_size=8, p_size=8, theta1=1e6, theta2=1e6)
    calls = counted_steps(monkeypatch)
    search = JointSearch(m.decoder, lm, params, post.shape[1])
    search.add_rows(enc)
    for i in range(6):
        search.advance(post[i])
    avail = enc.shape[0]
    scored = [search.ta[pre] for pre in search._last_carried if pre in search.ta]
    kept = [e for e in scored if e.step is not None and e.step[0] == avail]
    assert kept
    before = len(calls)
    assert before
    search.finalize()
    assert len(calls) - before == len(scored) - len(kept)
    assert len(calls) == len(distinct_steps(calls))


def test_rescored_entries_equal_the_truncated_decoder_score():
    # dcond deletes every TA score each frame, so each one is rebuilt from
    # its parent's step at that frame's truncation
    m, enc, post, lm, _ = decode_setup(125, n=6)
    params = DecodeParams(dcond=lambda *_: True, eps_dec=1, k_size=8, p_size=8,
                          theta1=1e6, theta2=1e6, local_threshold=0.0)
    search = JointSearch(m.decoder, lm, params, post.shape[1])
    search.add_rows(enc)
    kept = {}
    for i in range(6):
        search.advance(post[i])
        assert len(search.ta) > 1
        nus = ta_schedules(search, kept)
        for pre, entry in by_columns(search.ta).items():
            labels = [c - 1 for c in pre]
            assert entry.logp == ta_prefix_score(enc, labels, nus[pre], m.decoder)
    search.finalize()


@pytest.mark.parametrize("growing", [False, True])
def test_steps_below_the_seen_encoder_rows_are_dropped(growing):
    m, enc, post, lm, _ = decode_setup(126, n=8)
    params = DecodeParams(eps_dec=2, k_size=8, p_size=8, theta1=1e6, theta2=1e6)
    search = JointSearch(m.decoder, lm, params, post.shape[1])
    kept_any = False
    added = 0
    for i in range(8):
        target = min(i + 1 + params.eps_dec, 8) if growing else 8
        search.add_rows(enc[added:target])
        added = target
        search.advance(post[i])
        seen = search.cross.rows
        steps = [e.step for e in search.ta.values() if e.step is not None]
        assert all(nu >= seen for nu, _, _ in steps)
        kept_any = kept_any or bool(steps)
    assert kept_any


# A decoder weight that is not finite: one NaN in the output projection, or
# +inf or NaN in its bias, makes every row's logits NaN or +inf.
NON_FINITE_DECODER = [("out_w", math.nan), ("out_b", math.nan), ("out_b", math.inf)]


def poison(dec, where, bad):
    getattr(dec, where)[..., 3] = bad


@pytest.mark.parametrize("where,bad", NON_FINITE_DECODER)
def test_decoder_with_a_non_finite_weight_does_not_decode(where, bad):
    # such a model used to decode to labels with a nan score and
    # p_joint=nan trace lines
    m, enc, post, lm, params = decode_setup(133, n=6)
    poison(m.decoder, where, bad)
    with pytest.raises(ValueError, match="decoder weight is not finite"):
        decode(enc, post, lm, m.decoder, params)


@pytest.mark.parametrize("where,bad", NON_FINITE_DECODER)
def test_a_frame_refused_for_a_non_finite_decoder_weight_leaves_the_search(where, bad):
    # as for a raising hook: the frame, beam and trace stay as they were, and
    # the frame, advanced again once the weight is mended, decodes as if
    # nothing had happened
    m, enc, post, lm, params = decode_setup(134, n=6)
    want = decode(enc, post, lm, m.decoder, params)
    search = JointSearch(m.decoder, lm, params, post.shape[1])
    search.add_rows(enc)
    search.advance(post[0])
    weights = getattr(m.decoder, where)
    kept = weights.copy()
    poison(m.decoder, where, bad)
    refused = 0
    for row in post[1:]:
        frame, hyps, trace = search.frame, dict(search.hyps), list(search.trace)
        try:
            search.advance(row)
        except ValueError as exc:
            assert "decoder weight is not finite" in str(exc)
            assert search.frame == frame and search.hyps == hyps and search.trace == trace
            refused += 1
            weights[...] = kept
            search.advance(row)
            poison(m.decoder, where, bad)
    assert refused > 0
    weights[...] = kept
    got = search.finalize()
    assert got.labels == want.labels and got.trace == want.trace and got.score == want.score


def test_a_streaming_session_refuses_a_non_finite_decoder_weight():
    m = tiny_model(138)
    poison(m.decoder, "out_w", math.nan)
    frames = np.random.default_rng(138).standard_normal((32, 4)).astype(np.float32)
    params = DecodeParams(k_size=8, p_size=4, eps_dec=1)
    sess = StreamingSession(m, UniformLM(3), params, StreamConfig(eps_enc=1, eps_dec=1))
    with pytest.raises(ValueError, match="decoder weight is not finite"):
        for t in range(0, 32, 4):
            sess.push(frames[t:t + 4])
        sess.finalize()
    # every emitted row the search has not decoded is still queued
    assert sess.emitted_frames - sess.decoded_frames == len(sess._post)
    assert not sess.closed


def schema_tensors(rows, path, name, obj):
    """(attribute path, archive name) of each tensor of obj that the
    archive schema's ``rows`` list, nested blocks included."""
    for arc, fld, spec, arg in rows:
        if type(spec) is not _Block:
            yield path + fld, name + arc
        elif arg is None:
            yield from schema_tensors(spec.rows, f"{path}{fld}.", name + arc, getattr(obj, fld))
        else:
            for i, sub in enumerate(getattr(obj, fld)):
                yield from schema_tensors(spec.rows, f"{path}{fld}.{i}.", f"{name}{arc}{i}.", sub)


# Every tensor of decode_setup's model by its path in the model and its
# archive name, the CTC head's included.
NOT_FLOAT32 = list(schema_tensors(_SCHEMA, "", "", tiny_model(140)))


@pytest.mark.parametrize("dtype", [np.float64, np.float16])
@pytest.mark.parametrize("path,name", NOT_FLOAT32)
def test_tensors_that_are_not_float32_are_refused_by_name(path, name, dtype):
    # float32 is the one model dtype: every entry point that reads a
    # tensor refuses it in another dtype, naming it, before anything is
    # built, so no stacked Q/K/V weight is kept
    m, enc, post, lm, params = decode_setup(140, n=6, k_size=8, p_size=4, eps_dec=1)
    *steps, field = path.split(".")
    owner = m
    for step in steps:
        owner = owner[int(step)] if step.isdigit() else getattr(owner, step)
    setattr(owner, field, getattr(owner, field).astype(dtype))
    frames = np.random.default_rng(140).standard_normal((24, 4)).astype(np.float32)
    config = StreamConfig(eps_enc=1, eps_dec=1)
    calls = [lambda: StreamingSession(m, lm, params, config)]
    if not path.startswith("decoder"):
        calls.append(lambda: StreamingSession(m, lm, params, config, ctc_only=True))
    if path.startswith("encoder"):
        calls.append(lambda: encode(frames, m.encoder, 1))
    elif path.startswith("decoder"):
        calls += [lambda: decode(enc, post, lm, m.decoder, params),
                  lambda: CrossAttentionCache(m.decoder, enc)]
    else:
        calls.append(lambda: posteriorgram_from_states(enc, m.ctc_w, m.ctc_b))
    message = f"^{re.escape(name)} is {np.dtype(dtype)}, not float32, the model dtype$"
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
    blocks = [layer.mha for layer in m.encoder.layers]
    blocks += [mha for layer in m.decoder.layers for mha in (layer.self_mha, layer.src_mha)]
    assert not any("_qkv" in vars(mha) for mha in blocks)


def test_a_float64_encoder_matrix_decodes_as_its_float32_cast():
    # the decoder's cache casts encoder rows to float32 once, as the
    # encoder casts features, so float64 rows never meet float32 queries
    m, _, post, lm, params = decode_setup(141, n=6, k_size=8, p_size=4, eps_dec=2)
    enc = np.random.default_rng(141).standard_normal((6, 8))
    assert (enc != enc.astype(np.float32)).any()
    got = decode(enc, post, lm, m.decoder, params)
    want = decode(enc.astype(np.float32), post, lm, m.decoder, params)
    assert (got.labels, got.score, got.trace) == (want.labels, want.score, want.trace)


def test_ta_prefix_score_and_joint_loss_refuse_a_non_finite_decoder_weight():
    m, enc, post, y, align = loss_setup(139)
    poison(m.decoder, "out_b", math.nan)
    with pytest.raises(ValueError, match="decoder weight is not finite"):
        ta_prefix_score(enc, y, align.nu, m.decoder)
    with pytest.raises(ValueError, match="decoder weight is not finite"):
        joint_loss(post, enc, y, align, m.decoder, LossParams(0.3))
