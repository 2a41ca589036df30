import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamasr.ctc import (Posteriorgram, ctc_forward_logprob,
                           ctc_viterbi_align, posteriorgram_from_states)
from streamasr.decoder import ta_prefix_score
from streamasr.encoder import EncoderStates, encode
from streamasr.kernels import NEG_INF, log_add
from streamasr.lm import UniformLM
from streamasr.search import (CtcPrefixSearch, DecodeParams, Hypothesis,
                              JointSearch, LossParams, ctc_prefix_search,
                              decode, joint_loss, joint_score, prefix_score,
                              prune, top_hypotheses)
from streamasr.streaming import StreamConfig, StreamingSession
from helpers import bigram, logprob_rows, random_enc_states, tiny_model

TRACE_RE = re.compile(
    r"^frame=(\d+) beams=(\d+) best=((?:-?\d+)(?:,-?\d+)*)? ?p_prfx=(\S+) p_joint=(\S+)$"
)


def hyp(prefix, p_b, p_nb, lm_logp=0.0, ta=None):
    return Hypothesis(prefix, p_b, p_nb, lm_logp=lm_logp, ta_logp=ta)


def by_columns(prefix_keyed):
    """A search's prefix-keyed dict (``ta``, ``hyps``) keyed by column tuples."""
    return {pre.as_tuple(): v for pre, v in prefix_keyed.items()}


def scored(hyps, score_fn):
    return {p: score_fn(h) for p, h in hyps.items()}


def decode_setup(seed, n=4, **params_kw):
    m = tiny_model(seed)
    rng = np.random.default_rng(seed + 500)
    enc = EncoderStates(random_enc_states(rng, n, 8))
    post = posteriorgram_from_states(enc.states, m.ctc_w, m.ctc_b)
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


def test_top_hypotheses_is_size_only():
    hyps = {(c,): hyp((c,), -float(c), NEG_INF) for c in (3, 4, 5)}
    assert set(top_hypotheses(hyps, scored(hyps, lambda h: h.p_b), 2)) == {(3,), (4,)}


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
    ("add_eos_at_finalize", "no"), ("add_eos_at_finalize", 1), ("add_eos_at_finalize", None),
    ("dcond", 3), ("dcond", "never"), ("acond", 3), ("acond", True),
])
def test_decode_params_reject_values_of_the_wrong_type(field, bad):
    # a string or None used to raise TypeError from a comparison, a bool
    # weight passed as a number, a non-bool add_eos_at_finalize ran the
    # <eos> pass, and a non-callable hook failed mid-search
    with pytest.raises(ValueError, match=field):
        DecodeParams(**{field: bad})


def test_decode_params_accept_numpy_reals_and_callable_hooks():
    p = DecodeParams(lam=np.float64(0.25), alpha=np.float32(0.5), beta=3,
                     theta1=np.int64(8), dcond=lambda *a: False, acond=print,
                     add_eos_at_finalize=False)
    assert p.lam == 0.25 and p.theta1 == 8 and p.add_eos_at_finalize is False


def test_decode_params_accept_integer_likes_and_threshold_bounds():
    p = DecodeParams(k_size=np.int64(16), p_size=np.int32(8), eps_dec=np.int64(0),
                     local_threshold=0.0)
    assert (p.k_size, p.p_size, p.eps_dec) == (16, 8, 0)
    DecodeParams(local_threshold=0.999)


def test_blank_peaked_single_frame_decodes_empty():
    m, enc, post, lm, params = decode_setup(100, n=1)
    c = post.logp.shape[1]
    row = np.full(c, math.log(1e-7 / (c - 1)))
    row[0] = math.log1p(-1e-7)
    peaked = Posteriorgram(row[None, :])
    out = decode(enc, peaked, lm, m.decoder, params)
    assert out.labels == ()


def test_decode_rejects_empty_and_mismatched_inputs():
    m, enc, post, lm, params = decode_setup(101)
    with pytest.raises(ValueError, match="empty utterance"):
        decode(enc, Posteriorgram(np.zeros((0, 6))), lm, m.decoder, params)
    with pytest.raises(ValueError, match="posterior rows but"):
        decode(EncoderStates(enc.states[:2]), post, lm, m.decoder, params)


@pytest.mark.parametrize("n_cols", [10, 4])
def test_joint_search_rejects_posteriorgram_of_wrong_width(n_cols):
    # the 5-label decoder needs 6 columns: 10 used to fail with an
    # IndexError in the decoder, 4 decoded a truncated label set
    m, enc, _, lm, params = decode_setup(125)
    post = Posteriorgram(logprob_rows(np.random.default_rng(126), 4, n_cols))
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
    other = post.logp.copy()
    other[3:] = np.roll(other[3:], 1, axis=1)
    a = decode(enc, post, lm, m.decoder, params)
    b = decode(enc, Posteriorgram(other), lm, m.decoder, params)
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
    post = posteriorgram_from_states(enc.states, m.ctc_w, m.ctc_b)
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


def test_eos_rescoring_changes_finalize_only():
    m, enc, post, lm, _ = decode_setup(106, n=4)
    with_eos = decode(enc, post, lm, m.decoder, DecodeParams(lam=0.4))
    without = decode(enc, post, lm, m.decoder,
                     DecodeParams(lam=0.4, add_eos_at_finalize=False))
    assert with_eos.trace == without.trace
    assert with_eos.score != without.score


def test_no_eos_model_skips_final_rescoring():
    m = tiny_model(107, with_eos=False)
    rng = np.random.default_rng(607)
    enc = EncoderStates(random_enc_states(rng, 3, 8))
    post = posteriorgram_from_states(enc.states, m.ctc_w, m.ctc_b)
    out = decode(enc, post, UniformLM(4), m.decoder, DecodeParams())
    flag_off = decode(enc, post, UniformLM(4), m.decoder,
                      DecodeParams(add_eos_at_finalize=False))
    assert out.labels == flag_off.labels
    assert out.score == flag_off.score


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
    search = JointSearch(m.decoder, lm, params, post.logp.shape[1])
    search.advance(post.logp[0], enc)
    for pre, entry in by_columns(search.ta).items():
        if len(pre) == 1:
            target[pre] = entry.nus
    assert target and all(nus == (1,) for nus in target.values())
    search.advance(post.logp[1], enc)
    ta = by_columns(search.ta)
    for pre in target:
        if pre in ta:
            assert ta[pre].nus == (2,)


def test_skip_hook_falls_back_to_parent_score():
    m, enc, post, lm, _ = decode_setup(110, n=1)
    params = DecodeParams(lam=0.5, acond=lambda pre, omega, frame, row: False,
                          k_size=8, p_size=8, theta1=1e6, theta2=1e6,
                          local_threshold=0.0)
    search = JointSearch(m.decoder, lm, params, post.logp.shape[1])
    search.advance(post.logp[0], enc)
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


def test_best_ctc_partial_tracks_prefix_ranking():
    m, enc, post, lm, params = decode_setup(111, n=3)
    search = JointSearch(m.decoder, lm, params, post.logp.shape[1])
    assert search.best_ctc_partial == ()
    search.advance(post.logp[0], enc)
    best = search.best_ctc_partial
    assert all(0 <= lab < m.decoder.vocab_size - 1 for lab in best) or best == ()


def test_finalize_before_any_frame_is_empty():
    m, enc, post, lm, params = decode_setup(112)
    search = JointSearch(m.decoder, lm, params, post.logp.shape[1])
    out = search.finalize(enc)
    assert out.labels == () and out.score == 0.0 and out.trace == []


def test_ta_cache_holds_only_ancestors_of_live_prefixes():
    m, enc, post, lm, params = decode_setup(113, n=5)
    search = JointSearch(m.decoder, lm, params, post.logp.shape[1])
    for i in range(5):
        search.advance(post.logp[i], enc)
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
    enc = EncoderStates(random_enc_states(rng, 6, 8))
    post = posteriorgram_from_states(enc.states, m.ctc_w, m.ctc_b)
    y = (2, 3)
    align = ctc_viterbi_align(post, [lab + 1 for lab in y], eps_dec=2)
    return m, enc, post, y, align


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
    short = Posteriorgram(post.logp[:1])
    short_enc = EncoderStates(enc.states[:1])
    bad_align = ctc_viterbi_align(post, [lab + 1 for lab in y], eps_dec=0)
    assert joint_loss(short, short_enc, y, bad_align, m.decoder, LossParams(0.5)) == math.inf


def test_decode_projects_each_encoder_row_once_per_layer_and_head(monkeypatch):
    from streamasr import attention

    m = tiny_model(116, d_layers=2)
    rng = np.random.default_rng(616)
    enc = EncoderStates(random_enc_states(rng, 7, 8))
    post = posteriorgram_from_states(enc.states, m.ctc_w, m.ctc_b)
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
    search = JointSearch(m.decoder, lm, params, post.logp.shape[1])
    seen_child = False
    for i in range(5):
        search.advance(post.logp[i], enc)
        ta = by_columns(search.ta)
        for pre, entry in ta.items():
            if len(pre) >= 2:
                seen_child = True
                parent = ta[pre[:-1]]
                assert parent.nus == entry.nus[:-1]
            labels = [c - 1 for c in pre]
            assert entry.logp == ta_prefix_score(enc, labels, entry.nus, m.decoder)
    assert seen_child
    out = search.finalize(enc)
    assert out.trace == search.trace


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_decode_rejects_non_finite_input(bad):
    m, enc, post, lm, params = decode_setup(118)
    states = enc.states.copy()
    states[2, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        decode(EncoderStates(states), post, lm, m.decoder, params)
    logp = post.logp.copy()
    logp[1, 2] = bad
    with pytest.raises(ValueError, match="NaN or \\+inf"):
        decode(enc, Posteriorgram(logp), lm, m.decoder, params)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_ctc_prefix_search_rejects_non_finite_input(bad):
    logp = logprob_rows(np.random.default_rng(119), 6, 5)
    logp[2, 3] = bad
    with pytest.raises(ValueError, match="NaN or \\+inf"):
        ctc_prefix_search(Posteriorgram(logp), UniformLM(3), DecodeParams())


@pytest.mark.parametrize("kind", ["joint", "ctc"])
def test_advance_rejects_row_of_wrong_width(kind):
    m, enc, post, lm, params = decode_setup(119)
    n_cols = post.logp.shape[1]
    if kind == "joint":
        search = JointSearch(m.decoder, lm, params, n_cols)
    else:
        search = CtcPrefixSearch(lm, params, n_cols)
    wide = logprob_rows(np.random.default_rng(120), 1, n_cols + 2)[0]
    with pytest.raises(ValueError, match="posterior row shape"):
        search.advance(wide, enc)
    assert search.frame == 0
    search.advance(post.logp[0], enc)
    assert search.frame == 1


def test_joint_search_needs_encoder_rows():
    m, enc, post, lm, params = decode_setup(127)
    search = JointSearch(m.decoder, lm, params, post.logp.shape[1])
    with pytest.raises(ValueError, match="needs the encoder rows"):
        search.advance(post.logp[0])
    assert search.frame == 0
    search.advance(post.logp[0], enc.states)
    with pytest.raises(ValueError, match="needs the encoder rows"):
        search.finalize()
    assert search.finalize(enc.states).trace == search.trace


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("kind", ["joint", "ctc"])
def test_advance_rejects_non_finite_row(kind, bad):
    m, enc, post, lm, params = decode_setup(124)
    n_cols = post.logp.shape[1]
    if kind == "joint":
        search = JointSearch(m.decoder, lm, params, n_cols)
    else:
        search = CtcPrefixSearch(lm, params, n_cols)
    search.advance(post.logp[0], enc)
    hyps, trace = dict(search.hyps), list(search.trace)
    row = post.logp[1].copy()
    row[2] = bad
    with pytest.raises(ValueError, match="NaN or \\+inf"):
        search.advance(row, enc)
    assert search.frame == 1
    assert search.hyps == hyps and search.trace == trace
    search.advance(post.logp[1], enc)
    assert search.frame == 2


def counted_steps(monkeypatch):
    """Record one (parent history, token, position, nu) key per row of
    every batched decoder step."""
    from streamasr import decoder

    calls = []
    step = decoder.advance_positions

    def counting(params, cache, hists, token_ids, pos_indices, nu):
        calls.extend((hist, tok, pos, nu) for hist, tok, pos in zip(hists, token_ids, pos_indices))
        return step(params, cache, hists, token_ids, pos_indices, nu)

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


def test_finalize_reuses_steps_taken_at_the_last_truncation(monkeypatch):
    m, enc, post, lm, _ = decode_setup(124, n=6)
    params = DecodeParams(eps_dec=2, k_size=8, p_size=8, theta1=1e6, theta2=1e6)
    calls = counted_steps(monkeypatch)
    search = JointSearch(m.decoder, lm, params, post.logp.shape[1])
    for i in range(6):
        search.advance(post.logp[i], enc)
    avail = enc.states.shape[0]
    scored = [search.ta[pre] for pre in search._last_carried if pre in search.ta]
    kept = [e for e in scored if e.step is not None and e.step[0] == avail]
    assert kept
    before = len(calls)
    assert before
    search.finalize(enc)
    assert len(calls) - before == len(scored) - len(kept)
    assert len(calls) == len(distinct_steps(calls))


def test_rescored_entries_equal_the_truncated_decoder_score():
    # dcond deletes every TA score each frame, so each one is rebuilt from
    # its parent's step at that frame's truncation
    m, enc, post, lm, _ = decode_setup(125, n=6)
    params = DecodeParams(dcond=lambda *_: True, eps_dec=1, k_size=8, p_size=8,
                          theta1=1e6, theta2=1e6, local_threshold=0.0)
    search = JointSearch(m.decoder, lm, params, post.logp.shape[1])
    for i in range(6):
        search.advance(post.logp[i], enc)
        assert len(search.ta) > 1
        for pre, entry in by_columns(search.ta).items():
            labels = [c - 1 for c in pre]
            assert entry.logp == ta_prefix_score(enc, labels, entry.nus, m.decoder)
    search.finalize(enc)


@pytest.mark.parametrize("growing", [False, True])
def test_steps_below_the_seen_encoder_rows_are_dropped(growing):
    m, enc, post, lm, _ = decode_setup(126, n=8)
    params = DecodeParams(eps_dec=2, k_size=8, p_size=8, theta1=1e6, theta2=1e6)
    search = JointSearch(m.decoder, lm, params, post.logp.shape[1])
    kept_any = False
    for i in range(8):
        rows = enc.states[:i + 1 + params.eps_dec] if growing else enc.states
        search.advance(post.logp[i], rows)
        seen = search.cross.enc.shape[0]
        steps = [e.step for e in search.ta.values() if e.step is not None]
        assert all(nu >= seen for nu, _, _ in steps)
        kept_any = kept_any or bool(steps)
    assert kept_any
