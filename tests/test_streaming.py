import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamasr.attention import ROW_BLOCK
from streamasr.ctc import posteriorgram_from_states
from streamasr.encoder import encode
from streamasr.lm import UniformLM
from streamasr.search import DecodeParams, ctc_prefix_search, decode
from streamasr.streaming import (StreamConfig, StreamingSession,
                                 emission_frame, theoretical_latency_ms)
from helpers import HookFailed, RaiseOnce, tiny_model
from oracles import latency_oracle


def offline_reference(m, frames, eps_enc, params):
    enc = encode(frames, m.encoder, eps_enc)
    post = posteriorgram_from_states(enc, m.ctc_w, m.ctc_b)
    return decode(enc, post, UniformLM(3), m.decoder, params)


def run_session(m, frames, cfg, chunk_sizes, ctc_only=False):
    params = DecodeParams(k_size=8, p_size=4, eps_dec=cfg.eps_dec)
    sess = StreamingSession(m, UniformLM(3), params, cfg, ctc_only=ctc_only)
    i = 0
    sizes = iter(chunk_sizes)
    while i < frames.shape[0]:
        step = next(sizes)
        sess.push(frames[i:i + step])
        i += step
    return sess.finalize()


def test_stream_config_validation():
    StreamConfig(eps_enc=math.inf)
    StreamConfig(eps_enc=0)
    with pytest.raises(ValueError, match="eps_enc"):
        StreamConfig(eps_enc=1.5)
    with pytest.raises(ValueError, match="eps_enc"):
        StreamConfig(eps_enc=-1)
    with pytest.raises(ValueError, match="eps_dec"):
        StreamConfig(eps_dec=-2)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="frame_shift_ms"):
            StreamConfig(frame_shift_ms=bad)
    for bad in (True, "3", None):
        with pytest.raises(ValueError, match="eps_enc"):
            StreamConfig(eps_enc=bad)


@pytest.mark.parametrize("bad", ["10", True, False, None, -5, math.nan, 1j])
def test_stream_config_rejects_frame_shifts_that_are_not_positive_reals(bad):
    # "10" used to raise TypeError from a comparison and True passed as 1 ms
    with pytest.raises(ValueError, match="frame_shift_ms"):
        StreamConfig(frame_shift_ms=bad)


def test_stream_config_rejects_non_integer_eps_dec():
    # a float look-ahead used to pass and then fail as a slice index
    for bad in (1.5, 2.0, True):
        with pytest.raises(ValueError, match="eps_dec"):
            StreamConfig(eps_dec=bad)


def test_latency_matches_hand_formula():
    for eps_enc in (0, 1, 2, 3):
        for eps_dec in (0, 6, 18):
            for e in (1, 2, 12):
                cfg = StreamConfig(eps_enc=eps_enc, eps_dec=eps_dec)
                assert theoretical_latency_ms(cfg, e) == latency_oracle(
                    eps_enc, eps_dec, e, 10.0)
    assert theoretical_latency_ms(StreamConfig(eps_enc=math.inf), 12) == math.inf


@pytest.mark.parametrize("bad", [-3, -1, 1.5, 2.0, True, None])
def test_latency_refuses_a_layer_count_that_is_not_an_integer_from_0(bad):
    # -3 layers used to give -10.0 ms
    cfg = StreamConfig(eps_enc=1, eps_dec=2)
    with pytest.raises(ValueError, match=f"encoder layer count {bad!r} is not an integer >= 0"):
        theoretical_latency_ms(cfg, bad)
    assert theoretical_latency_ms(cfg, np.int64(3)) == theoretical_latency_ms(cfg, 3) == 230.0
    assert theoretical_latency_ms(cfg, 0) == 110.0


@pytest.mark.parametrize("n, e_layers, what", [
    (-2, 1, "encoder row -2"), (1.5, 1, "encoder row 1.5"), (True, 1, "encoder row True"),
    (1, -1, "encoder layer count -1"), (1, 2.0, "encoder layer count 2.0"),
    (-2, -1, "encoder row -2"),
])
def test_emission_frame_refuses_counts_that_are_not_integers_from_0(n, e_layers, what):
    # emission_frame(-2, -1, 1) used to give -12
    with pytest.raises(ValueError, match=f"{what} is not an integer >= 0"):
        emission_frame(n, e_layers, 1)
    assert emission_frame(np.int64(2), np.int64(3), 1) == emission_frame(2, 3, 1) == 20
    assert emission_frame(0, 0, 1) == 0 and emission_frame(0, 12, math.inf) == math.inf


def test_emission_schedule_matches_closed_form():
    # rows come out at their closed-form emission frame; a CTC-only session
    # then decodes every row it has, a joint one holds frame n back until
    # its decoder's n + eps_dec rows exist
    m = tiny_model(120)
    rng = np.random.default_rng(121)
    frames = rng.standard_normal((44, 4)).astype(np.float32)
    e_layers = len(m.encoder.layers)
    for ctc_only in (False, True):
        for eps in (0, 1, 2):
            for eps_dec in (0, 1, 3):
                cfg = StreamConfig(eps_enc=eps, eps_dec=eps_dec)
                sess = StreamingSession(m, UniformLM(3), DecodeParams(k_size=8, p_size=4), cfg,
                                        ctc_only=ctc_only)
                lag = 0 if ctc_only else eps_dec
                for t in range(1, 45):
                    sess.push(frames[t - 1:t])
                    # rows whose emission frame has been reached are out already
                    want = 0
                    while emission_frame(want + 1, e_layers, eps) <= t:
                        want += 1
                    assert sess.emitted_frames == want, (ctc_only, eps, eps_dec, t)
                    assert sess.decoded_frames == max(0, want - lag), (ctc_only, eps, eps_dec, t)
                sess.finalize()


@pytest.mark.parametrize("ctc_only", [True, False])
def test_realized_decode_lag_matches_the_closed_form(ctc_only):
    # frame n covers input frames 4n-3..4n; the input frame at which the
    # session first decodes it lies the closed-form latency after its
    # first: eps_dec counts only with a decoder
    m = tiny_model(144)
    frames = np.random.default_rng(145).standard_normal((60, 4)).astype(np.float32)
    e_layers = len(m.encoder.layers)
    for eps_enc in (0, 1, 2):
        cfg = StreamConfig(eps_enc=eps_enc, eps_dec=2)
        sess = StreamingSession(m, UniformLM(3), DecodeParams(k_size=8, p_size=4), cfg,
                                ctc_only=ctc_only)
        first = {}
        for t in range(1, 61):
            sess.push(frames[t - 1:t])
            for n in range(len(first) + 1, sess.decoded_frames + 1):
                first[n] = t
        sess.finalize()
        assert len(first) >= 5, eps_enc
        budget = replace(cfg, eps_dec=0) if ctc_only else cfg
        lag = 0 if ctc_only else cfg.eps_dec
        for n, t in first.items():
            assert t == emission_frame(n + lag, e_layers, eps_enc), (eps_enc, n)
            assert (t - (4 * n - 3)) * cfg.frame_shift_ms == theoretical_latency_ms(
                budget, e_layers), (eps_enc, n)


def test_infinite_lookahead_emits_nothing_until_finalize():
    m = tiny_model(122)
    rng = np.random.default_rng(123)
    frames = rng.standard_normal((17, 4)).astype(np.float32)
    cfg = StreamConfig(eps_enc=math.inf, eps_dec=2)
    sess = StreamingSession(m, UniformLM(3), DecodeParams(k_size=8, p_size=4), cfg)
    for t in range(17):
        out = sess.push(frames[t:t + 1])
        assert out is None
        assert sess.emitted_frames == 0
    result = sess.finalize()
    offline = offline_reference(m, frames, math.inf,
                                DecodeParams(k_size=8, p_size=4, eps_dec=2))
    assert result.labels == offline.labels
    assert result.score == offline.score
    assert result.trace == offline.trace


@pytest.mark.parametrize("chunk", [1, 2, 5, 100])
def test_streaming_equals_offline_bitwise(chunk):
    m = tiny_model(124)
    rng = np.random.default_rng(125)
    frames = rng.standard_normal((21, 4)).astype(np.float32)
    cfg = StreamConfig(eps_enc=1, eps_dec=2)
    params = DecodeParams(k_size=8, p_size=4, eps_dec=2)
    offline = offline_reference(m, frames, 1, params)
    got = run_session(m, frames, cfg, [chunk] * 30)
    assert got.labels == offline.labels
    assert got.score == offline.score
    assert got.trace == offline.trace


@pytest.mark.parametrize("chunk", [1, 5])
def test_zero_layer_decoder_streams_as_offline(chunk):
    # the archive header allows d_layers 0: the decoder is then its
    # embeddings, final norm and output projection, and a joint decode
    # still runs and streams to the offline bits
    m = tiny_model(150, d_layers=0)
    frames = np.random.default_rng(151).standard_normal((21, 4)).astype(np.float32)
    cfg = StreamConfig(eps_enc=1, eps_dec=2)
    params = DecodeParams(k_size=8, p_size=4, eps_dec=2)
    offline = offline_reference(m, frames, 1, params)
    got = run_session(m, frames, cfg, [chunk] * 30)
    assert got.labels == offline.labels
    assert got.score == offline.score
    assert got.trace == offline.trace


def test_long_session_keeps_bounded_input_buffers():
    # a 400-frame session drops conv input rows, per-layer input rows and
    # their query heads, and posterior rows once no later row reads them,
    # and still decodes the offline bits
    m = tiny_model(137)
    rng = np.random.default_rng(138)
    frames = rng.standard_normal((400, 4)).astype(np.float32)
    cfg = StreamConfig(eps_enc=1, eps_dec=3)
    params = DecodeParams(k_size=8, p_size=4, eps_dec=3)
    sess = StreamingSession(m, UniformLM(3), params, cfg)
    for t in range(0, 400, 5):
        sess.push(frames[t:t + 5])
        assert all(conv.pending.shape[1] <= 2 for conv in sess.encoder.convs)
        for layer in sess.encoder.layers:
            assert layer.x.shape[0] <= cfg.eps_enc + 1
            assert layer.q.shape[1] <= cfg.eps_enc + 1
        assert len(sess._post) <= cfg.eps_dec
    assert not [k for k, v in vars(sess).items() if isinstance(v, list)]
    assert sess.emitted_frames > 90
    got = sess.finalize()
    assert not sess._post
    want = offline_reference(m, frames, 1, params)
    assert got.labels == want.labels
    assert got.score == want.score
    assert got.trace == want.trace


def test_long_session_keeps_key_value_stores_within_a_block():
    # the encoder layers and the cross-attention cache append keys and
    # values in place: after many steady pushes each store holds fewer
    # than ROW_BLOCK unused rows, and a push that fills no block keeps the
    # buffers it had
    m = tiny_model(139, d_layers=2)
    frames = np.random.default_rng(140).standard_normal((640, 4)).astype(np.float32)
    cfg = StreamConfig(eps_enc=1, eps_dec=2)
    params = DecodeParams(k_size=8, p_size=4, eps_dec=2)
    sess = StreamingSession(m, UniformLM(3), params, cfg)
    stores = [layer.kv for layer in sess.encoder.layers] + sess.search.cross.kv
    assert len(stores) == 4 and all(s.buffers is None for s in stores)
    kept = grown = 0
    for t in range(0, 640, 4):
        before = [(s.buffers, s.capacity) for s in stores]
        sess.push(frames[t:t + 4])
        for store, (buffers, capacity) in zip(stores, before):
            assert store.capacity % ROW_BLOCK == 0
            assert 0 <= store.capacity - store.rows < ROW_BLOCK
            if store.rows <= capacity:
                # no block filled: the same (keys, values) buffers, or still none
                assert store.buffers is buffers
                kept += 1
            else:
                grown += 1
    assert sess.encoder.rows == 160 and min(s.rows for s in stores) > 150
    # each store grew once per block it holds and kept its buffers otherwise
    assert grown == sum(-(-s.rows // ROW_BLOCK) for s in stores) and kept == 4 * 160 - grown


@settings(max_examples=12, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=0, max_size=10))
def test_streaming_invariant_to_chunking(sizes):
    m = tiny_model(126)
    rng = np.random.default_rng(127)
    frames = rng.standard_normal((18, 4)).astype(np.float32)
    cfg = StreamConfig(eps_enc=0, eps_dec=3)
    got = run_session(m, frames, cfg, sizes + [18, 18])
    whole = run_session(m, frames, cfg, [18])
    assert got.labels == whole.labels
    assert got.score == whole.score
    assert got.trace == whole.trace


def test_streaming_causality_sentinel():
    # two streams share their first 12 frames and then diverge: partials
    # while they agree are identical, and the trace lines already
    # committed at the divergence point never change afterwards
    m = tiny_model(128)
    rng = np.random.default_rng(129)
    a = rng.standard_normal((20, 4)).astype(np.float32)
    b = a.copy()
    b[12:] = rng.standard_normal((8, 4)).astype(np.float32)
    cfg = StreamConfig(eps_enc=0, eps_dec=1)
    params = DecodeParams(k_size=8, p_size=4)
    sa = StreamingSession(m, UniformLM(3), params, cfg)
    sb = StreamingSession(m, UniformLM(3), params, cfg)
    for t in range(12):
        pa = sa.push(a[t:t + 1])
        pb = sb.push(b[t:t + 1])
        assert pa == pb
    committed = sa.decoded_frames
    assert committed >= 2
    for t in range(12, 20):
        sa.push(a[t:t + 1])
        sb.push(b[t:t + 1])
    ra = sa.finalize()
    rb = sb.finalize()
    assert ra.trace[:committed] == rb.trace[:committed]
    assert ra.trace != rb.trace


def test_partial_only_reported_on_change():
    m = tiny_model(130)
    rng = np.random.default_rng(131)
    frames = rng.standard_normal((24, 4)).astype(np.float32)
    cfg = StreamConfig(eps_enc=0, eps_dec=0)
    sess = StreamingSession(m, UniformLM(3), DecodeParams(k_size=8, p_size=4), cfg)
    seen = []
    for t in range(24):
        out = sess.push(frames[t:t + 1])
        if out is not None:
            seen.append(out)
    sess.finalize()
    assert all(x != y for x, y in zip(seen, seen[1:]))


def test_session_usage_errors():
    m = tiny_model(132)
    cfg = StreamConfig(eps_enc=1, eps_dec=1)
    sess = StreamingSession(m, UniformLM(3), DecodeParams(), cfg)
    with pytest.raises(ValueError, match="at least one frame"):
        sess.push(np.zeros((0, 4), dtype=np.float32))
    with pytest.raises(ValueError, match="must be 2-D"):
        sess.push(np.zeros(4, dtype=np.float32))
    sess.push(np.zeros((2, 4), dtype=np.float32))
    with pytest.raises(ValueError, match="5 feature columns, the model takes 4"):
        sess.push(np.zeros((1, 5), dtype=np.float32))
    sess.finalize()
    with pytest.raises(RuntimeError, match="session closed"):
        sess.push(np.zeros((1, 4), dtype=np.float32))
    with pytest.raises(RuntimeError, match="session closed"):
        sess.finalize()


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_push_rejects_non_finite_chunk_and_keeps_session(bad):
    m = tiny_model(136)
    frames = np.random.default_rng(136).standard_normal((24, 4)).astype(np.float32)
    cfg = StreamConfig(eps_enc=1, eps_dec=1)
    params = DecodeParams(k_size=8, p_size=4, eps_dec=1)
    sess = StreamingSession(m, UniformLM(3), params, cfg)
    sess.push(frames[:10])
    poisoned = frames[10:14].copy()
    poisoned[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        sess.push(poisoned)
    sess.push(frames[10:])
    got = sess.finalize()
    want = offline_reference(m, frames, 1, params)
    assert got.labels == want.labels and got.trace == want.trace


@pytest.mark.parametrize("retry", ["push", "finalize", "finalize-raised"])
def test_session_retried_after_a_raising_hook_equals_one_that_never_raises(retry):
    m = tiny_model(137)
    frames = np.random.default_rng(137).standard_normal((48, 4)).astype(np.float32)
    cfg = StreamConfig(eps_enc=1, eps_dec=1)
    params = DecodeParams(k_size=8, p_size=4, eps_dec=1, acond=lambda pre, *_: len(pre) != 2)
    want = offline_reference(m, frames, 1, params)
    if retry == "finalize-raised":
        # the last frame is decoded only by finalize, once the encoder's
        # final flush has emitted its row; the retry must not flush again
        n = len(want.trace)
        flaky = RaiseOnce(params.acond, at=n)
        sess = StreamingSession(m, UniformLM(3), replace(params, acond=flaky), cfg)
        sess.push(frames)
        assert sess.decoded_frames < n
        with pytest.raises(HookFailed):
            sess.finalize()
        assert flaky.raised and not sess.closed
        assert sess.emitted_frames == n and sess.decoded_frames == n - 1
        with pytest.raises(RuntimeError, match="only finalize may follow"):
            sess.push(frames[:4])
        got = sess.finalize()
        assert sess.closed
        assert got.labels == want.labels and got.trace == want.trace and got.score == want.score
        return
    flaky = RaiseOnce(params.acond, at=5)
    sess = StreamingSession(m, UniformLM(3), replace(params, acond=flaky), cfg)
    first = 32 if retry == "push" else 48
    with pytest.raises(HookFailed):
        sess.push(frames[:first])
    # frame 5 failed: four frames decoded, and no posterior row was lost
    assert sess.decoded_frames == len(sess.search.trace) == 4
    assert len(sess._post) == sess.emitted_frames - sess.decoded_frames > 0
    if retry == "push":
        sess.push(frames[first:])
    got = sess.finalize()
    assert got.labels == want.labels and got.trace == want.trace and got.score == want.score


@pytest.mark.parametrize("d_feat,width", [(8, 9), (8, 7), (4, 5), (4, 3)])
def test_bad_first_chunk_leaves_a_fresh_session(d_feat, width):
    # a wrong-width first chunk used to reach the conv buffers before the
    # projection rejected it (9 columns), or to decode silently (7 columns
    # give the conv stack the same output width as 8), and every later
    # chunk then failed as a width change
    m = tiny_model(139, d_feat=d_feat)
    frames = np.random.default_rng(140).standard_normal((22, d_feat)).astype(np.float32)
    cfg = StreamConfig(eps_enc=1, eps_dec=1)
    params = DecodeParams(k_size=8, p_size=4, eps_dec=1)
    sess = StreamingSession(m, UniformLM(3), params, cfg)
    with pytest.raises(ValueError, match=f"got {width} feature columns, "
                                         f"the model takes {d_feat}"):
        sess.push(np.zeros((4, width), dtype=np.float32))
    assert sess.encoder.frames == 0 and sess.emitted_frames == 0
    for t in range(0, 22, 4):
        sess.push(frames[t:t + 4])
    got = sess.finalize()
    want = run_session(m, frames, cfg, [4] * 6)
    assert (got.labels, got.score, got.trace) == (want.labels, want.score, want.trace)


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_chunk_dtype_does_not_change_the_decode(dtype):
    # equal values decode to equal bits: every chunk is cast to float32
    m = tiny_model(141)
    values = np.random.default_rng(142).integers(-2, 3, size=(21, 4))
    cfg = StreamConfig(eps_enc=1, eps_dec=2)
    want = run_session(m, values.astype(np.float32), cfg, [3] * 7)
    got = run_session(m, values.astype(dtype), cfg, [3] * 7)
    assert (got.labels, got.score, got.trace) == (want.labels, want.score, want.trace)
    assert got.trace == offline_reference(m, values.astype(dtype), 1,
                                          DecodeParams(k_size=8, p_size=4, eps_dec=2)).trace


def test_chunk_values_beyond_float32_are_non_finite():
    m = tiny_model(143)
    sess = StreamingSession(m, UniformLM(3), DecodeParams(), StreamConfig(eps_enc=1, eps_dec=1))
    with pytest.raises(ValueError, match="non-finite"):
        sess.push(np.full((2, 4), 1e300))
    with pytest.raises(ValueError, match="real numbers"):
        sess.push(np.zeros((2, 4), dtype=complex))


def test_finalize_without_frames_is_empty_result():
    m = tiny_model(133)
    sess = StreamingSession(m, UniformLM(3), DecodeParams(),
                            StreamConfig(eps_enc=1, eps_dec=1))
    out = sess.finalize()
    assert out.labels == () and out.score == 0.0 and out.trace == []


def test_session_overrides_decoder_lookahead_from_config():
    m = tiny_model(134)
    cfg = StreamConfig(eps_enc=1, eps_dec=7)
    sess = StreamingSession(m, UniformLM(3), DecodeParams(eps_dec=2), cfg)
    assert sess.params.eps_dec == 7


@pytest.mark.parametrize("eps_dec", [5, np.int64(5)])
def test_session_params_equal_the_replace_form(eps_dec):
    # the session copies its DecodeParams with the stream's eps_dec, without
    # dataclasses.replace and its second run of every check: the same
    # fields, hooks included, and eps_dec a Python int
    m = tiny_model(137)

    def dcond(prefix, omega_hat, frame, post_row):
        return False

    def acond(prefix, omega_hat, frame, post_row):
        return True

    params = DecodeParams(lam=0.25, k_size=8, p_size=4, eps_dec=2, dcond=dcond, acond=acond)
    cfg = StreamConfig(eps_enc=1, eps_dec=eps_dec)
    sess = StreamingSession(m, UniformLM(3), params, cfg)
    want = replace(params, eps_dec=cfg.eps_dec)
    assert type(sess.params) is DecodeParams and vars(sess.params) == vars(want)
    assert type(sess.params.eps_dec) is int
    assert sess.params is not params and params.eps_dec == 2


def test_ctc_only_session_matches_offline_prefix_search():
    # eps_dec 3 would hold three frames back in a joint session; the
    # CTC-only one decodes every row it has after each push and still
    # gives the offline bits
    m = tiny_model(135)
    rng = np.random.default_rng(136)
    frames = rng.standard_normal((33, 4)).astype(np.float32)
    cfg = StreamConfig(eps_enc=2, eps_dec=3)
    params = DecodeParams(k_size=8, p_size=4, eps_dec=3)
    enc = encode(frames, m.encoder, 2)
    post = posteriorgram_from_states(enc, m.ctc_w, m.ctc_b)
    banned = (m.decoder.sos_id, m.decoder.eos_id)
    offline = ctc_prefix_search(post, UniformLM(3), params, banned_ids=banned)
    for chunk in (1, 3, 7):
        sess = StreamingSession(m, UniformLM(3), params, cfg, ctc_only=True)
        for start in range(0, 33, chunk):
            sess.push(frames[start:start + chunk])
            assert sess.decoded_frames == sess.emitted_frames, (chunk, start)
        got = sess.finalize()
        assert (got.labels, got.score, got.trace) == (offline.labels, offline.score,
                                                      offline.trace), chunk
