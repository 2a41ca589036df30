import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamasr.ctc import posteriorgram_from_states
from streamasr.encoder import encode
from streamasr.lm import UniformLM
from streamasr.search import DecodeParams, ctc_prefix_search, decode
from streamasr.streaming import (StreamConfig, StreamingSession,
                                 emission_frame, theoretical_latency_ms)
from helpers import tiny_model
from oracles import latency_oracle


def offline_reference(m, frames, eps_enc, params):
    enc = encode(frames, m.encoder, eps_enc)
    post = posteriorgram_from_states(enc.states, m.ctc_w, m.ctc_b)
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


def test_emission_schedule_matches_closed_form():
    m = tiny_model(120)
    rng = np.random.default_rng(121)
    frames = rng.standard_normal((26, 4)).astype(np.float32)
    for eps in (0, 1, 2):
        cfg = StreamConfig(eps_enc=eps, eps_dec=1)
        sess = StreamingSession(m, UniformLM(3), DecodeParams(k_size=8, p_size=4), cfg)
        e_layers = len(m.encoder.layers)
        for t in range(1, 27):
            sess.push(frames[t - 1:t])
            # rows whose emission frame has been reached are out already
            want = 0
            while emission_frame(want + 1, e_layers, eps) <= t:
                want += 1
            assert sess.emitted_frames == want, (eps, t)
            assert sess.decoded_frames == max(0, want - cfg.eps_dec)
        sess.finalize()


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


def test_long_session_keeps_bounded_input_buffers():
    # a 400-frame session drops conv input rows, per-layer input and normed
    # rows and posterior rows once no later row reads them, and still
    # decodes the offline bits
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
            assert layer.normed.shape[0] <= cfg.eps_enc + 1
        assert len(sess._post) <= cfg.eps_dec
    assert not [k for k, v in vars(sess).items() if isinstance(v, list)]
    assert sess.emitted_frames > 90
    got = sess.finalize()
    assert not sess._post
    want = offline_reference(m, frames, 1, params)
    assert got.labels == want.labels
    assert got.score == want.score
    assert got.trace == want.trace


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
    with pytest.raises(ValueError, match="non-empty 2-D"):
        sess.push(np.zeros((0, 4), dtype=np.float32))
    with pytest.raises(ValueError, match="non-empty 2-D"):
        sess.push(np.zeros(4, dtype=np.float32))
    sess.push(np.zeros((2, 4), dtype=np.float32))
    with pytest.raises(ValueError, match="feature width changed"):
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


def test_ctc_only_session_matches_offline_prefix_search():
    m = tiny_model(135)
    rng = np.random.default_rng(136)
    frames = rng.standard_normal((19, 4)).astype(np.float32)
    cfg = StreamConfig(eps_enc=2, eps_dec=1)
    params = DecodeParams(k_size=8, p_size=4, eps_dec=1)
    got = run_session(m, frames, cfg, [3] * 10, ctc_only=True)
    enc = encode(frames, m.encoder, 2)
    post = posteriorgram_from_states(enc.states, m.ctc_w, m.ctc_b)
    banned = (m.decoder.sos_id, m.decoder.eos_id)
    offline = ctc_prefix_search(post, UniformLM(3), params, banned_ids=banned)
    assert got.labels == offline.labels
    assert got.score == offline.score
    assert got.trace == offline.trace
