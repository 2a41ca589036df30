import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamasr import kernels
from streamasr.attention import full_mask, lookahead_mask
from streamasr.encoder import (CnnParams, EncoderStates, FeatureMatrix,
                               IncrementalEncoder, cnn_frame_count, enc_cnn,
                               encode, encoder_forward, encoder_layer,
                               feed_forward, positional_encoding,
                               positional_encoding_rows)
from streamasr.modelio import random_model
from helpers import tiny_model
from oracles import conv2d_oracle, positional_encoding_oracle


def rand_cnn(rng, d_feat, ch1, ch2, d_model):
    f2 = math.ceil(math.ceil(d_feat / 2) / 2)
    return CnnParams(
        conv1_w=rng.standard_normal((ch1, 1, 3, 3)).astype(np.float32) / 3.0,
        conv1_b=rng.standard_normal(ch1).astype(np.float32) * 0.1,
        conv2_w=rng.standard_normal((ch2, ch1, 3, 3)).astype(np.float32) / 3.0,
        conv2_b=rng.standard_normal(ch2).astype(np.float32) * 0.1,
        proj_w=rng.standard_normal((ch2 * f2, d_model)).astype(np.float32) / 4.0,
        proj_b=rng.standard_normal(d_model).astype(np.float32) * 0.1,
    )


def test_positional_encoding_position_zero():
    pe = positional_encoding(0, 8)
    assert np.array_equal(pe[0::2], np.zeros(4, dtype=np.float32))
    assert np.array_equal(pe[1::2], np.ones(4, dtype=np.float32))


def test_positional_encoding_first_component_is_sin_of_position():
    pe = positional_encoding(1, 8)
    assert pe[0] == pytest.approx(math.sin(1.0), abs=1e-6)
    assert pe[1] == pytest.approx(math.cos(1.0), abs=1e-6)


def test_positional_encoding_sin_cos_pairs_are_unit():
    for pos in (0, 1, 5, 37):
        pe = positional_encoding(pos, 12).astype(np.float64)
        assert np.allclose(pe[0::2] ** 2 + pe[1::2] ** 2, 1.0, atol=1e-5)


def test_positional_encoding_matches_scalar_oracle():
    for pos in (0, 2, 9):
        got = positional_encoding(pos, 10)
        assert np.allclose(got, positional_encoding_oracle(pos, 10), atol=1e-6)


def test_positional_encoding_rows_stacks_positions():
    rows = positional_encoding_rows(3, 4, 8)
    assert rows.shape == (4, 8)
    for i in range(4):
        assert np.array_equal(rows[i], positional_encoding(3 + i, 8))
    assert positional_encoding_rows(0, 0, 8).shape == (0, 8)


@pytest.mark.parametrize("t,n", [(1, 1), (2, 1), (3, 1), (4, 1), (5, 2), (13, 4), (16, 4), (17, 5)])
def test_cnn_frame_count(t, n):
    assert cnn_frame_count(t) == n


def test_enc_cnn_output_rows_match_frame_count():
    rng = np.random.default_rng(20)
    cnn = rand_cnn(rng, d_feat=6, ch1=2, ch2=3, d_model=8)
    for t in (1, 4, 9, 16):
        x = rng.standard_normal((t, 6)).astype(np.float32)
        assert enc_cnn(x, cnn).shape == (cnn_frame_count(t), 8)


def test_enc_cnn_zero_input_zero_bias_gives_projection_bias():
    rng = np.random.default_rng(21)
    cnn = rand_cnn(rng, d_feat=6, ch1=2, ch2=3, d_model=8)
    cnn.conv1_b[:] = 0.0
    cnn.conv2_b[:] = 0.0
    out = enc_cnn(np.zeros((8, 6), dtype=np.float32), cnn)
    assert np.allclose(out, np.tile(cnn.proj_b, (2, 1)), atol=1e-7)


def test_enc_cnn_matches_composed_scalar_oracle():
    rng = np.random.default_rng(22)
    cnn = rand_cnn(rng, d_feat=5, ch1=2, ch2=2, d_model=6)
    x = rng.standard_normal((7, 5)).astype(np.float32)
    h = conv2d_oracle(x[None, :, :], cnn.conv1_w, 2, 1)
    h = np.maximum(h + np.asarray(cnn.conv1_b, dtype=np.float64)[:, None, None], 0.0)
    h = conv2d_oracle(h, cnn.conv2_w, 2, 1)
    h = np.maximum(h + np.asarray(cnn.conv2_b, dtype=np.float64)[:, None, None], 0.0)
    n = h.shape[1]
    flat = h.transpose(1, 0, 2).reshape(n, -1)
    want = flat @ np.asarray(cnn.proj_w, dtype=np.float64) + np.asarray(cnn.proj_b, dtype=np.float64)
    assert np.allclose(enc_cnn(x, cnn), want, atol=1e-5)


def test_enc_cnn_rejects_empty_and_non_matrix_input():
    rng = np.random.default_rng(23)
    cnn = rand_cnn(rng, d_feat=5, ch1=2, ch2=2, d_model=6)
    with pytest.raises(ValueError, match="input too short"):
        enc_cnn(np.zeros((0, 5), dtype=np.float32), cnn)
    with pytest.raises(ValueError, match="must be 2-D"):
        enc_cnn(np.zeros((3, 5, 1), dtype=np.float32), cnn)


def test_feed_forward_zero_weights_give_bias():
    out = feed_forward(np.ones((2, 3)), np.zeros((3, 4)), np.zeros(4),
                       np.zeros((4, 3)), np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(out, np.tile([1.0, 2.0, 3.0], (2, 1)))


def test_encoder_infinite_lookahead_equals_manual_full_mask_stack():
    m = tiny_model(30)
    rng = np.random.default_rng(31)
    x0 = rng.standard_normal((6, 8)).astype(np.float32)
    got = encoder_forward(x0, m.encoder, math.inf)
    x = x0.copy()
    mask = full_mask(6, 6)
    for layer in m.encoder.layers:
        x = encoder_layer(x, layer, mask)
    want = kernels.layer_norm(x, m.encoder.final_norm_g, m.encoder.final_norm_b)
    assert np.array_equal(got.states, want)


def test_encoder_inf_equals_lookahead_of_full_length():
    m = tiny_model(32)
    rng = np.random.default_rng(33)
    x0 = rng.standard_normal((5, 8)).astype(np.float32)
    a = encoder_forward(x0, m.encoder, math.inf).states
    b = encoder_forward(x0, m.encoder, 5).states
    assert np.array_equal(a, b)


@pytest.mark.parametrize("eps", [0, 1, 2])
def test_encoder_causality_horizon(eps):
    # row n may depend on x0 rows up to n + E*eps and nothing later
    m = tiny_model(34)
    e_layers = len(m.encoder.layers)
    rng = np.random.default_rng(35)
    n = 2
    horizon = n + e_layers * eps
    t = horizon + 3
    x0 = rng.standard_normal((t, 8)).astype(np.float32)
    base = encoder_forward(x0, m.encoder, eps).states
    x0p = x0.copy()
    x0p[horizon + 1:] += 5.0
    pert = encoder_forward(x0p, m.encoder, eps).states
    assert np.array_equal(base[n], pert[n])
    # positive control: a perturbation inside the visibility cone moves row n
    # (the farthest admissible row can attenuate below float32 resolution
    # after several hops, so probe rows with a direct attention edge)
    x0q = x0.copy()
    if eps == 0:
        x0q[n] += 5.0  # row n feeds itself through the residual path
    else:
        x0q[n + 1:] += 5.0  # row n+1 is directly visible to query n
    pert2 = encoder_forward(x0q, m.encoder, eps).states
    assert not np.array_equal(base[n], pert2[n])


def test_encoder_rows_refine_monotonically_with_lookahead():
    # a row changes when the look-ahead grows, but earlier rows with
    # identical visibility match bit for bit between the two runs
    m = tiny_model(36)
    rng = np.random.default_rng(37)
    x0 = rng.standard_normal((7, 8)).astype(np.float32)
    a = encoder_forward(x0, m.encoder, 0).states
    b = encoder_forward(x0, m.encoder, 7).states
    assert a.shape == b.shape
    assert not np.array_equal(a, b)


def test_encoder_outputs_finite():
    m = tiny_model(38)
    rng = np.random.default_rng(39)
    x0 = rng.standard_normal((9, 8)).astype(np.float32) * 3.0
    for eps in (0, 2, math.inf):
        out = encoder_forward(x0, m.encoder, eps).states
        assert np.isfinite(out).all()


def test_encode_end_to_end_shapes_and_duration():
    m = tiny_model(40)
    rng = np.random.default_rng(41)
    feats = FeatureMatrix(rng.standard_normal((13, 4)).astype(np.float32), frame_shift_ms=10.0)
    enc = encode(feats, m.encoder, 1)
    assert isinstance(enc, EncoderStates)
    assert enc.states.shape == (cnn_frame_count(13), 8)
    assert enc.frame_duration_ms == 40.0


def test_encode_accepts_bare_arrays():
    m = tiny_model(42)
    rng = np.random.default_rng(43)
    frames = rng.standard_normal((9, 4)).astype(np.float32)
    a = encode(FeatureMatrix(frames), m.encoder, 2).states
    b = encode(frames, m.encoder, 2).states
    assert np.array_equal(a, b)


def test_random_model_channel_defaults_follow_width():
    m = random_model(44, d_model=16)
    assert m.encoder.cnn.conv1_w.shape[0] == 4
    assert m.encoder.cnn.conv2_w.shape[0] == 8


@pytest.mark.parametrize("eps", [0, 1, 2, math.inf])
def test_encoder_forward_equals_reference_layer_stack(eps):
    m = tiny_model(45, e_layers=3)
    rng = np.random.default_rng(46)
    x0 = rng.standard_normal((11, 8)).astype(np.float32)
    x = x0
    mask = lookahead_mask(11, 11, eps)
    for layer in m.encoder.layers:
        x = encoder_layer(x, layer, mask)
    want = kernels.layer_norm(x, m.encoder.final_norm_g, m.encoder.final_norm_b)
    assert np.array_equal(encoder_forward(x0, m.encoder, eps).states, want)


def pushed_in_pieces(push, rows, sizes):
    """Rows pushed in pieces of the given sizes, the rest at the final push."""
    out, i = [], 0
    for size in sizes:
        out.append(push(rows[i:i + size]))
        i += size
    out.append(push(rows[i:], final=True))
    return np.concatenate(out)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([0, 1, 2, math.inf]), st.lists(st.integers(0, 6), max_size=6))
def test_rows_pushed_in_pieces_equal_one_final_push(eps, sizes):
    m = tiny_model(47, e_layers=3)
    x0 = np.random.default_rng(48).standard_normal((13, 8)).astype(np.float32)
    whole = IncrementalEncoder(m.encoder, eps).push_rows(x0, final=True)
    got = pushed_in_pieces(IncrementalEncoder(m.encoder, eps).push_rows, x0, sizes)
    assert np.array_equal(got, whole)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([0, 1, math.inf]), st.lists(st.integers(0, 7), max_size=6))
def test_frames_pushed_in_pieces_equal_encode(eps, sizes):
    m = tiny_model(49)
    frames = np.random.default_rng(50).standard_normal((23, 4)).astype(np.float32)
    got = pushed_in_pieces(IncrementalEncoder(m.encoder, eps).push, frames, sizes)
    assert np.array_equal(got, encode(frames, m.encoder, eps).states)


def test_encoder_rejects_bad_lookahead_and_missing_input():
    m = tiny_model(51)
    for eps in (-1, 1.5, math.nan, True, "3", None):
        with pytest.raises(ValueError, match="eps_enc"):
            encode(np.zeros((8, 4), dtype=np.float32), m.encoder, eps)
    for final in (False, True):
        with pytest.raises(ValueError, match="input too short"):
            IncrementalEncoder(m.encoder, 1).push(None, final=final)
