import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamasr import encoder, kernels
from streamasr.attention import ROW_BLOCK, full_mask
from streamasr.encoder import (CnnParams, FeatureMatrix,
                               IncrementalEncoder, cnn_frame_count, enc_cnn,
                               encode, encoder_forward, encoder_layer,
                               feed_forward, positional_encodings)
from streamasr.modelio import random_model
from helpers import tiny_model
from oracles import (conv2d_np_pad, conv2d_oracle, lookahead_mask, positional_encoding_oracle,
                     positional_encoding_per_row)


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


def positional_encoding(pos, d_model):
    """The position vector of one position."""
    return positional_encodings([pos], d_model)[0]


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
    rows = positional_encodings(np.arange(3, 7), 8)
    assert rows.shape == (4, 8)
    for i in range(4):
        assert np.array_equal(rows[i], positional_encoding(3 + i, 8))
    assert positional_encodings(np.arange(0), 8).shape == (0, 8)


@settings(max_examples=60, deadline=None)
@given(d_model=st.integers(1, 130), positions=st.lists(st.integers(0, 5000), min_size=1,
                                                         max_size=8),
       count=st.integers(0, 300))
def test_position_rows_equal_rows_computed_alone(d_model, positions, count):
    # rows computed many at a time carry the bits of each position
    # computed on its own
    for pos in positions:
        assert (positional_encoding(pos, d_model) == positional_encoding_per_row(pos, d_model)).all()
    rows = positional_encodings(positions, d_model)
    assert rows.dtype == np.float32
    assert (rows == np.stack([positional_encoding_per_row(p, d_model) for p in positions])).all()
    start = min(positions)
    rows = positional_encodings(np.arange(start, start + count), d_model)
    assert rows.shape == (count, d_model)
    for i, row in enumerate(rows):
        assert (row == positional_encoding_per_row(start + i, d_model)).all()


def test_negative_positions_raise():
    with pytest.raises(ValueError, match="position"):
        positional_encoding(-1, 8)
    with pytest.raises(ValueError, match="position"):
        positional_encodings(np.arange(-2, 1), 8)
    with pytest.raises(ValueError, match="position"):
        positional_encodings([3, -1], 8)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_positions_raise(bad):
    with pytest.raises(ValueError, match="positions must be"):
        positional_encodings([bad], 8)
    with pytest.raises(ValueError, match="positions must be"):
        positional_encodings([2.0, bad, 5.0], 8)


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
    assert np.array_equal(got, want)


def test_encoder_inf_equals_lookahead_of_full_length():
    m = tiny_model(32)
    rng = np.random.default_rng(33)
    x0 = rng.standard_normal((5, 8)).astype(np.float32)
    a = encoder_forward(x0, m.encoder, math.inf)
    b = encoder_forward(x0, m.encoder, 5)
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
    base = encoder_forward(x0, m.encoder, eps)
    x0p = x0.copy()
    x0p[horizon + 1:] += 5.0
    pert = encoder_forward(x0p, m.encoder, eps)
    assert np.array_equal(base[n], pert[n])
    # positive control: a perturbation inside the visibility cone moves row n
    # (the farthest admissible row can attenuate below float32 resolution
    # after several hops, so probe rows with a direct attention edge)
    x0q = x0.copy()
    if eps == 0:
        x0q[n] += 5.0  # row n feeds itself through the residual path
    else:
        x0q[n + 1:] += 5.0  # row n+1 is directly visible to query n
    pert2 = encoder_forward(x0q, m.encoder, eps)
    assert not np.array_equal(base[n], pert2[n])


def test_encoder_rows_refine_monotonically_with_lookahead():
    # a row changes when the look-ahead grows, but earlier rows with
    # identical visibility match bit for bit between the two runs
    m = tiny_model(36)
    rng = np.random.default_rng(37)
    x0 = rng.standard_normal((7, 8)).astype(np.float32)
    a = encoder_forward(x0, m.encoder, 0)
    b = encoder_forward(x0, m.encoder, 7)
    assert a.shape == b.shape
    assert not np.array_equal(a, b)


def test_encoder_outputs_finite():
    m = tiny_model(38)
    rng = np.random.default_rng(39)
    x0 = rng.standard_normal((9, 8)).astype(np.float32) * 3.0
    for eps in (0, 2, math.inf):
        out = encoder_forward(x0, m.encoder, eps)
        assert np.isfinite(out).all()


def test_encode_end_to_end_shapes_and_duration():
    m = tiny_model(40)
    rng = np.random.default_rng(41)
    feats = FeatureMatrix(rng.standard_normal((13, 4)).astype(np.float32), frame_shift_ms=10.0)
    enc = encode(feats, m.encoder, 1)
    assert enc.dtype == np.float32
    assert enc.shape == (cnn_frame_count(13), 8)


def test_encode_accepts_bare_arrays():
    m = tiny_model(42)
    rng = np.random.default_rng(43)
    frames = rng.standard_normal((9, 4)).astype(np.float32)
    a = encode(FeatureMatrix(frames), m.encoder, 2)
    b = encode(frames, m.encoder, 2)
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
    assert np.array_equal(encoder_forward(x0, m.encoder, eps), want)


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
    assert np.array_equal(got, encode(frames, m.encoder, eps))


def kept_mask_calls(monkeypatch, enc):
    """Count the attention calls of enc's layers whose mask is a slice of
    a layer's kept all-True row."""
    calls = []
    sdpa = encoder.attention.scaled_dot_attention

    def recorded(q, k, v, mask):
        if any(np.shares_memory(mask, rows._row_mask) for rows in enc.layers):
            assert mask.shape[0] == 1 and mask.all()
            calls.append(mask.shape[1])
        return sdpa(q, k, v, mask)

    monkeypatch.setattr(encoder.attention, "scaled_dot_attention", recorded)
    return calls


@pytest.mark.parametrize("eps", [0, 1, 2, 3])
def test_steady_pushes_slice_a_kept_mask_row_with_the_bits_of_encode(monkeypatch, eps):
    # 4-frame chunks bring each layer one row per push, and once the
    # look-ahead is full it emits one row that sees every key, whose mask
    # is a slice of the layer's kept all-True row.
    # 70 frames make 18 rows, past a KeyValueStore block and the kept row.
    m = tiny_model(51, e_layers=3)
    frames = np.random.default_rng(52).standard_normal((70, 4)).astype(np.float32)
    want = encode(frames, m.encoder, eps)
    assert want.shape[0] > ROW_BLOCK
    enc = IncrementalEncoder(m.encoder, eps)
    calls = kept_mask_calls(monkeypatch, enc)
    got = pushed_in_pieces(enc.push, frames, [4] * 17)
    assert np.array_equal(got, want)
    # layer l (from 0) gets its first row at push l * eps + 1 and emits one
    # row per push from push (l + 1) * eps + 1 on; at eps 0 the flush brings
    # one row and emits it the same way
    flush = 3 if eps == 0 else 0
    assert len(calls) == sum(17 - (layer + 1) * eps for layer in range(3)) + flush
    assert max(calls) > ROW_BLOCK


@pytest.mark.parametrize("eps", [0, 1, 2, 3])
def test_uneven_chunks_with_the_bits_of_encode(eps):
    # chunks of 1 to 9 frames bring zero, one or several rows, so a layer
    # emits none, one or several rows per push, and the rows are encode's
    m = tiny_model(53, e_layers=3)
    rng = np.random.default_rng(54 + eps)
    frames = rng.standard_normal((150, 4)).astype(np.float32)
    want = encode(frames, m.encoder, eps)
    for _ in range(4):
        sizes = [int(c) for c in rng.integers(1, 10, size=30)]
        got = pushed_in_pieces(IncrementalEncoder(m.encoder, eps).push, frames,
                               sizes[:np.searchsorted(np.cumsum(sizes), 150)])
        assert np.array_equal(got, want)


@pytest.mark.parametrize("chunk", [None, 1, 7, 12, 28])
def test_position_rows_cross_a_block_with_the_bits_of_each_position(monkeypatch, chunk):
    # the encoder reads its positional rows from the process-wide blocks
    # of ROW_BLOCK positions; rows on either side of a block's end, read
    # offline (chunk None) or by pushes whose rows span it (chunks of 12
    # and 28 frames give 3 and 7 rows), keep each position's own bits
    calls, seen = [], []
    compute = encoder.positional_encodings
    take = encoder.position_rows

    def counted(positions, d_model):
        calls.append(len(positions))
        return compute(positions, d_model)

    def recorded(start, stop, d_model):
        rows = take(start, stop, d_model)
        seen.append((start, stop, rows))
        return rows

    m = tiny_model(52)
    frames = np.random.default_rng(53).standard_normal((200, 4)).astype(np.float32)
    encoder._position_block.cache_clear()
    monkeypatch.setattr(encoder, "positional_encodings", counted)
    monkeypatch.setattr(encoder, "position_rows", recorded)
    if chunk is None:
        got = encode(frames, m.encoder, 1)
    else:
        got = pushed_in_pieces(IncrementalEncoder(m.encoder, 1).push, frames,
                               [chunk] * (200 // chunk))
    assert [start for start, _, _ in seen] == [0] + [stop for _, stop, _ in seen[:-1]]
    assert seen[-1][1] == got.shape[0] == 50
    for start, stop, rows in seen:
        assert rows.shape == (stop - start, m.encoder.d_model) and rows.dtype == np.float32
        for i, row in enumerate(rows):
            assert (row == positional_encodings([start + i], m.encoder.d_model)).all()
            assert (row == positional_encoding_per_row(start + i, m.encoder.d_model)).all()
    # one call per block of ROW_BLOCK rows, not one per push, and none for
    # a second encoder, which reads the kept blocks
    assert calls == [ROW_BLOCK] * 4
    assert np.array_equal(encode(frames, m.encoder, 1), got)
    assert calls == [ROW_BLOCK] * 4


def test_encoder_rejects_bad_lookahead_and_missing_input():
    m = tiny_model(51)
    for eps in (-1, 1.5, math.nan, True, "3", None):
        with pytest.raises(ValueError, match="eps_enc"):
            encode(np.zeros((8, 4), dtype=np.float32), m.encoder, eps)
    for final in (False, True):
        with pytest.raises(ValueError, match="input too short"):
            IncrementalEncoder(m.encoder, 1).push(None, final=final)


def test_encoder_rejects_value_heads_of_another_width():
    # the engine projects Q, K and V with one stacked weight, so it needs
    # d_v == d_k; the reference layer does not, so the engine says so
    m = tiny_model(52)
    mha = m.encoder.layers[-1].mha
    h, d_model, d_k = mha.w_q.shape
    mha.w_v = np.zeros((h, d_model, d_k + 1), dtype=np.float32)
    mha.w_h = np.zeros((h * (d_k + 1), d_model), dtype=np.float32)
    mha.validate(d_model)
    msg = f"d_v {d_k + 1}, d_k {d_k}"
    with pytest.raises(ValueError, match=msg):
        IncrementalEncoder(m.encoder, 1)
    with pytest.raises(ValueError, match=msg):
        encode(np.zeros((8, 4), dtype=np.float32), m.encoder, 1)


@settings(max_examples=40, deadline=None)
@given(ch=st.integers(1, 3), t=st.integers(1, 14), f=st.integers(1, 12),
       sizes=st.lists(st.integers(0, 5), max_size=5), seed=st.integers(0, 2**32 - 1))
def test_conv_rows_pushed_in_pieces_equal_the_np_pad_conv(ch, t, f, sizes, seed):
    # the conv stage pads by writing rows into a zero buffer; its output
    # rows equal one padded convolution of the whole input
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((ch, t, f)).astype(np.float32)
    w = rng.standard_normal((2, ch, 3, 3)).astype(np.float32)
    b = rng.standard_normal(2).astype(np.float32)
    conv = encoder._ConvRows(w, b)
    out, i = [], 0
    for size in sizes:
        out.append(conv.push(x[:, i:i + size], final=False))
        i += size
    out.append(conv.push(x[:, i:], final=False))
    out.append(conv.push(None, final=True))
    want = kernels.relu(conv2d_np_pad(x, w, 2, 1) + b[:, None, None])
    assert (np.concatenate(out, axis=1) == want).all()


@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.int16])
def test_encode_gives_float32_bits_for_any_real_dtype(dtype):
    m = tiny_model(52)
    values = np.random.default_rng(53).integers(-3, 4, size=(19, 4))
    want = encode(values.astype(np.float32), m.encoder, 1)
    got = encode(FeatureMatrix(values.astype(dtype)), m.encoder, 1)
    assert got.dtype == np.float32 and (got == want).all()
    halves = np.random.default_rng(54).standard_normal((19, 4)).astype(np.float32)
    assert (encode(halves.astype(np.float64), m.encoder, 1)
            == encode(halves, m.encoder, 1)).all()


def test_encode_rejects_features_that_are_not_real_numbers():
    m = tiny_model(55)
    for bad in (np.zeros((8, 4), dtype=complex), np.full((8, 4), "1")):
        with pytest.raises(ValueError, match="real numbers"):
            encode(bad, m.encoder, 1)


def test_push_rows_keeps_no_view_of_its_input():
    m = tiny_model(56, e_layers=2)
    x0 = np.random.default_rng(57).standard_normal((6, 8)).astype(np.float32)
    whole = IncrementalEncoder(m.encoder, 2).push_rows(x0, final=True)
    enc = IncrementalEncoder(m.encoder, 2)
    x = x0.copy()
    first = enc.push_rows(x[:4])
    x[:4] = 0.0  # rows still pending in the layers must not see this
    got = np.concatenate([first, enc.push_rows(x0[4:], final=True)])
    assert (got == whole).all()


def test_engine_rejects_a_width_change_and_keeps_its_state():
    m = tiny_model(58)
    frames = np.random.default_rng(59).standard_normal((16, 4)).astype(np.float32)
    enc = IncrementalEncoder(m.encoder, 1)
    first = enc.push(frames[:7])
    with pytest.raises(ValueError, match="got 5 feature columns, the model takes 4"):
        enc.push(np.zeros((3, 5), dtype=np.float32))
    got = np.concatenate([first, enc.push(frames[7:], final=True)])
    assert (got == encode(frames, m.encoder, 1)).all()


@pytest.mark.parametrize("width", [5, 6, 7, 9])
def test_encode_rejects_features_of_another_width(width):
    # 5 to 7 columns give the conv stack the output width 8 does, and 9
    # used to fail only at the projection's matmul
    m = random_model(0, d_feat=8)
    with pytest.raises(ValueError, match=f"got {width} feature columns, the model takes 8"):
        encode(np.zeros((12, width)), m.encoder, 1)
    assert encode(np.zeros((12, 8)), m.encoder, 1).shape == (3, 16)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_encode_rejects_non_finite_features(bad):
    m = random_model(0, d_feat=8)
    frames = np.zeros((12, 8), dtype=np.float32)
    frames[5, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        encode(frames, m.encoder, 1)


def test_a_rejected_first_push_leaves_the_engine_fresh():
    m = tiny_model(60)
    frames = np.random.default_rng(61).standard_normal((16, 4)).astype(np.float32)
    enc = IncrementalEncoder(m.encoder, 1)
    for bad in (np.zeros((3, 5)), np.full((3, 4), np.nan), np.zeros((3, 4, 1))):
        with pytest.raises(ValueError):
            enc.push(bad)
    assert enc.frames == 0 and enc.rows == 0
    got = np.concatenate([enc.push(frames[:7]), enc.push(frames[7:], final=True)])
    assert (got == encode(frames, m.encoder, 1)).all()
