import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamasr import kernels
from oracles import (conv2d_np_pad, conv2d_oracle, conv_time_slab_window_view,
                     layer_norm_np_mean, layer_norm_oracle, log_add_oracle)

NEG_INF = float("-inf")


def pad1(x):
    """x (in_ch, T, F) zero-padded by one on both sides of time and frequency."""
    return np.pad(x, ((0, 0), (1, 1), (1, 1)))


def test_layer_norm_constant_row_collapses_to_bias():
    g = np.array([2.0, 3.0, 4.0])
    b = np.array([0.5, -0.5, 1.0])
    out = kernels.layer_norm(np.array([[7.0, 7.0, 7.0]]), g, b)
    # zero variance: the normalized row is ~0, leaving just the bias
    assert np.allclose(out, b[None, :], atol=1e-5)


def test_layer_norm_unit_pair_is_fixed_point():
    ones = np.ones(2)
    zeros = np.zeros(2)
    out = kernels.layer_norm(np.array([[1.0, -1.0]]), ones, zeros)
    assert np.allclose(out, [[1.0, -1.0]], atol=1e-6)


def test_layer_norm_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    m = rng.normal(scale=2.0, size=(10, 6))
    g = rng.uniform(0.5, 1.5, 6)
    b = rng.uniform(-1.0, 1.0, 6)
    assert np.allclose(kernels.layer_norm(m, g, b), layer_norm_oracle(m, g, b), atol=1e-6)


def test_layer_norm_shape_mismatch():
    with pytest.raises(ValueError, match="layer_norm shape mismatch"):
        kernels.layer_norm(np.zeros((2, 3)), np.ones(4), np.zeros(3))


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(0, 12), cols=st.integers(1, 300),
       scale=st.sampled_from([1e-20, 1e-6, 1e-3, 1.0, 1e4, 1e18]),
       offset=st.sampled_from([0.0, 7.5, -3e3]), dtype=st.sampled_from([np.float32, np.float64]),
       strided=st.booleans(), constant=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_layer_norm_equals_its_np_mean_form(rows, cols, scale, offset, dtype, strided, constant,
                                            seed):
    # sum / n repeats np.mean's pairwise sum and its one division, bit for bit;
    # one row takes the scalar steps, its square root as a Python float.  A constant
    # row has a variance of 0 (or of rounding), where eps decides; at 1e-6
    # var is near eps.
    rng = np.random.default_rng(seed)
    m = (rng.standard_normal((rows, 2 * cols)) * scale + offset).astype(dtype)
    if constant:
        m[:] = m[:, :1]
    m = m[:, ::2] if strided else m[:, :cols]
    gain = rng.standard_normal(cols).astype(dtype)
    bias = rng.standard_normal(cols).astype(dtype)
    # float32 squares near 1e18 may sum past float32's range: both forms
    # then divide by an infinite root alike
    with np.errstate(over="ignore"):
        got = kernels.layer_norm(m, gain, bias)
        want = layer_norm_np_mean(m, gain, bias)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert (got == want).all()


def test_layer_norm_one_row_equals_its_np_mean_form_at_the_edges():
    # the one-row branch, which every dtype takes, against np.mean at tiny,
    # huge and constant rows, and at a scale of 1e-6, where var is near eps
    # and both roundings count
    rng = np.random.default_rng(12)
    for dtype, scale in itertools.product((np.float32, np.float64),
                                          (1e-20, 1e-6, 1e-3, 1.0, 1e18)):
        for offset in (0.0, 7.5, -3e3):
            for cols in (1, 2, 64, 257):
                m = (rng.standard_normal((1, cols)) * scale + offset).astype(dtype)
                for row in (m, np.full_like(m, m[0, 0])):
                    gain = rng.standard_normal(cols).astype(dtype)
                    bias = rng.standard_normal(cols).astype(dtype)
                    got = kernels.layer_norm(row, gain, bias)
                    want = layer_norm_np_mean(row, gain, bias)
                    assert got.dtype == want.dtype == dtype
                    assert (got == want).all()


class _Sub(np.ndarray):
    """An ndarray subclass: the kernels' one-step entry test takes only
    plain arrays, and sends this through the conversion and checks."""


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_kernels_give_lists_and_subclasses_the_bits_of_plain_arrays(rows, dtype):
    rng = np.random.default_rng(13)
    m = rng.standard_normal((rows, 6)).astype(dtype)
    gain, bias = rng.standard_normal((2, 6)).astype(dtype)
    w = rng.standard_normal((6, 5)).astype(dtype)
    want_norm = layer_norm_np_mean(m, gain, bias)
    want_product = _per_row_matmul(m, w)
    for form in (np.ndarray.tolist, lambda a: a.view(_Sub)):
        if form is np.ndarray.tolist and dtype == np.float32:
            continue  # a list of Python floats is float64
        norm = kernels.layer_norm(form(m), form(gain), form(bias))
        assert type(norm) is np.ndarray and norm.dtype == dtype and (norm == want_norm).all()
        product = kernels.matmul(form(m), form(w))
        assert type(product) is np.ndarray and product.dtype == dtype
        assert (product == want_product).all()


@pytest.mark.parametrize("m, gain, bias", [
    (np.zeros((2, 3)), np.ones(4), np.zeros(3)),
    (np.zeros((2, 3)), np.ones(3), np.zeros(2)),
    (np.zeros((2, 3)), np.ones((1, 3)), np.zeros(3)),
    (np.zeros(3), np.ones(3), np.zeros(3)),
    (np.zeros((1, 2, 3)), np.ones(3), np.zeros(3)),
    ([[0.0, 1.0, 2.0]], [1.0, 1.0], [0.0, 0.0, 0.0]),
    (np.zeros((1, 3)).view(_Sub), np.ones(3), np.zeros(4)),
    (np.zeros((1, 3), dtype=np.float32), np.ones(3, dtype=np.float32), np.zeros(())),
])
def test_layer_norm_names_the_shapes_it_rejects(m, gain, bias):
    shapes = tuple(np.shape(a) for a in (m, gain, bias))
    message = "layer_norm shape mismatch: m {}, gain {}, bias {}".format(*shapes)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        kernels.layer_norm(m, gain, bias)


@pytest.mark.parametrize("a, b", [
    (np.zeros((2, 3)), np.zeros((4, 2))),
    (np.zeros(3), np.zeros((3, 2))),
    (np.zeros((1, 3)), np.zeros(3)),
    (np.zeros((1, 1, 3)), np.zeros((3, 2))),
    ([[1.0, 2.0]], [[1.0, 2.0]]),
    (np.zeros((1, 3)).view(_Sub), np.zeros((2, 2), dtype=np.float32)),
])
def test_matmul_names_the_shapes_it_rejects(a, b):
    message = f"matmul shape mismatch: {np.shape(a)} @ {np.shape(b)}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        kernels.matmul(a, b)


def test_matmul_rows_independent_of_batch():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 4)).astype(np.float32)
    b = rng.standard_normal((4, 6)).astype(np.float32)
    whole = kernels.matmul(a, b)
    for i in range(5):
        assert np.array_equal(whole[i], kernels.matmul(a[i:i + 1], b)[0])


def _per_row_matmul(a, b):
    """The row loop kernels.matmul replaced; its bits are the reference."""
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    for i in range(a.shape[0]):
        out[i] = a[i] @ b
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
def test_matmul_equals_per_row_loop(dtype, layout):
    rng = np.random.default_rng(10)

    def operand(rows, cols):
        if layout == "strided":
            return rng.standard_normal((2 * rows, 3 * cols)).astype(dtype)[::2, 1::3]
        x = rng.standard_normal((rows, cols)).astype(dtype)
        return np.asfortranarray(x) if layout == "fortran" else x

    for d in (1, 16, 40, 64, 256):
        for m in (0, 1, 7, 150):
            for n in (1, 16, 65):
                a, b = operand(m, d), operand(d, n)
                got = kernels.matmul(a, b)
                want = _per_row_matmul(a, b)
                assert got.shape == want.shape == (m, n)
                assert got.dtype == want.dtype == dtype
                assert np.array_equal(got, want), (d, m, n)


def test_matmul_mixed_precision_equals_per_row_loop():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((9, 16)).astype(np.float32)
    b = rng.standard_normal((16, 5))
    got = kernels.matmul(a, b)
    assert got.dtype == np.float64
    assert np.array_equal(got, _per_row_matmul(a, b))


def test_matmul_shape_error():
    with pytest.raises(ValueError, match="matmul shape mismatch"):
        kernels.matmul(np.zeros((2, 3)), np.zeros((4, 2)))


def test_conv2d_identity_kernel_reproduces_input():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 5, 6))
    k = np.zeros((1, 1, 3, 3))
    k[0, 0, 1, 1] = 1.0
    out = kernels.conv2d(pad1(x), k, stride=1)
    assert np.allclose(out, x)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 7, 16])
def test_conv2d_stride2_length(t):
    x = np.zeros((1, t, 4))
    k = np.zeros((2, 1, 3, 3))
    out = kernels.conv2d(pad1(x), k, stride=2)
    assert out.shape[1] == (t + 2 - 3) // 2 + 1 == math.ceil(t / 2)


def test_conv2d_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    for stride, pad in [(1, 1), (2, 1), (1, 0), (2, 0)]:
        x = rng.standard_normal((2, 6, 5))
        k = rng.standard_normal((3, 2, 3, 3))
        got = kernels.conv2d(np.pad(x, ((0, 0), (pad, pad), (pad, pad))), k, stride=stride)
        assert np.allclose(got, conv2d_oracle(x, k, stride, pad), atol=1e-10)


def bits(a):
    """The bit patterns of a float32 or float64 array: -0.0 differs from +0.0."""
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


# channel pairs (in, out), the mid model's two convs among them
CONV_CHANNELS = st.one_of(st.tuples(st.integers(1, 3), st.integers(1, 4)),
                          st.sampled_from([(1, 16), (16, 32)]))


@settings(max_examples=200, deadline=None)
@given(channels=CONV_CHANNELS, k_h=st.integers(1, 3), k_w=st.integers(1, 3),
       f_extra=st.integers(0, 40), stride=st.integers(1, 3),
       values=st.sampled_from(["normal", "relu", "zero"]),
       weights=st.sampled_from(["mixed", "negative"]),
       layout=st.sampled_from(["contiguous", "time-slice", "freq-strided"]),
       seed=st.integers(0, 2**32 - 1))
def test_conv_time_slab_equals_its_window_view_form(channels, k_h, k_w, f_extra, stride, values,
                                                    weights, layout, seed):
    # float32, the model dtype, whose einsum order the array path keeps;
    # f_extra < stride gives f_out == 1, einsum's own path, in the draws.
    # "time-slice" windows are rows of a (ch, T, F) buffer, as conv2d
    # passes them; "freq-strided" ones have a frequency stride of two
    # items.  ReLU-style and all-zero windows make zero products of both
    # signs (all -0.0 under negative weights), so the bit comparison tells
    # -0.0 from +0.0
    in_ch, out_ch = channels
    f = k_w + f_extra
    rng = np.random.default_rng(seed)
    buf = rng.standard_normal((in_ch, k_h + 3, 2 * f)).astype(np.float32)
    if values == "relu":
        buf = np.maximum(buf, 0)
    elif values == "zero":
        buf[:] = 0
    if layout == "contiguous":
        window = np.ascontiguousarray(buf[:, :k_h, :f])
    elif layout == "time-slice":
        window = buf[:, 2:2 + k_h, :f]
    else:
        window = buf[:, :k_h, ::2]
    kern = rng.standard_normal((out_ch, in_ch, k_h, k_w)).astype(np.float32)
    if weights == "negative":
        kern = -np.abs(kern)
    got = kernels.conv_time_slab(window, kern, stride)
    want = conv_time_slab_window_view(window, kern, stride)
    assert got.dtype == want.dtype and got.shape == (want.shape[0], 1, want.shape[1])
    assert (bits(got[:, 0]) == bits(want)).all()


@settings(max_examples=150, deadline=None)
@given(in_ch=st.integers(1, 16), out_ch=st.integers(1, 32), rows=st.integers(1, 40),
       f_out=st.integers(1, 12), k_h=st.integers(1, 3), k_w=st.integers(1, 3),
       stride=st.integers(1, 3), block_rows=st.one_of(st.none(), st.integers(1, 8)),
       layout=st.sampled_from(["contiguous", "time-slice", "freq-strided"]),
       seed=st.integers(0, 2**32 - 1))
def test_conv_time_slab_blocks_equal_the_per_row_window_view_form(in_ch, out_ch, rows, f_out,
                                                                  k_h, k_w, stride, block_rows,
                                                                  layout, seed):
    # a slab of many output rows, cut into blocks of block_rows rows (None:
    # the module's own block size), so row counts fall on both sides of a
    # block boundary; a quarter of the inputs are +0.0 and a quarter -0.0,
    # and the weights are negative half the time, so zero products of both
    # signs arise, and every output row must carry the bits, sign bits
    # included, of the per-row einsum over its own window
    rng = np.random.default_rng(seed)
    t = stride * (rows - 1) + k_h
    f = stride * (f_out - 1) + k_w + int(rng.integers(0, stride))
    buf = rng.standard_normal((in_ch, t + 3, 2 * f)).astype(np.float32)
    zeros = rng.integers(0, 4, buf.shape)
    buf[zeros == 0] = 0.0
    buf[zeros == 1] = -0.0
    if layout == "contiguous":
        slab = np.ascontiguousarray(buf[:, :t, :f])
    elif layout == "time-slice":
        slab = buf[:, 2:2 + t, :f]
    else:
        slab = buf[:, :t, ::2]
    kern = rng.standard_normal((out_ch, in_ch, k_h, k_w)).astype(np.float32)
    if rng.integers(0, 2):
        kern = -np.abs(kern)
    budget = kernels.CONV_BLOCK_PRODUCTS
    if block_rows is not None:
        kernels.CONV_BLOCK_PRODUCTS = block_rows * k_w * in_ch * k_h * f_out * out_ch
    try:
        got = kernels.conv_time_slab(slab, kern, stride, kernels.conv_columns(kern))
    finally:
        kernels.CONV_BLOCK_PRODUCTS = budget
    assert got.dtype == np.float32 and got.shape == (out_ch, rows, f_out)
    for i in range(rows):
        want = conv_time_slab_window_view(slab[:, i * stride:i * stride + k_h], kern, stride)
        assert (bits(got[:, i]) == bits(want)).all()


@settings(max_examples=80, deadline=None)
@given(in_ch=st.integers(1, 3), out_ch=st.integers(1, 3), t=st.integers(3, 12),
       f=st.integers(3, 20), stride=st.integers(1, 2), pad=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1))
def test_conv2d_equals_its_np_pad_form(in_ch, out_ch, t, f, stride, pad, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((in_ch, t, f)).astype(np.float32)
    kern = rng.standard_normal((out_ch, in_ch, 3, 3)).astype(np.float32)
    got = kernels.conv2d(np.pad(x, ((0, 0), (pad, pad), (pad, pad))), kern, stride)
    want = conv2d_np_pad(x, kern, stride, pad)
    assert got.dtype == want.dtype and (bits(got) == bits(want)).all()


def test_conv2d_linearity():
    rng = np.random.default_rng(6)
    x1 = rng.standard_normal((1, 6, 4))
    x2 = rng.standard_normal((1, 6, 4))
    k = rng.standard_normal((2, 1, 3, 3))
    lhs = kernels.conv2d(pad1(x1 + 2.0 * x2), k, stride=2)
    rhs = kernels.conv2d(pad1(x1), k, stride=2) + 2.0 * kernels.conv2d(pad1(x2), k, stride=2)
    assert np.allclose(lhs, rhs, atol=1e-5)


def test_conv2d_too_short_raises():
    k = np.zeros((1, 1, 3, 3))
    with pytest.raises(ValueError, match="input too short"):
        kernels.conv2d(np.zeros((1, 2, 2)), k, stride=1)


def test_conv2d_channel_mismatch():
    with pytest.raises(ValueError, match="channel mismatch"):
        kernels.conv2d(np.zeros((2, 4, 4)), np.zeros((1, 3, 3, 3)), stride=1)


def test_log_add_exact_neg_inf():
    assert kernels.log_add(NEG_INF, -1.5) == -1.5
    assert kernels.log_add(-1.5, NEG_INF) == -1.5
    assert kernels.log_add(NEG_INF, NEG_INF) == NEG_INF


@settings(max_examples=80, deadline=None)
@given(st.floats(-700, 80), st.floats(-700, 80))
def test_log_add_matches_oracle(a, b):
    assert kernels.log_add(a, b) == pytest.approx(log_add_oracle(a, b), abs=1e-12)


def test_log_add_is_commutative_and_monotone():
    assert kernels.log_add(-3.0, -1.0) == kernels.log_add(-1.0, -3.0)
    assert kernels.log_add(-3.0, -1.0) > -1.0


def test_log_softmax_f64_normalizes_and_orders():
    rng = np.random.default_rng(7)
    z = rng.normal(scale=5.0, size=12)
    out = kernels.log_softmax_f64(z)
    assert out.dtype == np.float64
    assert abs(np.exp(out).sum() - 1.0) < 1e-12
    assert np.argmax(out) == np.argmax(z)


@settings(max_examples=80, deadline=None)
@given(rows=st.integers(1, 9), cols=st.integers(1, 70), scale=st.sampled_from([1e-3, 1.0, 40.0]),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
def test_log_softmax_f64_rows_equal_the_vector_call(rows, cols, scale, dtype, seed):
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((rows, cols)) * scale).astype(dtype)
    got = kernels.log_softmax_f64(z)
    assert got.dtype == np.float64 and got.shape == z.shape
    for i in range(rows):
        assert (got[i] == kernels.log_softmax_f64(z[i])).all()


def test_log_softmax_f64_rejects_other_ranks_and_keeps_empty_batches():
    with pytest.raises(ValueError, match="vector or a matrix"):
        kernels.log_softmax_f64(np.zeros((2, 2, 3)))
    assert kernels.log_softmax_f64(np.zeros((0, 5))).shape == (0, 5)


def test_relu_clamps_negatives():
    out = kernels.relu(np.array([-2.0, 0.0, 3.5]))
    assert np.array_equal(out, [0.0, 0.0, 3.5])


def test_repeated_calls_are_bit_identical():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 6)).astype(np.float32)
    b = rng.standard_normal((6, 6)).astype(np.float32)
    assert np.array_equal(kernels.matmul(a, b), kernels.matmul(a, b))
    assert np.array_equal(
        kernels.conv2d(pad1(a[None, :, :]), b.reshape(4, 1, 3, 3), 2),
        kernels.conv2d(pad1(a[None, :, :]), b.reshape(4, 1, 3, 3), 2),
    )


@pytest.mark.parametrize("bad", ["nan", "+inf", "all -inf"])
def test_log_softmax_f64_refuses_a_matrix_row_with_no_distribution(bad):
    z = np.random.default_rng(12).standard_normal((3, 6))
    if bad == "all -inf":
        z[1] = -np.inf
    else:
        z[1, 4] = float(bad)
    with pytest.raises(ValueError, match="row of logits holds NaN or \\+inf"):
        kernels.log_softmax_f64(z)


def test_log_softmax_f64_keeps_a_minus_inf_logit_as_probability_zero():
    z = np.random.default_rng(13).standard_normal((3, 6))
    z[1, 4] = -np.inf
    out = kernels.log_softmax_f64(z)
    assert out[1, 4] == -np.inf
    assert np.isfinite(np.delete(out[1], 4)).all() and np.isfinite(out[[0, 2]]).all()
    assert (out[1] == kernels.log_softmax_f64(z[1])).all()
