import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamasr import kernels
from oracles import (conv2d_oracle, layer_norm_oracle, log_add_oracle,
                     softmax_oracle)

NEG_INF = float("-inf")


def test_softmax_uniform_pair():
    out = kernels.softmax_rows(np.array([[0.0, 0.0]]))
    assert np.allclose(out, [[0.5, 0.5]])


def test_softmax_neg_inf_gets_zero_weight():
    out = kernels.softmax_rows(np.array([[1.7, NEG_INF]]))
    assert out[0, 0] == 1.0
    assert out[0, 1] == 0.0


def test_softmax_all_masked_row_raises():
    with pytest.raises(ValueError, match="empty attention row"):
        kernels.softmax_rows(np.array([[NEG_INF, NEG_INF]]))


def test_softmax_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    m = rng.normal(scale=3.0, size=(20, 7))
    out = kernels.softmax_rows(m)
    for i in range(20):
        assert np.allclose(out[i], softmax_oracle(m[i]), atol=1e-7)


def test_softmax_rows_are_independent():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(6, 5))
    whole = kernels.softmax_rows(m)
    for i in range(6):
        alone = kernels.softmax_rows(m[i:i + 1])
        assert np.array_equal(whole[i], alone[0])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8))
def test_softmax_normalizes(row):
    out = kernels.softmax_rows(np.array([row]))
    assert abs(out.sum() - 1.0) < 1e-6
    assert (out >= 0).all()


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
    out = kernels.conv2d(x, k, stride=1, pad=1)
    assert np.allclose(out, x)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 7, 16])
def test_conv2d_stride2_length(t):
    x = np.zeros((1, t, 4))
    k = np.zeros((2, 1, 3, 3))
    out = kernels.conv2d(x, k, stride=2, pad=1)
    assert out.shape[1] == (t + 2 - 3) // 2 + 1 == math.ceil(t / 2)


def test_conv2d_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    for stride, pad in [(1, 1), (2, 1), (1, 0), (2, 0)]:
        x = rng.standard_normal((2, 6, 5))
        k = rng.standard_normal((3, 2, 3, 3))
        got = kernels.conv2d(x, k, stride=stride, pad=pad)
        assert np.allclose(got, conv2d_oracle(x, k, stride, pad), atol=1e-10)


def test_conv2d_linearity():
    rng = np.random.default_rng(6)
    x1 = rng.standard_normal((1, 6, 4))
    x2 = rng.standard_normal((1, 6, 4))
    k = rng.standard_normal((2, 1, 3, 3))
    lhs = kernels.conv2d(x1 + 2.0 * x2, k, stride=2, pad=1)
    rhs = kernels.conv2d(x1, k, stride=2, pad=1) + 2.0 * kernels.conv2d(x2, k, stride=2, pad=1)
    assert np.allclose(lhs, rhs, atol=1e-5)


def test_conv2d_too_short_raises():
    k = np.zeros((1, 1, 3, 3))
    with pytest.raises(ValueError, match="input too short"):
        kernels.conv2d(np.zeros((1, 2, 2)), k, stride=1, pad=0)


def test_conv2d_channel_mismatch():
    with pytest.raises(ValueError, match="channel mismatch"):
        kernels.conv2d(np.zeros((2, 4, 4)), np.zeros((1, 3, 3, 3)), stride=1, pad=1)


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


def test_relu_clamps_negatives():
    out = kernels.relu(np.array([-2.0, 0.0, 3.5]))
    assert np.array_equal(out, [0.0, 0.0, 3.5])


def test_repeated_calls_are_bit_identical():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 6)).astype(np.float32)
    b = rng.standard_normal((6, 6)).astype(np.float32)
    assert np.array_equal(kernels.matmul(a, b), kernels.matmul(a, b))
    assert np.array_equal(kernels.softmax_rows(a), kernels.softmax_rows(a))
    assert np.array_equal(
        kernels.conv2d(a[None, :, :], b.reshape(4, 1, 3, 3), 2, 1),
        kernels.conv2d(a[None, :, :], b.reshape(4, 1, 3, 3), 2, 1),
    )
