import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamasr import attention, kernels
from streamasr.attention import (KeyValues, MhaParams, causal_mask, full_mask,
                                 lookahead_mask, multi_head_attention,
                                 project_heads, scaled_dot_attention,
                                 truncation_mask)
from oracles import attention_oracle, mha_oracle, row_loop_attention


def rand_mha(rng, heads, d_model, d_k):
    return MhaParams(
        w_q=rng.standard_normal((heads, d_model, d_k)).astype(np.float32) / math.sqrt(d_model),
        w_k=rng.standard_normal((heads, d_model, d_k)).astype(np.float32) / math.sqrt(d_model),
        w_v=rng.standard_normal((heads, d_model, d_k)).astype(np.float32) / math.sqrt(d_model),
        w_h=rng.standard_normal((heads * d_k, d_model)).astype(np.float32) / math.sqrt(d_model),
    )


def test_single_visible_key_copies_its_value():
    q = np.array([[3.0, -1.0]])
    k = np.array([[0.1, 0.2], [5.0, 5.0]])
    v = np.array([[7.0, 8.0], [9.0, 10.0]])
    mask = np.array([[False, True]])
    out = scaled_dot_attention(q, k, v, mask)
    assert np.array_equal(out, [[9.0, 10.0]])


def test_identical_keys_average_values():
    q = np.array([[1.0, 2.0]])
    k = np.tile(np.array([[0.5, -0.5]]), (4, 1))
    v = np.arange(8.0).reshape(4, 2)
    out = scaled_dot_attention(q, k, v, full_mask(1, 4))
    assert np.allclose(out, v.mean(axis=0), atol=1e-6)


def test_attention_matches_scalar_oracle():
    rng = np.random.default_rng(10)
    q = rng.standard_normal((5, 4))
    k = rng.standard_normal((7, 4))
    v = rng.standard_normal((7, 3))
    mask = rng.random((5, 7)) < 0.6
    mask[:, 0] = True  # keep every row non-empty
    got = scaled_dot_attention(q, k, v, mask)
    assert np.allclose(got, attention_oracle(q, k, v, mask), atol=1e-6)


def test_attention_empty_row_raises():
    with pytest.raises(ValueError, match="empty attention row"):
        scaled_dot_attention(np.ones((1, 2)), np.ones((2, 2)), np.ones((2, 2)),
                             np.zeros((1, 2), dtype=bool))


def test_masked_rows_are_physically_absent():
    # perturbing a disallowed key/value row cannot change the output bits
    rng = np.random.default_rng(11)
    q = rng.standard_normal((3, 4))
    k = rng.standard_normal((6, 4))
    v = rng.standard_normal((6, 4))
    mask = lookahead_mask(3, 6, 1)
    base = scaled_dot_attention(q, k, v, mask)
    k2, v2 = k.copy(), v.copy()
    # with lookahead 1 query i sees keys j <= i+1, so row 5 is invisible to all three
    k2[5] += 100.0
    v2[5] -= 100.0
    out = scaled_dot_attention(q, k2, v2, mask)
    assert np.array_equal(base, out)


def test_mask_widening_keeps_unchanged_rows_bit_identical():
    # growing the key set only changes rows whose allowed set actually grew
    rng = np.random.default_rng(12)
    q = rng.standard_normal((4, 4))
    k = rng.standard_normal((8, 4))
    v = rng.standard_normal((8, 4))
    narrow = lookahead_mask(4, 8, 1)
    wide = lookahead_mask(4, 8, 4)
    a = scaled_dot_attention(q, k, v, narrow)
    b = scaled_dot_attention(q, k, v, wide)
    for i in range(4):
        if np.array_equal(narrow[i], wide[i]):
            assert np.array_equal(a[i], b[i])


def test_key_permutation_invariance():
    rng = np.random.default_rng(13)
    q = rng.standard_normal((2, 3))
    k = rng.standard_normal((5, 3))
    v = rng.standard_normal((5, 3))
    perm = rng.permutation(5)
    base = scaled_dot_attention(q, k, v, full_mask(2, 5))
    shuffled = scaled_dot_attention(q, k[perm], v[perm], full_mask(2, 5))
    assert np.allclose(base, shuffled, atol=1e-6)


def test_single_head_identity_projections_reduce_to_plain_attention():
    rng = np.random.default_rng(14)
    d = 4
    x = rng.standard_normal((5, d)).astype(np.float32)
    eye = np.eye(d, dtype=np.float32)
    params = MhaParams(w_q=eye[None], w_k=eye[None], w_v=eye[None], w_h=eye)
    mask = full_mask(5, 5)
    got = multi_head_attention(x, x, x, params, mask)
    want = scaled_dot_attention(x, x, x, mask)
    assert np.allclose(got, want, atol=1e-6)


def test_multi_head_matches_per_head_oracle():
    rng = np.random.default_rng(15)
    params = rand_mha(rng, heads=2, d_model=6, d_k=3)
    q = rng.standard_normal((4, 6)).astype(np.float32)
    k = rng.standard_normal((7, 6)).astype(np.float32)
    v = rng.standard_normal((7, 6)).astype(np.float32)
    mask = lookahead_mask(4, 7, 2)
    got = multi_head_attention(q, k, v, params, mask)
    assert np.allclose(got, mha_oracle(q, k, v, params, mask), atol=1e-5)


def test_lookahead_mask_shape_and_contents():
    m = lookahead_mask(3, 5, 1)
    want = np.array([
        [True, True, False, False, False],
        [True, True, True, False, False],
        [True, True, True, True, False],
    ])
    assert np.array_equal(m, want)


def test_lookahead_mask_inf_is_full():
    assert np.array_equal(lookahead_mask(3, 4, math.inf), full_mask(3, 4))


def test_lookahead_mask_negative_raises():
    with pytest.raises(ValueError, match="lookahead must be >= 0"):
        lookahead_mask(2, 2, -1)


def test_causal_mask_is_lower_triangular():
    assert np.array_equal(causal_mask(4), np.tril(np.ones((4, 4), dtype=bool)))


def test_truncation_mask_rows_are_key_prefixes():
    m = truncation_mask([1, 3, 2], 4)
    want = np.array([
        [True, False, False, False],
        [True, True, True, False],
        [True, True, False, False],
    ])
    assert np.array_equal(m, want)


def test_mha_param_validation():
    rng = np.random.default_rng(16)
    params = rand_mha(rng, heads=2, d_model=6, d_k=3)
    params.validate(6)
    bad = MhaParams(params.w_q, params.w_k, params.w_v, np.zeros((5, 6), dtype=np.float32))
    with pytest.raises(ValueError, match="w_h shape"):
        bad.validate(6)
    with pytest.raises(ValueError, match="model dim"):
        params.validate(8)


def test_attention_shape_errors():
    with pytest.raises(ValueError, match="query width"):
        scaled_dot_attention(np.ones((1, 3)), np.ones((2, 4)), np.ones((2, 2)),
                             np.ones((1, 2), dtype=bool))
    with pytest.raises(ValueError, match="key rows"):
        scaled_dot_attention(np.ones((1, 3)), np.ones((2, 3)), np.ones((3, 2)),
                             np.ones((1, 2), dtype=bool))
    with pytest.raises(ValueError, match="mask shape"):
        scaled_dot_attention(np.ones((1, 3)), np.ones((2, 3)), np.ones((2, 2)),
                             np.ones((2, 2), dtype=bool))
    with pytest.raises(ValueError, match="head axes differ"):
        scaled_dot_attention(np.ones((2, 1, 3)), np.ones((3, 2, 3)), np.ones((3, 2, 2)),
                             np.ones((1, 2), dtype=bool))


def random_mask(rng, kind, b, n):
    """A (b, n) mask of the given kind whose every row allows some key."""
    if kind == "prefix":
        return truncation_mask(rng.integers(1, n + 1, size=b), n)
    if kind == "lookahead":
        return lookahead_mask(b, n, int(rng.integers(0, n)))
    if kind == "block":
        # contiguous key blocks, each query row reading one of them
        cuts = np.sort(rng.choice(np.arange(1, n), size=min(b, n) - 1, replace=False))
        edges = np.concatenate([[0], cuts, [n]])
        block = rng.integers(0, len(edges) - 1, size=b)
        cols = np.arange(n)
        return (cols >= edges[block][:, None]) & (cols < edges[block + 1][:, None])
    mask = rng.random((b, n)) < rng.uniform(0.05, 0.9)
    mask[np.arange(b), rng.integers(0, n, size=b)] = True
    return mask


@settings(max_examples=120, deadline=None)
@given(heads=st.sampled_from([1, 2, 4]), d=st.integers(4, 32), b=st.integers(1, 20),
       n=st.integers(1, 160), extra=st.integers(0, 8),
       kind=st.sampled_from(["prefix", "lookahead", "block", "random"]),
       interleaved=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stacked_heads_equal_the_row_loop_bit_for_bit(heads, d, b, n, extra, kind,
                                                      interleaved, seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((heads, b, d)).astype(np.float32)
    # keys and values as the decoder's cross cache hands them over: a
    # prefix view of a longer head-major array, or strided head views of
    # (rows, heads * d) matrices
    kv = rng.standard_normal((2, heads, n + extra, d)).astype(np.float32)
    if interleaved:
        kv = kv.transpose(0, 2, 1, 3).copy().transpose(0, 2, 1, 3)
    k, v = kv[0][:, :n], kv[1][:, :n]
    mask = random_mask(rng, kind, b, n)
    got = scaled_dot_attention(q, k, v, mask)
    assert got.shape == (heads, b, d) and got.dtype == np.float32
    for h in range(heads):
        assert (got[h] == row_loop_attention(q[h], k[h], v[h], mask)).all()
    assert (scaled_dot_attention(q[0], k[0], v[0], mask) == got[0]).all()


@pytest.mark.parametrize("heads", [1, 4])
def test_row_alone_equals_row_in_a_group(heads):
    rng = np.random.default_rng(17)
    q = rng.standard_normal((heads, 12, 16)).astype(np.float32)
    k = rng.standard_normal((heads, 40, 16)).astype(np.float32)
    v = rng.standard_normal((heads, 40, 16)).astype(np.float32)
    # two groups of six equal mask rows each
    mask = truncation_mask([25] * 6 + [40] * 6, 40)
    together = scaled_dot_attention(q, k, v, mask)
    for i in range(12):
        alone = scaled_dot_attention(q[:, i:i + 1], k, v, mask[i:i + 1])
        assert (alone[:, 0] == together[:, i]).all()


def test_project_heads_stacks_per_head_matmuls():
    rng = np.random.default_rng(18)
    params = rand_mha(rng, heads=4, d_model=16, d_k=4)
    x = rng.standard_normal((7, 16)).astype(np.float32)
    want = np.stack([kernels.matmul(x, params.w_k[h]) for h in range(4)])
    got = project_heads(x, params.w_k)
    assert got.shape == (4, 7, 4) and got.flags.c_contiguous and (got == want).all()
    kv = KeyValues.project(x[:3], params).append(KeyValues.project(x[3:], params))
    assert kv.rows == 7 and kv.shape == (7, 16) and kv.keys.flags.c_contiguous
    assert (kv.keys == want).all()
    assert (kv.values == np.stack([kernels.matmul(x, params.w_v[h]) for h in range(4)])).all()


@settings(max_examples=150, deadline=None)
@given(heads=st.integers(1, 6), d_model=st.integers(1, 80), d=st.integers(1, 40),
       rows=st.integers(0, 24), strided=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
def test_project_heads_equals_the_per_head_matmul_stack(heads, d_model, d, rows, strided,
                                                        dtype, seed):
    # one broadcast product per (head, row) runs the same vector-matrix
    # routine as kernels.matmul on each head, so the bits match exactly
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((heads, d_model, d)).astype(dtype)
    x = rng.standard_normal((rows, 2 * d_model)).astype(dtype)
    x = x[:, ::2] if strided else x[:, :d_model]
    want = np.stack([kernels.matmul(x, w[h]) for h in range(heads)])
    got = project_heads(x, w)
    assert got.shape == want.shape == (heads, rows, d) and got.dtype == want.dtype
    assert (got == want).all()
