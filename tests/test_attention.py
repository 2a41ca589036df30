import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamasr import attention, kernels
from streamasr.attention import (ROW_BLOCK, KeyValueStore, MhaParams, full_mask,
                                 multi_head_attention, project_heads, scaled_dot_attention)
from oracles import (attention_oracle, causal_mask, lookahead_mask, mha_oracle,
                     project_qkv_separately, row_loop_attention, softmax_attend_stacked,
                     stacked_row_products, truncation_mask)


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
    for lookahead in (3, 3.0, 7):
        assert np.array_equal(lookahead_mask(3, 4, lookahead), full_mask(3, 4))
    assert not lookahead_mask(3, 4, 2)[0, 3]


def test_lookahead_mask_negative_raises():
    with pytest.raises(ValueError, match="lookahead must be >= 0"):
        lookahead_mask(2, 2, -1)
    with pytest.raises(ValueError, match="lookahead must be >= 0"):
        lookahead_mask(2, 2, -math.inf)  # used to pass as an unrestricted mask


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
    for ints in range(3):
        args = [np.ones((2, 3), dtype=np.int64 if i == ints else np.float32) for i in range(3)]
        with pytest.raises(ValueError, match="floating-point"):
            scaled_dot_attention(*args, np.ones((2, 2), dtype=bool))
    # q, k and v share one dtype: nothing promotes a mix
    for wide in range(3):
        for other in (np.float64, np.float16):
            args = [np.ones((2, 3), dtype=other if i == wide else np.float32) for i in range(3)]
            with pytest.raises(ValueError, match="floating-point arrays of one dtype"):
                scaled_dot_attention(*args, np.ones((2, 2), dtype=bool))


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


# print_blob: a failure prints the @reproduce_failure line that replays it
@settings(max_examples=120, deadline=None, print_blob=True)
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

    # keys and values stacked, as a decoder history holds them, and
    # projected in two parts: the rows of the whole projection
    kv = np.empty((2, 4, 7, 4), dtype=np.float32)
    for part in (slice(0, 3), slice(3, 7)):
        kv[:, :, part] = project_heads(x[part], params.w_k), project_heads(x[part], params.w_v)
    assert (kv[0] == want).all()
    assert (kv[1] == np.stack([kernels.matmul(x, params.w_v[h]) for h in range(4)])).all()


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


def each_row_alone(q, k, v, mask):
    """The masked path's bit reference: ``_softmax_attend`` on each query
    row alone over C-contiguous copies of its allowed keys and values."""
    scale = 1.0 / math.sqrt(q.shape[-1])
    out = np.empty(q.shape[:-1] + v.shape[-1:], dtype=np.result_type(q, v))
    for i, row in enumerate(mask):
        idx = np.flatnonzero(row)
        out[..., i:i + 1, :] = attention._softmax_attend(
            np.ascontiguousarray(q[..., i:i + 1, :]), np.take(k, idx, axis=-2),
            np.take(v, idx, axis=-2), scale)
    return out


# print_blob: a failure prints the @reproduce_failure line that replays it
@settings(max_examples=150, deadline=None, print_blob=True)
@given(heads=st.integers(1, 4), d=st.integers(1, 32), b=st.integers(0, 6), n=st.integers(1, 90),
       q_extra=st.integers(0, 3), kv_extra=st.integers(0, 4),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
def test_all_keys_fast_path_equals_the_per_row_reference(heads, d, b, n, q_extra, kv_extra, dtype,
                                                         seed):
    # a mask that lets every row see every key is scored in one stacked
    # call on the arrays where they are stored: queries sliced from a
    # longer pending buffer (the encoder's layers) and keys and values
    # that are prefix views of a longer cache (the decoder's
    # cross-attention); each row must have the bits of that row alone
    # over contiguous copies
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((heads, b + q_extra, d)).astype(dtype)[:, q_extra:]
    kv = rng.standard_normal((2, heads, n + kv_extra, d)).astype(dtype)
    k, v = kv[0][:, :n], kv[1][:, :n]
    mask = full_mask(b, n)
    got = scaled_dot_attention(q, k, v, mask)
    want = each_row_alone(q, k, v, mask)
    assert got.shape == want.shape == (heads, b, d) and got.dtype == want.dtype
    assert (got == want).all()
    for h in range(heads):
        assert (got[h] == row_loop_attention(q[h], k[h], v[h], mask)).all()


def masked_path_mask(rng, kind, b, n):
    """A (b, n) mask of one of the masked path's shapes, every row
    allowing some key: key prefixes, the encoder's staircase of
    prefixes, one run per row that may start past key 0, or any rows."""
    if kind == "prefix":
        return truncation_mask(rng.integers(1, n + 1, size=b), n)
    if kind == "staircase":
        first = int(rng.integers(1, n + 1))
        return np.arange(n) < np.minimum(np.arange(first, first + b), n)[:, None]
    if kind == "run":
        starts = rng.integers(0, n, size=b)
        ends = starts + 1 + rng.integers(0, n - starts)
        cols = np.arange(n)
        return (cols >= starts[:, None]) & (cols < ends[:, None])
    return random_mask(rng, "random", b, n)


@settings(max_examples=200, deadline=None)
@given(heads=st.integers(1, 4), d=st.integers(1, 32), b=st.integers(1, 12),
       blocks=st.lists(st.integers(1, 2 * ROW_BLOCK + 3), min_size=1, max_size=5),
       kind=st.sampled_from(["prefix", "staircase", "run", "random"]),
       q_extra=st.integers(0, 3), offset=st.integers(0, 3), heads_axis=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
def test_masked_path_rows_equal_each_row_alone(heads, d, b, blocks, kind, q_extra, offset,
                                               heads_axis, dtype, seed):
    # the masked path scores many rows in one call: each row's logits
    # product, sum and value product over its own allowed keys, read as
    # views of a block-grown store (also from misaligned storage), and
    # the elementwise steps over rows padded with -inf; every row must
    # have the bits of that row alone over contiguous copies
    rng = np.random.default_rng(seed)
    store = KeyValueStore(rand_mha(rng, heads, 1, d))
    for size in blocks:
        kv = rng.standard_normal((2, heads, size, d)).astype(dtype)
        store.append(kv[0], kv[1])
    n = store.rows
    mask = masked_path_mask(rng, kind, b, n)
    pending = rng.standard_normal((heads, b + q_extra, d)).astype(dtype)
    q = misaligned_copy(pending, offset)[:, q_extra:]
    for k, v in (store.view(n), [misaligned_copy(buf, offset)[:, :n] for buf in store.buffers]):
        args = (q, k, v) if heads_axis else (q[0], k[0], v[0])
        got = scaled_dot_attention(*args, mask)
        want = each_row_alone(*args, mask)
        assert got.shape == want.shape and got.dtype == want.dtype == dtype
        assert (got == want).all()
    for h in range(heads):
        assert (scaled_dot_attention(q[h], k[h], v[h], mask)
                == row_loop_attention(q[h], k[h], v[h], mask)).all()


@settings(max_examples=60, deadline=None)
@given(b=st.integers(1, 6), n=st.integers(1, 40), kind=st.sampled_from(["prefix", "run", "random"]),
       seed=st.integers(0, 2**32 - 1))
def test_masked_path_rejects_an_empty_row(b, n, kind, seed):
    rng = np.random.default_rng(seed)
    mask = masked_path_mask(rng, kind, b, n)
    mask[rng.integers(0, b)] = False
    q = rng.standard_normal((2, b, 4)).astype(np.float32)
    kv = rng.standard_normal((2, 2, n, 4)).astype(np.float32)
    with pytest.raises(ValueError, match="empty attention row"):
        scaled_dot_attention(q, kv[0], kv[1], mask)


def misaligned_copy(a, offset):
    """A C-ordered copy of a whose storage starts ``offset`` elements into
    a fresh allocation."""
    raw = np.empty(a.size + offset, dtype=a.dtype)
    out = raw[offset:].reshape(a.shape)
    out[...] = a
    return out


@settings(max_examples=100, deadline=None)
@given(heads=st.integers(1, 4), d=st.integers(1, 32),
       blocks=st.lists(st.integers(1, 2 * ROW_BLOCK + 3), min_size=1, max_size=6),
       b=st.integers(1, 6), q_extra=st.integers(0, 3), offset=st.integers(0, 3),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
def test_block_grown_store_views_read_the_bits_of_contiguous_copies(heads, d, blocks, b, q_extra,
                                                                     offset, dtype, seed):
    # the all-keys path scores [:, :n] views of a store grown block by
    # block, and query rows sliced from a longer buffer, without a copy:
    # at every growth boundary, and from storage that starts at a
    # misaligned offset, they give the bits of C-contiguous copies
    rng = np.random.default_rng(seed)
    store = KeyValueStore(rand_mha(rng, heads, 1, d))
    pending = rng.standard_normal((heads, b + q_extra, d)).astype(dtype)
    q = pending[:, q_extra:]
    assert store.view()[0].shape == (heads, 0, d)
    appended = []
    for size in blocks:
        capacity = store.capacity
        kv = rng.standard_normal((2, heads, size, d)).astype(dtype)
        store.append(kv[0], kv[1])
        appended.append(kv)
        # the contents are the appended blocks, in order, and fewer than
        # ROW_BLOCK rows are allocated and unused
        keys, values = store.view()
        whole = np.concatenate(appended, axis=2)
        assert (keys == whole[0]).all() and (values == whole[1]).all()
        assert store.capacity % ROW_BLOCK == 0 and 0 <= store.capacity - store.rows < ROW_BLOCK
        # prefixes ending at each block edge crossed, on both sides, and the whole store
        edges = range(capacity, store.rows + 1, ROW_BLOCK)
        for n in sorted({store.rows} | {e + s for e in edges for s in (-1, 0, 1)}):
            if not 1 <= n <= store.rows:
                continue
            k, v = store.view(n)
            assert k.shape == (heads, n, d) and k.base is not None
            mask = full_mask(b, n)
            got = scaled_dot_attention(q, k, v, mask)
            want = scaled_dot_attention(np.ascontiguousarray(q), k.copy(), v.copy(), mask)
            assert got.dtype == want.dtype and (got == want).all()
            mis = [misaligned_copy(buf, offset)[:, :n] for buf in store.buffers]
            assert (scaled_dot_attention(misaligned_copy(q, offset), *mis, mask) == want).all()


# print_blob: a failure prints the @reproduce_failure line that replays it
@settings(max_examples=200, deadline=None, print_blob=True)
@given(heads=st.integers(1, 4), d=st.integers(1, 32), d_v=st.integers(1, 32),
       n=st.integers(1, 400), extra=st.integers(0, ROW_BLOCK), block=st.integers(1, 2 * ROW_BLOCK + 3),
       q_extra=st.integers(0, 3), scale=st.sampled_from([1e-3, 1.0, 8.0]),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
def test_one_query_row_equals_the_stacked_form_bit_for_bit(heads, d, d_v, n, extra, block,
                                                           q_extra, scale, dtype, seed):
    # one query row is scored without the stacking row axis: each product
    # hands BLAS the same matrix and vector as the stacked form, so the bits
    # are the same, over [:, :n] views of a store grown block by block, over
    # their contiguous copies, with or without the head axis
    rng = np.random.default_rng(seed)
    store = KeyValueStore(MhaParams(np.zeros((heads, 1, d)), np.zeros((heads, 1, d)),
                                    np.zeros((heads, 1, d_v)), np.zeros((heads * d_v, 1))))
    while store.rows < n + extra:
        size = min(block, n + extra - store.rows)
        store.append((rng.standard_normal((heads, size, d)) * scale).astype(dtype),
                     rng.standard_normal((heads, size, d_v)).astype(dtype))
    q = (rng.standard_normal((heads, 1 + q_extra, d)) * scale).astype(dtype)[:, q_extra:]
    k, v = store.view(n)
    s = 1.0 / math.sqrt(d)
    want = softmax_attend_stacked(q, k.copy(), v.copy(), s)
    assert want.shape == (heads, 1, d_v) and want.dtype == dtype
    for keys, values in ((k, v), (k.copy(), v.copy())):
        got = attention._softmax_attend(q, keys, values, s)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert (got == want).all()
        got = attention._softmax_attend(q[0], keys[0], values[0], s)
        assert (got == softmax_attend_stacked(q[0], keys[0], values[0], s)).all()
        assert (got == want[0]).all()
    # the public call, whose all-True mask row takes this path
    got = scaled_dot_attention(q, k, v, full_mask(1, n))
    assert got.dtype == want.dtype and (got == want).all()


@settings(max_examples=100, deadline=None)
@given(heads=st.integers(1, 12), d_model=st.integers(1, 80), d=st.integers(1, 40),
       strided=st.booleans(), dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**32 - 1))
def test_one_row_projections_equal_the_stacked_form_bit_for_bit(heads, d_model, d, strided,
                                                                dtype, seed):
    # project_heads and kernels.matmul compute one row without the stacking
    # axis: the same (1, d_model) @ (d_model, d) product, the same bits
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((heads, d_model, d)).astype(dtype)
    x = rng.standard_normal((1, 2 * d_model)).astype(np.float32)
    x = x[:, ::2] if strided else x[:, :d_model]
    want = stacked_row_products(x, w)
    got = project_heads(x, w)
    assert got.shape == want.shape == (heads, 1, d) and got.dtype == want.dtype
    assert (got == want).all()
    for h in range(heads):
        got = kernels.matmul(x, w[h])
        assert got.dtype == want.dtype and (got == want[h]).all()
        assert (got == stacked_row_products(x, w[h])).all()


def test_store_view_stops_at_the_rows_held():
    rng = np.random.default_rng(20)
    store = KeyValueStore(rand_mha(rng, heads=2, d_model=4, d_k=3))
    rows = rng.standard_normal((2, 2, 5, 3)).astype(np.float32)
    store.append(rows[0], rows[1])
    assert store.rows == 5 and store.capacity == ROW_BLOCK
    keys, values = store.view(9)
    assert keys.shape == values.shape == (2, 5, 3) and (keys == rows[0]).all()
    with pytest.raises(ValueError, match="3 key rows but 2 value rows"):
        store.append(rows[0][:, :3], rows[1][:, :2])


@settings(max_examples=150, deadline=None)
@given(heads=st.integers(1, 6), d_model=st.integers(1, 80), d=st.integers(1, 40),
       rows=st.integers(0, 24), strided=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stacked_qkv_projection_equals_three_projections(heads, d_model, d, rows, strided,
                                                         seed):
    rng = np.random.default_rng(seed)
    mha = rand_mha(rng, heads, d_model, d)
    x = rng.standard_normal((rows, 2 * d_model)).astype(np.float32)
    x = x[:, ::2] if strided else x[:, :d_model]
    got = project_heads(x, mha.qkv())
    assert got.shape == (3 * heads, rows, d)
    for part, want in zip((got[:heads], got[heads:2 * heads], got[2 * heads:]),
                          project_qkv_separately(x, mha)):
        assert (part == want).all()


def test_stacked_qkv_weight_is_built_once_and_follows_replaced_weights():
    rng = np.random.default_rng(19)
    mha = rand_mha(rng, heads=2, d_model=8, d_k=4)
    w = mha.qkv()
    assert mha.qkv() is w
    assert (w == np.concatenate([mha.w_q, mha.w_k, mha.w_v])).all()
    mha.w_k = -mha.w_k
    assert (mha.qkv()[2:4] == mha.w_k).all()
