"""Scaled dot-product and multi-head attention with boolean masks.

A mask entry ``mask[i, j] == True`` allows query row i to attend to
key/value row j; one (queries, keys) mask serves every head.  Disallowed
positions carry exactly zero weight: each query row's allowed keys are
gathered and softmax runs over that compact set, so perturbing a
disallowed row can never change the output, not even in the last bit.

Projected keys and values are stored head-major, (heads, rows, d), and a
block makes one :func:`scaled_dot_attention` call for all its heads.
Whatever the mask, each (head, query row) of the result has the bits of
that row computed alone over a C-contiguous copy of its allowed keys and
values, by one of two paths.

A mask that lets every row see every key (streaming encoder rows,
decoder rows over their own history or the encoder) is scored in one
stacked product on q, k and v where they are stored: a prefix view
``[:, :n]`` of a longer store, or a query slice, reads the same bits as
its C-contiguous copy, because its rows are packed the same way (the
tests prove it for views of a block-grown store, misaligned ones
included).  Only rows laid out otherwise, such as head columns of a
(rows, heads * d) matrix, are copied first.  One query row, a steady
streaming encoder step or a decoder row over its own history, is
scored without the stacking axis, (..., n, d) @ (..., d, 1) and
(..., 1, n) @ (..., n, d_v): each product hands NumPy the same matrix
and vector, with the same strides, as the stacked form, so it runs
the same BLAS vector-matrix routine and gives the same bits.

Any other mask takes the masked path, one call for all its rows.  A
sum's rounding depends on how many terms it adds, so the three steps
that sum over keys (the logits product, the softmax denominator and the
product with the values) run per row over exactly its allowed keys,
read as a view when they form one run.  The steps that round each value
on its own or pick one (scale, max, subtract, exp, divide) run once over
all rows padded with -inf: the max of a padded row is its own, and exp
turns the padding into zeros that no per-row step reads.  The encoder's
look-ahead-limited rows, a staircase of key prefixes, take this path.

One owner keeps the projected rows of a sequence that only grows:
:class:`KeyValueStore`, which appends them in place, for each encoder
layer and for the decoder's cross-attention cache.  Decoder histories,
which branch per prefix, are the decoder's own (one array per prefix, see
:mod:`streamasr.decoder`); attention reads their per-layer key and value
slices as it reads a store's views, without a copy.  q, k and v share
one floating-point dtype, the model's float32, and nothing promotes it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels


@dataclass
class MhaParams:
    """Projection weights for one multi-head attention block.

    w_q, w_k: (heads, d_model, d_k); w_v: (heads, d_model, d_v);
    w_h: (heads * d_v, d_model).  No bias terms anywhere.
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_h: np.ndarray

    def qkv(self):
        """w_q, w_k and w_v stacked into one (3 * heads, d_model, d)
        weight, so that one :func:`project_heads` call gives a row's
        query, key and value heads, in that order; d_v must equal d_k.
        Built on first use and kept with the block, so every session over
        one model shares it; it is rebuilt if one of the three weights is
        replaced."""
        kept = self.__dict__.get("_qkv")
        if (kept is None or kept[0] is not self.w_q or kept[1] is not self.w_k
                or kept[2] is not self.w_v):
            if self.w_v.shape[2] != self.w_q.shape[2]:
                raise ValueError(f"a stacked Q/K/V projection needs value heads as wide as its "
                                 f"key heads, got d_v {self.w_v.shape[2]}, d_k {self.w_q.shape[2]}")
            kept = self._qkv = (self.w_q, self.w_k, self.w_v,
                                np.concatenate([self.w_q, self.w_k, self.w_v]))
        return kept[3]


def full_mask(n_q, n_k):
    mask = np.empty((n_q, n_k), dtype=bool)
    mask.fill(True)  # np.ones without its Python-level wrapper
    return mask


def scaled_dot_attention(q, k, v, mask):
    """Softmax(q k^T / sqrt(d_k)) v, restricted to mask-allowed positions.

    q (..., B, d), k (..., n, d) and v (..., n, d_v) may carry leading
    head axes; the one (B, n) mask is shared by every head.  Each (head,
    row) result is a pure function of its own query and its allowed
    key/value rows, bit for bit the same as computing that row and head
    alone over a contiguous copy of those rows.  When every row allows
    every key, the rows are scored together where they are stored: one
    stacked matrix-vector product per (head, row).  Otherwise the masked
    path (:func:`_masked_attend`) runs per row the steps whose rounding
    depends on how many keys the row allows, and the elementwise steps
    and the max once for all rows.  A row that allows no key, or q, k and
    v that are not floating point of one dtype, raise ``ValueError``.
    A view whose rows are packed, d values each and one behind the other,
    such as a query slice or a ``[:, :n]`` prefix of a (heads, capacity,
    d) store, gives the bits of its C-contiguous copy, so it is not
    copied; rows laid out otherwise are (see :func:`_packed`).
    """
    q, k, v, mask = np.asarray(q), np.asarray(k), np.asarray(v), np.asarray(mask)
    qs, ks, vs = q.shape, k.shape, v.shape
    dtype = q.dtype
    item = dtype.itemsize
    # The common case in one test: valid floating-point arrays of one
    # dtype whose rows are packed.  Anything else takes every check in
    # turn, so the first that fails names itself, and copies rows that
    # are not packed (:func:`_packed`).
    if not (len(qs) == len(ks) >= 2 and ks[:-1] == vs[:-1] and qs[:-2] == ks[:-2]
            and qs[-1] == ks[-1] and mask.shape == (qs[-2], ks[-2])
            and dtype.kind == "f" and dtype == k.dtype == v.dtype
            and (q.strides[-2:], k.strides[-2:], v.strides[-2:])
            == ((qs[-1] * item, item), (ks[-1] * item, item), (vs[-1] * item, item))):
        _check_arguments(q, k, v, mask)
        q, k, v = _packed(q), _packed(k), _packed(v)
    scale = 1.0 / math.sqrt(qs[-1])
    # one byte per mask entry, 1 where a key is allowed
    flags = (mask if mask.dtype == bool else mask.astype(bool)).tobytes()
    if ks[-2] and 0 not in flags:
        return _softmax_attend(q, k, v, scale)
    return _masked_attend(q, k, v, flags, mask.shape, scale)


def _check_arguments(q, k, v, mask):
    """Raise ``ValueError`` for the first of :func:`scaled_dot_attention`'s
    argument checks that fails."""
    if q.ndim < 2 or k.ndim != q.ndim or v.ndim != q.ndim:
        raise ValueError("scaled_dot_attention expects matrices with equal leading axes")
    if q.shape[:-2] != k.shape[:-2] or k.shape[:-2] != v.shape[:-2]:
        raise ValueError(f"head axes differ: q {q.shape}, k {k.shape}, v {v.shape}")
    if q.shape[-1] != k.shape[-1]:
        raise ValueError(f"query width {q.shape[-1]} != key width {k.shape[-1]}")
    if k.shape[-2] != v.shape[-2]:
        raise ValueError(f"key rows {k.shape[-2]} != value rows {v.shape[-2]}")
    if mask.shape != (q.shape[-2], k.shape[-2]):
        raise ValueError(f"mask shape {mask.shape}, expected {(q.shape[-2], k.shape[-2])}")
    if q.dtype.kind != "f" or not q.dtype == k.dtype == v.dtype:
        raise ValueError(f"attention takes floating-point arrays of one dtype, got {q.dtype}, "
                         f"{k.dtype} and {v.dtype}")


def _packed(a):
    """a itself if its rows are packed, each d values long and the next
    right behind it, as in a C-contiguous array, a ``[:, :n]`` view of
    one or a slice of its rows; else a C-contiguous copy.  Vector
    products over rows laid out any other way, such as head columns of a
    (rows, heads * d) matrix, can round differently."""
    item = a.itemsize
    if a.strides[-1] == item and a.strides[-2] == item * a.shape[-1]:
        return a
    return np.ascontiguousarray(a)


def _softmax_attend(q, k, v, scale):
    """Every query row of q (..., B, d) over every row of k and v, one
    stacked matrix-vector product per (head, row).  One query row
    (B == 1) drops the stacking row axis, with the same bits (see the
    module docstring)."""
    # the reductions are max's and sum's own, called without their wrappers;
    # the elementwise steps run in place, on the product's own array
    one = q.shape[-2] == 1
    if one:
        logits = np.matmul(k, q.swapaxes(-1, -2)).swapaxes(-1, -2)
    else:
        logits = np.matmul(k[..., None, :, :], q[..., None])[..., 0]
    logits *= scale
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(logits, out=logits)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    if one:
        return np.matmul(e, v)
    return np.matmul(e[..., None, :], v[..., None, :, :])[..., 0, :]


def _masked_attend(q, k, v, flags, shape, scale):
    """The masked path (see the module docstring): every query row of q
    (..., B, d) over its own allowed rows of k and v, which are packed;
    ``flags`` holds the (B, n) mask's bytes, 1 where a key is allowed.

    The per-row steps take the shapes :func:`_softmax_attend` gives them,
    and the padded rows are the mask's n columns wide.  One row needs no
    padding and is scored by :func:`_softmax_attend` itself.
    """
    b, n = shape
    lead = q.shape[:-1]
    if b == 0:
        return np.empty(lead + v.shape[-1:], dtype=q.dtype)
    if b == 1:
        return _softmax_attend(q, *_allowed_rows(k, v, flags, 0, n), scale)
    logits = np.empty(lead + (n,), dtype=q.dtype)
    logits.fill(-np.inf)
    q_cols, logit_cols = q[..., None], logits[..., None]
    rows = []  # per row: its values with an axis for the query row, and their count
    for i in range(b):
        keys, values = _allowed_rows(k, v, flags, i * n, n)
        count = keys.shape[-2]
        np.matmul(keys[..., None, :, :], q_cols[..., i:i + 1, :, :],
                  out=logit_cols[..., i:i + 1, :count, :])
        rows.append((values[..., None, :, :], count))
    logits *= scale
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(logits, out=logits)
    sums = np.empty(lead + (1,), dtype=q.dtype)
    for i, (_, count) in enumerate(rows):
        np.add.reduce(e[..., i, :count], axis=-1, keepdims=True, out=sums[..., i, :])
    e /= sums
    out = np.empty(lead + v.shape[-1:], dtype=q.dtype)
    e_rows, out_rows = e[..., None, :], out[..., None, :]
    for i, (values, count) in enumerate(rows):
        np.matmul(e_rows[..., i:i + 1, :, :count], values, out=out_rows[..., i:i + 1, :, :])
    return out


def _allowed_rows(k, v, flags, start, n):
    """The keys and values that the mask row at byte ``start`` of
    ``flags`` allows: views when they form one run, else gathered copies."""
    stop = start + n
    first = flags.find(1, start, stop)
    if first < 0:
        raise ValueError("empty attention row")
    count = flags.count(1, start, stop)
    if flags.rfind(1, start, stop) - first + 1 == count:  # one run
        first -= start
        return k[..., first:first + count, :], v[..., first:first + count, :]
    idx = np.flatnonzero(np.frombuffer(flags, dtype=bool, count=n, offset=start))
    return np.take(k, idx, axis=-2), np.take(v, idx, axis=-2)


def project_heads(x, w):
    """Rows of x projected by every head of w (heads, d_model, d).

    Returns a head-major (heads, rows, d) array.  Each (head, row) is one
    broadcast (1, d_model) @ (d_model, d) product, the vector-matrix
    routine of :func:`kernels.matmul`, so a row depends only on its own
    input row: rows projected one at a time and stored are bit-identical
    to rows projected together.  One row is the (1, d_model) matrix
    itself, broadcast over the heads: the same product per head, without
    the row axis.
    """
    if x.shape[0] == 1:
        return np.matmul(x, w)
    return np.matmul(x[None, :, None, :], w[:, None])[:, :, 0]


def merge_heads(heads, params):
    """Head-major outputs (heads, rows, d_v), joined per row and projected by ``params.w_h``."""
    h_count, b, d_v = heads.shape
    return kernels.matmul(heads.transpose(1, 0, 2).reshape(b, h_count * d_v), params.w_h)


def multi_head_attention(q_in, k_in, v_in, params, mask):
    """Concatenated per-head scaled dot-product attention, one call for all
    heads, then output projection.  Kept as the whole-matrix reference of
    the tests and ``encoder_layer``; no engine calls it."""
    heads = scaled_dot_attention(project_heads(q_in, params.w_q), project_heads(k_in, params.w_k),
                                 project_heads(v_in, params.w_v), mask)
    return merge_heads(heads, params)


ROW_BLOCK = 16  # rows a KeyValueStore grows by


class KeyValueStore:
    """Attention keys and values of a sequence that only grows, appended in place.

    Keys and values each live in one head-major (heads, capacity, d)
    buffer, made at the first :meth:`append`.  Rows are written behind
    the rows already held; when they do not fit, both buffers are
    replaced by ones whose capacity is the next multiple of
    ``ROW_BLOCK`` rows, so a store holds fewer than ``ROW_BLOCK`` unused
    rows and a steady append keeps its buffers until a block fills.
    :meth:`view` hands out ``[:, :n]`` views, which attention scores
    without a copy.  Rows once written never change, so a view stays
    valid while the store grows.  Each encoder layer keeps one for its
    rows so far, and the decoder's cross-attention cache one per layer
    for the encoder rows.
    """

    def __init__(self, mha):
        self.heads, self.d_k, self.d_v = mha.w_k.shape[0], mha.w_k.shape[2], mha.w_v.shape[2]
        self.buffers = None  # (keys, values), each (heads, capacity, d)
        self.rows = 0

    @property
    def capacity(self):
        return 0 if self.buffers is None else self.buffers[0].shape[1]

    def append(self, keys, values):
        """Write head-major key rows (heads, m, d_k) and value rows
        (heads, m, d_v) behind the rows held."""
        start, end = self.rows, self.rows + keys.shape[1]
        if values.shape[1] != keys.shape[1]:
            raise ValueError(f"{keys.shape[1]} key rows but {values.shape[1]} value rows")
        if end > self.capacity:
            capacity = -(-end // ROW_BLOCK) * ROW_BLOCK
            grown = (np.empty((self.heads, capacity, self.d_k), dtype=keys.dtype),
                     np.empty((self.heads, capacity, self.d_v), dtype=values.dtype))
            if start:
                for new, old in zip(grown, self.buffers):
                    new[:, :start] = old[:, :start]
            self.buffers = grown
        key_buf, value_buf = self.buffers
        key_buf[:, start:end] = keys
        value_buf[:, start:end] = values
        self.rows = end

    def view(self, n=None):
        """Keys and values of the first n rows (every row by default, and
        at most the rows held), as views of the buffers."""
        n = self.rows if n is None else min(n, self.rows)
        if self.buffers is None:
            return (np.zeros((self.heads, 0, self.d_k), dtype=np.float32),
                    np.zeros((self.heads, 0, self.d_v), dtype=np.float32))
        return self.buffers[0][:, :n], self.buffers[1][:, :n]

