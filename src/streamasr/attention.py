"""Scaled dot-product and multi-head attention with boolean masks.

A mask entry ``mask[i, j] == True`` allows query row i to attend to
key/value row j; one (queries, keys) mask serves every head.  Disallowed
positions carry exactly zero weight: each query row's allowed keys are
gathered and softmax runs over that compact set, so perturbing a
disallowed row can never change the output, not even in the last bit.

Projected keys and values are stored head-major, (heads, rows, d), and a
block makes one :func:`scaled_dot_attention` call for all its heads.
That call scores every (head, row) of a group of equal mask rows in one
stacked product, and its output is bit-identical to computing each head
and query row alone on its allowed rows.  A mask that lets every row see
every key (streaming encoder rows, decoder rows over their own history
or the encoder) is scored on q, k and v where they are stored: a prefix
view ``[:, :n]`` of a longer store, or a query slice, reads the same
bits as its C-contiguous copy, because its rows are packed the same way
(the tests prove it for views of a block-grown store, misaligned ones
included).  Only rows laid out otherwise, such as head columns of a
(rows, heads * d) matrix, are copied first.

One owner keeps the projected rows of a sequence that only grows:
:class:`KeyValueStore`, which appends them in place, for each encoder
layer and for the decoder's cross-attention cache.  Decoder histories,
which branch per prefix, are the decoder's own (one array per prefix, see
:mod:`streamasr.decoder`); attention reads their per-layer key and value
slices as it reads a store's views, without a copy.
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

    def validate(self, d_model):
        h, dm, d_k = self.w_q.shape
        if dm != d_model:
            raise ValueError(f"w_q model dim {dm} != {d_model}")
        if self.w_k.shape != (h, d_model, d_k):
            raise ValueError(f"w_k shape {self.w_k.shape} inconsistent with w_q {self.w_q.shape}")
        if self.w_v.shape[:2] != (h, d_model):
            raise ValueError(f"w_v shape {self.w_v.shape} inconsistent with w_q {self.w_q.shape}")
        d_v = self.w_v.shape[2]
        if self.w_h.shape != (h * d_v, d_model):
            raise ValueError(f"w_h shape {self.w_h.shape}, expected {(h * d_v, d_model)}")

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
    head axes; the one (B, n) mask is shared by every head.  Query rows
    with equal mask rows form a group.  A group gathers its allowed
    key/value rows once, scores them with one stacked matrix-vector
    product per (head, row) and takes the softmax over that compact set,
    so a row's result is a pure function of its own query and its
    allowed key/value rows, bit for bit the same as computing that row
    and head alone.  When every row allows every key there is one group
    and nothing to gather: q, k and v are scored where they are stored.
    A view whose rows are packed, d values each and one behind the other,
    such as a query slice or a ``[:, :n]`` prefix of a (heads, capacity,
    d) store, gives the bits of its C-contiguous copy, so it is not
    copied; rows laid out otherwise are (see :func:`_packed`).
    """
    q = np.asarray(q)
    k = np.asarray(k)
    v = np.asarray(v)
    mask = np.asarray(mask)
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
    scale = 1.0 / math.sqrt(q.shape[-1])
    out_type = q.dtype if q.dtype == v.dtype else np.result_type(q, v)
    if k.shape[-2] and np.logical_and.reduce(mask, axis=None):  # mask.all() without its wrapper
        return _softmax_attend(_packed(q), _packed(k), _packed(v), scale).astype(out_type,
                                                                                 copy=False)
    out = np.empty(q.shape[:-1] + v.shape[-1:], dtype=out_type)
    groups = {}
    for i, row in enumerate(mask):
        groups.setdefault(row.tobytes(), []).append(i)
    for rows in groups.values():
        idx = np.flatnonzero(mask[rows[0]])
        if idx.size == 0:
            raise ValueError("empty attention row")
        out[..., rows, :] = _softmax_attend(np.take(q, rows, axis=-2), np.take(k, idx, axis=-2),
                                            np.take(v, idx, axis=-2), scale)
    return out


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
    stacked matrix-vector product per (head, row)."""
    # the reductions are max's and sum's own, called without their wrappers
    logits = np.matmul(k[..., None, :, :], q[..., None])[..., 0] * scale
    e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    p = e / np.add.reduce(e, axis=-1, keepdims=True)
    return np.matmul(p[..., None, :], v[..., None, :, :])[..., 0, :]


def project_heads(x, w):
    """Rows of x projected by every head of w (heads, d_model, d).

    Returns a head-major (heads, rows, d) array.  Each (head, row) is one
    broadcast (1, d_model) @ (d_model, d) product, the vector-matrix
    routine of :func:`kernels.matmul`, so a row depends only on its own
    input row: rows projected one at a time and stored are bit-identical
    to rows projected together.
    """
    return np.matmul(x[None, :, None, :], w[:, None])[:, :, 0]


def attend(q_in, keys, values, params, mask):
    """Multi-head attention over head-major keys and values already
    projected by :func:`project_heads` with ``params.w_k`` and
    ``params.w_v``: the rows of q_in projected by ``params.w_q``, one
    :func:`scaled_dot_attention` call for all heads, then
    :func:`merge_heads`."""
    return merge_heads(scaled_dot_attention(project_heads(q_in, params.w_q), keys, values, mask),
                       params)


def merge_heads(heads, params):
    """Head-major outputs (heads, rows, d_v), joined per row and projected by ``params.w_h``."""
    h_count, b, d_v = heads.shape
    return kernels.matmul(heads.transpose(1, 0, 2).reshape(b, h_count * d_v), params.w_h)


def multi_head_attention(q_in, k_in, v_in, params, mask):
    """Concatenated per-head scaled dot-product attention, then output projection."""
    return attend(q_in, project_heads(k_in, params.w_k), project_heads(v_in, params.w_v),
                  params, mask)


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

