"""Scaled dot-product and multi-head attention with boolean masks.

A mask entry ``mask[i, j] == True`` allows query row i to attend to
key/value row j; one (queries, keys) mask serves every head.  Disallowed
positions carry exactly zero weight: each query row's allowed keys are
gathered and softmax runs over that compact set, so perturbing a
disallowed row can never change the output, not even in the last bit.

Projected keys and values are stored head-major, (heads, rows, d), and a
block makes one :func:`scaled_dot_attention` call for all its heads.
That call gathers the allowed rows of each group of equal mask rows as a
C-contiguous copy and scores every (head, row) of the group in one
stacked product.  Its output is bit-identical to computing each head and
query row alone on its gathered rows; the copy is part of that contract.
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


def full_mask(n_q, n_k):
    return np.ones((n_q, n_k), dtype=bool)


def lookahead_mask(n_q, n_k, lookahead):
    """Query i may attend to keys j <= i + lookahead; the past is unbounded.

    ``lookahead`` may be math.inf for an unrestricted mask.
    """
    if not isinstance(lookahead, (int, float)):
        raise ValueError(f"lookahead must be a number, got {type(lookahead).__name__}")
    if math.isinf(lookahead):
        return full_mask(n_q, n_k)
    if lookahead < 0:
        raise ValueError(f"lookahead must be >= 0, got {lookahead}")
    cols = np.arange(n_k)
    rows = np.arange(n_q)
    return cols[None, :] <= rows[:, None] + int(lookahead)


def causal_mask(n):
    return lookahead_mask(n, n, 0)


def truncation_mask(limits, n_k):
    """Row i attends to key rows 0..limits[i]-1 (a per-row prefix of keys)."""
    limits = np.asarray(limits, dtype=int)
    cols = np.arange(n_k)
    return cols[None, :] < limits[:, None]


def scaled_dot_attention(q, k, v, mask):
    """Softmax(q k^T / sqrt(d_k)) v, restricted to mask-allowed positions.

    q (..., B, d), k (..., n, d) and v (..., n, d_v) may carry leading
    head axes; the one (B, n) mask is shared by every head.  Query rows
    with equal mask rows form a group.  A group gathers its allowed
    key/value rows once, as C-contiguous copies, scores them with one
    stacked matrix-vector product per (head, row) and takes the softmax
    over that compact set, so a row's result is a pure function of its
    own query and its allowed key/value rows, bit for bit the same as
    computing that row and head alone.  The gathered copy is part of that
    contract: vector products over strided views can round differently.
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
    out = np.empty(q.shape[:-1] + v.shape[-1:], dtype=np.result_type(q, v))
    groups = {}
    for i, row in enumerate(mask):
        groups.setdefault(row.tobytes(), []).append(i)
    for rows in groups.values():
        idx = np.flatnonzero(mask[rows[0]])
        if idx.size == 0:
            raise ValueError("empty attention row")
        kg = np.take(k, idx, axis=-2)
        vg = np.take(v, idx, axis=-2)
        qg = np.take(q, rows, axis=-2)
        logits = np.matmul(kg[..., None, :, :], qg[..., None])[..., 0] * scale
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        out[..., rows, :] = np.matmul(p[..., None, :], vg[..., None, :, :])[..., 0, :]
    return out


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
    ``params.w_v``: one :func:`scaled_dot_attention` call for all heads,
    whose outputs are concatenated head by head and projected."""
    heads = scaled_dot_attention(project_heads(q_in, params.w_q), keys, values, mask)
    h_count, b, d_v = heads.shape
    return kernels.matmul(heads.transpose(1, 0, 2).reshape(b, h_count * d_v), params.w_h)


def multi_head_attention(q_in, k_in, v_in, params, mask):
    """Concatenated per-head scaled dot-product attention, then output projection."""
    return attend(q_in, project_heads(k_in, params.w_k), project_heads(v_in, params.w_v),
                  params, mask)


@dataclass(frozen=True)
class KeyValues:
    """Attention keys and values of consecutive rows, projected once.

    keys, values: head-major (heads, rows, d) arrays, as
    :func:`project_heads` returns them, so :func:`attend` hands all heads
    to one :func:`scaled_dot_attention` call.  ``shape`` is that of the
    (rows, heads * d) matrix of the heads side by side.  Each user keeps
    one per attention layer: the incremental encoder for its rows so far,
    a decoder history for its positions, and the decoder's
    cross-attention cache for the encoder rows.
    """

    keys: np.ndarray
    values: np.ndarray

    @classmethod
    def project(cls, x, mha):
        return cls(project_heads(x, mha.w_k), project_heads(x, mha.w_v))

    @classmethod
    def empty(cls, mha):
        def none(w):
            return np.zeros((w.shape[0], 0, w.shape[2]), dtype=np.float32)

        return cls(none(mha.w_k), none(mha.w_v))

    @property
    def rows(self):
        return self.keys.shape[1]

    @property
    def shape(self):
        h, n, d = self.keys.shape
        return (n, h * d)

    def append(self, other):
        """These rows followed by ``other``'s."""
        return KeyValues(np.concatenate([self.keys, other.keys], axis=1),
                         np.concatenate([self.values, other.values], axis=1))
