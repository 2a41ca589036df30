"""Scaled dot-product and multi-head attention with boolean masks.

A mask entry ``mask[i, j] == True`` allows query row i to attend to
key/value row j.  Disallowed positions carry exactly zero weight: each
query row gathers its allowed keys and runs softmax over that compact
set, so perturbing a disallowed row can never change the output, not
even in the last bit.
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

    @property
    def head_count(self):
        return self.w_q.shape[0]

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

    Computed one query row at a time over the gathered allowed keys, so a
    row's result is a pure function of its own query, its allowed
    key/value rows and nothing else.
    """
    q = np.asarray(q)
    k = np.asarray(k)
    v = np.asarray(v)
    mask = np.asarray(mask)
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ValueError("scaled_dot_attention expects matrices")
    if q.shape[1] != k.shape[1]:
        raise ValueError(f"query width {q.shape[1]} != key width {k.shape[1]}")
    if k.shape[0] != v.shape[0]:
        raise ValueError(f"key rows {k.shape[0]} != value rows {v.shape[0]}")
    if mask.shape != (q.shape[0], k.shape[0]):
        raise ValueError(f"mask shape {mask.shape}, expected {(q.shape[0], k.shape[0])}")
    scale = 1.0 / math.sqrt(q.shape[1])
    out = np.empty((q.shape[0], v.shape[1]), dtype=np.result_type(q, v))
    for i in range(q.shape[0]):
        idx = np.flatnonzero(mask[i])
        if idx.size == 0:
            raise ValueError("empty attention row")
        logits = (k[idx] @ q[i]) * scale
        e = np.exp(logits - logits.max())
        out[i] = (e / e.sum()) @ v[idx]
    return out


def project_heads(x, w):
    """Rows of x projected by every head of w (heads, d_model, d), side by side.

    Returns a (rows, heads * d) matrix whose columns h*d:(h+1)*d hold head
    h.  Each row depends only on its own input row, so rows projected one
    at a time and stored are bit-identical to rows projected together.
    """
    return np.concatenate([kernels.matmul(x, w[h]) for h in range(w.shape[0])], axis=1)


def attend(q_in, keys, values, params, mask):
    """Multi-head attention over keys and values already projected by
    :func:`project_heads` with ``params.w_k`` and ``params.w_v``."""
    h_count = params.head_count
    d_k = keys.shape[1] // h_count
    d_v = values.shape[1] // h_count
    heads = [
        scaled_dot_attention(kernels.matmul(q_in, params.w_q[h]),
                             keys[:, h * d_k:(h + 1) * d_k],
                             values[:, h * d_v:(h + 1) * d_v], mask)
        for h in range(h_count)
    ]
    return kernels.matmul(np.concatenate(heads, axis=1), params.w_h)


def multi_head_attention(q_in, k_in, v_in, params, mask):
    """Concatenated per-head scaled dot-product attention, then output projection."""
    return attend(q_in, project_heads(k_in, params.w_k), project_heads(v_in, params.w_v),
                  params, mask)


@dataclass(frozen=True)
class KeyValues:
    """Attention keys and values of consecutive rows, projected once.

    keys, values: (rows, heads * d) matrices in :func:`project_heads`
    layout.  ``shape`` is the key matrix's, so ``shape[0]`` counts rows.
    Each user keeps one per attention layer: the incremental encoder for
    its rows so far, a decoder history for its positions, and the
    decoder's cross-attention cache for the encoder rows.
    """

    keys: np.ndarray
    values: np.ndarray

    @classmethod
    def project(cls, x, mha):
        return cls(project_heads(x, mha.w_k), project_heads(x, mha.w_v))

    @classmethod
    def empty(cls, mha):
        def none(w):
            return np.zeros((0, w.shape[0] * w.shape[2]), dtype=np.float32)

        return cls(none(mha.w_k), none(mha.w_v))

    @property
    def shape(self):
        return self.keys.shape

    def append(self, other):
        """These rows followed by ``other``'s."""
        return KeyValues(np.concatenate([self.keys, other.keys]),
                         np.concatenate([self.values, other.values]))
