"""Deterministic numeric kernels shared by the encoder, decoder and search.

Model math runs in float32; search-time log-probability accumulation runs
in float64.  Every reduction here has a fixed evaluation order, and every
row-level operation depends only on its own row.  That makes repeated
calls bit-identical and lets the causality and streaming-equivalence
checks compare outputs with ``==`` instead of a tolerance.
"""

import math

import numpy as np

NEG_INF = float("-inf")


def matmul(a, b):
    """Matrix product with a fixed per-row reduction order.

    Each output row is computed as an independent vector-matrix product,
    so the result of row i depends only on ``a[i]`` and ``b`` and never on
    how many other rows are present in ``a``.  The streaming layers and
    the decoder's projection caches rely on this to reproduce offline
    results bit-exactly when they compute rows one at a time.  The rows
    are a stack of (1, k) @ (k, n) products, which NumPy evaluates with
    the same vector-matrix routine as ``a[i] @ b``; plain ``a @ b`` is a
    matrix-matrix product whose bits may differ.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    return np.matmul(a[:, None, :], b)[:, 0]


def relu(x):
    return np.maximum(x, 0.0)


def softmax_rows(m):
    """Row-wise softmax where ``-inf`` entries map to exactly zero weight.

    Rows are independent: the max subtraction, exponentiation and the sum
    all operate along axis 1 only.  A row with no finite entry has no
    valid distribution and raises.
    """
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError(f"softmax_rows expects a matrix, got shape {m.shape}")
    mx = np.max(m, axis=1)
    if np.any(mx == NEG_INF):
        raise ValueError("empty attention row")
    e = np.exp(m - mx[:, None])
    s = np.sum(e, axis=1)
    return e / s[:, None]


def layer_norm(m, gain, bias, eps=1e-12):
    """Per-row layer normalization: gain * (x - mean) / sqrt(var + eps) + bias."""
    m = np.asarray(m)
    gain = np.asarray(gain)
    bias = np.asarray(bias)
    if m.ndim != 2 or gain.shape != (m.shape[1],) or bias.shape != (m.shape[1],):
        raise ValueError(
            f"layer_norm shape mismatch: m {m.shape}, gain {gain.shape}, bias {bias.shape}"
        )
    mu = np.mean(m, axis=1, keepdims=True)
    centered = m - mu
    var = np.mean(centered * centered, axis=1, keepdims=True)
    return (centered / np.sqrt(var + eps)) * gain + bias


def conv_time_slab(window, kernels, stride):
    """One output time row of a 2-D convolution (cross-correlation).

    ``window`` is the already padded input slab (in_ch, k_h, f_padded)
    covering a single output time position; the frequency axis is swept
    here and :func:`conv2d` sweeps time with it, so a window yields the
    same row however many rows the call computes.  The slab is copied to
    a contiguous buffer first: einsum's traversal order may depend on
    input strides, and callers pass views.
    """
    window = np.ascontiguousarray(window)
    k_w = kernels.shape[3]
    f_out = (window.shape[2] - k_w) // stride + 1
    if f_out < 1:
        raise ValueError("input too short")
    sw = np.lib.stride_tricks.sliding_window_view(window, k_w, axis=2)[:, :, ::stride, :]
    # sw: (in_ch, k_h, f_out, k_w); kernels: (out_ch, in_ch, k_h, k_w)
    return np.einsum("ihfw,oihw->of", sw, kernels, optimize=False)


def conv2d(x, kernels, stride, pad):
    """2-D convolution over (time, freq), cross-correlation convention.

    x: (in_ch, T, F); kernels: (out_ch, in_ch, k_h, k_w).  Both axes are
    zero-padded by ``pad`` and swept with the same ``stride``.  No bias,
    no activation.
    """
    x = np.asarray(x)
    kernels = np.asarray(kernels)
    if x.ndim != 3 or kernels.ndim != 4:
        raise ValueError(f"conv2d expects 3-D input and 4-D kernels, got {x.shape}, {kernels.shape}")
    if kernels.shape[1] != x.shape[0]:
        raise ValueError(f"conv2d channel mismatch: input {x.shape[0]}, kernels {kernels.shape[1]}")
    k_h, k_w = kernels.shape[2:]
    t_out = (x.shape[1] + 2 * pad - k_h) // stride + 1
    f_out = (x.shape[2] + 2 * pad - k_w) // stride + 1
    if t_out < 1 or f_out < 1:
        raise ValueError("input too short")
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    out = np.empty((kernels.shape[0], t_out, f_out), dtype=np.result_type(x, kernels))
    for i in range(t_out):
        out[:, i, :] = conv_time_slab(xp[:, i * stride : i * stride + k_h, :], kernels, stride)
    return out


def log_add(a, b):
    """log(exp(a) + exp(b)) without leaving the log domain.

    Exact when one side is -inf: the other side is returned unchanged.
    """
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def log_softmax_f64(logits):
    """Log-softmax of a single logits vector, accumulated in float64."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError(f"log_softmax_f64 expects a vector, got shape {z.shape}")
    m = float(np.max(z))
    return z - (m + math.log(float(np.sum(np.exp(z - m)))))
