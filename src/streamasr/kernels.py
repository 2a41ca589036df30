"""Deterministic numeric kernels shared by the encoder, decoder and search.

Model math runs in float32, the one model dtype, which each engine and
session checks once when it is built, CTC head included, through the
archive's tensor schema (:func:`check_model_dtype`); no kernel promotes
one dtype to another.  Search-time log-probability accumulation runs in
float64.  Every reduction here has a fixed evaluation order, and every
row-level operation depends only on its own row.  That makes repeated
calls bit-identical and lets the causality and streaming-equivalence
checks compare outputs with ``==`` instead of a tolerance.

The convolution keeps the bits of ``np.einsum``: each (in-channel, kernel
row) pair's kernel-column products are summed left to right, and those
sums are added one after another from +0.  :func:`conv_time_slab` is the
one conv kernel, over any number of output rows: it computes that order
over blocks of rows sized to stay in a core's L2 cache, as one einsum
outer product (no sums, so einsum's own order does not enter) and two
sequential reductions per block, except for rows of one output column,
which stay on einsum itself.  ``is_int`` and ``is_real`` are the scalar
type tests that every argument check shares.

A steady streaming push calls :func:`matmul` and :func:`layer_norm` on
one row several times per encoder layer, so their fixed cost counts.
Each makes one combined test for plain ndarrays of fitting shapes; it
converts anything else with ``np.asarray`` and then checks it, raising
``ValueError`` with the shapes it got.  :func:`matmul` computes one row as
``a @ b``: that is the same (1, k) @ (k, n) vector-matrix product as a
row of the stacked form, on the same operands, so it has the same bits.

A value may cross between NumPy float32 and a Python float only through
a correctly rounded operation: +, -, *, / and sqrt.  A Python float is a
binary64, which carries more than 2 * 24 + 2 bits, so one of these
operations done in binary64 and rounded once to binary32 gives the
binary32 result bit for bit; :func:`layer_norm` takes the square root of
a single row's variance that way, which costs less than a NumPy call.
exp, log, sin and cos are not correctly rounded, and NumPy's and
``math``'s differ on some inputs, so each stays on the side it runs on.
"""

import math
import numbers

import numpy as np

NEG_INF = float("-inf")
LAYER_NORM_EPS = 1e-12  # added to the variance before its square root
MODEL_DTYPE = np.dtype(np.float32)
# products per block of conv_time_slab: 1 MB of float32, which with the
# block's inputs and pair sums stays in L2 (timed on a Xeon with 2 MB of L2
# per core: half or twice the size made the offline convs slower)
CONV_BLOCK_PRODUCTS = 1 << 18


def matmul(a, b):
    """Matrix product with a fixed per-row reduction order.

    Each output row is computed as an independent vector-matrix product,
    so the result of row i depends only on ``a[i]`` and ``b`` and never on
    how many other rows are present in ``a``.  The streaming layers and
    the decoder's projection caches rely on this to reproduce offline
    results bit-exactly when they compute rows one at a time.  The rows
    are a stack of (1, k) @ (k, n) products, which NumPy evaluates with
    the same vector-matrix routine as ``a[i] @ b``; plain ``a @ b`` is a
    matrix-matrix product whose bits may differ, except for one row,
    where it is that same (1, k) @ (k, n) product on the same operands,
    so one row is computed as ``a @ b``, without the stacking axis.
    """
    # the common case, two ndarrays whose shapes fit, in one test;
    # anything else is converted, then checked
    if not (type(a) is type(b) is np.ndarray and a.ndim == b.ndim == 2
            and a.shape[1] == b.shape[0]):
        a = np.asarray(a)
        b = np.asarray(b)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    if a.shape[0] == 1:
        return np.matmul(a, b)
    return np.matmul(a[:, None, :], b)[:, 0]


def relu(x):
    return np.maximum(x, 0.0)


def layer_norm(m, gain, bias):
    """Per-row layer normalization: gain * (x - mean) / sqrt(var + eps) + bias,
    eps being ``LAYER_NORM_EPS``."""
    # the common case, an ndarray matrix and two vectors that fit, in one
    # test; anything else is converted, then checked
    if not (type(m) is type(gain) is type(bias) is np.ndarray and m.ndim == 2
            and gain.shape == bias.shape == m.shape[1:]):
        m = np.asarray(m)
        gain = np.asarray(gain)
        bias = np.asarray(bias)
        if m.ndim != 2 or gain.shape != (m.shape[1],) or bias.shape != (m.shape[1],):
            raise ValueError(
                f"layer_norm shape mismatch: m {m.shape}, gain {gain.shape}, bias {bias.shape}"
            )
    # add.reduce / n is np.mean's own arithmetic (a pairwise sum, then one
    # correctly rounded division) without its Python-level wrappers
    n = m.shape[1]
    if m.shape[0] == 1:
        # one row, reduced as a vector: the same pairwise sums, the mean
        # and var + eps as scalar steps of the row's dtype, and the square
        # root taken as a Python float, which the division rounds to that
        # dtype (a Python float is a weak scalar to NumPy)
        row = m[0]
        centered = row - np.add.reduce(row) / n
        var = np.add.reduce(centered * centered) / n + LAYER_NORM_EPS
        return ((centered / math.sqrt(var)) * gain + bias)[None]
    centered = m - np.add.reduce(m, axis=1, keepdims=True) / n
    var = np.add.reduce(centered * centered, axis=1, keepdims=True) / n
    return (centered / np.sqrt(var + LAYER_NORM_EPS)) * gain + bias


def conv_columns(kernels):
    """Kernels (out_ch, in_ch, k_h, k_w) laid out as :func:`conv_time_slab`
    multiplies them: a contiguous (k_w, in_ch * k_h, out_ch) copy, whose
    entry w holds kernel column w's weights, one row per (in-channel,
    kernel row) pair.  A caller that convolves many slabs with one set of
    kernels makes it once and hands it to every call."""
    out_ch, in_ch, k_h, k_w = kernels.shape
    return np.ascontiguousarray(kernels.transpose(3, 1, 2, 0).reshape(k_w, in_ch * k_h, out_ch))


def conv_time_slab(slab, kernels, stride, columns=None):
    """The output rows (out_ch, rows, f_out) of a 2-D convolution
    (cross-correlation) over an already padded input slab
    (in_ch, T, f_padded), both axes swept with ``stride``.

    Each output row has the bits of ``np.einsum("ihfw,oihw->of", ...)``
    over its own window's strided frequency windows, which sums in two
    levels: each (in-channel, kernel row) pair's kernel-column products
    left to right, ``(p0 + p1) + p2``, then those partial sums one after
    another in in-channel-major order, starting from +0, for float32
    (float64 einsum sums in another order).  With at least two output
    columns that order is computed for a block of rows at a time: one
    ``np.einsum`` outer product of every kernel column's inputs (pairs by
    rows and columns) with its weights (pairs by output channels), a
    ``np.add.reduce`` over the kernel columns, which adds them left to
    right, and one over the pairs from ``initial=0``, which adds them one
    after another.  No product is summed, so einsum's order does not
    enter, and a row's bits do not depend on the rows around it; the
    products are laid out with the longer of the block's outputs per
    channel and the output channels last, where einsum's inner loop runs,
    and the layout changes no bit.  Blocks hold about
    ``CONV_BLOCK_PRODUCTS`` products, so the buffers, allocated once per
    call, stay in a core's L2 cache.  One output column, where
    einsum merges the kernel row and column loops, follows no fixed order,
    so each row stays on einsum itself, over a contiguous copy of its
    window since einsum's order may depend on strides.  ``columns`` is
    ``conv_columns(kernels)``, made here when not given.
    """
    in_ch, t, f = slab.shape
    out_ch, _, k_h, k_w = kernels.shape
    rows = (t - k_h) // stride + 1
    f_out = (f - k_w) // stride + 1
    if rows < 1 or f_out < 1:
        raise ValueError("input too short")
    dtype = np.promote_types(slab.dtype, kernels.dtype)
    if f_out == 1:
        out = np.empty((out_ch, rows, 1), dtype)
        for i in range(rows):
            # the frequency windows, made directly by np.ndarray with the shape
            # and strides that sliding_window_view(window, k_w, axis=2)[:, :, ::stride]
            # gives
            window = np.ascontiguousarray(slab[:, i * stride:i * stride + k_h])
            s_c, s_h, s_f = window.strides
            sw = np.ndarray((in_ch, k_h, 1, k_w), window.dtype, window,
                            strides=(s_c, s_h, s_f * stride, s_f))
            out[:, i] = np.einsum("ihfw,oihw->of", sw, kernels, optimize=False)
        return out
    if columns is None:
        columns = conv_columns(kernels)
    slab = np.ascontiguousarray(slab)
    s_c, s_t, s_f = slab.strides
    # windows[w, c, h, i, j] = slab[c, i * stride + h, j * stride + w]: the
    # input that kernel column w's weight for pair (c, h) multiplies in
    # output row i, column j
    windows = np.ndarray((k_w, in_ch, k_h, rows, f_out), slab.dtype, slab,
                         strides=(s_f, s_c, s_t, stride * s_t, stride * s_f))
    pairs = in_ch * k_h
    block = max(1, min(rows, CONV_BLOCK_PRODUCTS // (k_w * pairs * f_out * out_ch)))
    nb = block * f_out
    # einsum's inner loop runs along the products' last axis: a block's
    # outputs per channel, or the output channels if there are more of them
    outputs_last = nb >= out_ch
    spec = "wpn,wpo->wpon" if outputs_last else "wpn,wpo->wpno"
    x = np.empty((k_w, pairs, nb), dtype)
    prod = np.empty((k_w, pairs, out_ch, nb) if outputs_last else (k_w, pairs, nb, out_ch), dtype)
    acc = np.empty(prod.shape[1:], dtype)
    out = np.empty((out_ch, rows * f_out), dtype)
    for i in range(0, rows, block):
        b = min(block, rows - i)
        n = b * f_out
        np.copyto(x[:, :, :n].reshape(k_w, in_ch, k_h, b, f_out), windows[:, :, :, i:i + b])
        o = out[:, i * f_out:i * f_out + n]
        if outputs_last:
            p, a = prod[..., :n], acc[..., :n]
        else:
            p, a, o = prod[:, :, :n], acc[:, :n], o.T
        np.einsum(spec, x[:, :, :n], columns, out=p)
        np.add.reduce(p, axis=0, out=a)
        np.add.reduce(a, axis=0, initial=0, out=o)
    return out.reshape(out_ch, rows, f_out)


def conv2d(x, kernels, stride, columns=None):
    """2-D convolution over (time, freq), cross-correlation convention.

    x: (in_ch, T, F); kernels: (out_ch, in_ch, k_h, k_w).  Both axes are
    swept with the same ``stride``, without padding.  No bias, no
    activation.  Checks its arguments, then makes one
    :func:`conv_time_slab` call over the whole input; ``columns`` is
    ``conv_columns(kernels)``, made there when not given.
    """
    x = np.asarray(x)
    kernels = np.asarray(kernels)
    if x.ndim != 3 or kernels.ndim != 4:
        raise ValueError(f"conv2d expects 3-D input and 4-D kernels, got {x.shape}, {kernels.shape}")
    if kernels.shape[1] != x.shape[0]:
        raise ValueError(f"conv2d channel mismatch: input {x.shape[0]}, kernels {kernels.shape[1]}")
    return conv_time_slab(x, kernels, stride, columns)


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
    """Log-softmax of a logits vector, or of each row of a (B, V) matrix,
    accumulated in float64.

    Each row's max and sum are reductions along the contiguous last axis,
    which run per row, and its log is ``math.log`` of its own sum, so a
    row of the matrix gets the bits of the vector call on that row.

    A matrix row with no distribution, one whose logits hold NaN or +inf
    or are all -inf, raises ``ValueError``; its max shows it.  A vector
    gives NaN there instead, for the streaming CTC head, whose rows the
    search refuses when it reads them.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim == 1:
        m = float(np.maximum.reduce(z))
        return z - (m + math.log(float(np.add.reduce(np.exp(z - m)))))
    if z.ndim != 2:
        raise ValueError(f"log_softmax_f64 expects a vector or a matrix, got shape {z.shape}")
    m = np.maximum.reduce(z, axis=1, keepdims=True)
    maxes = m[:, 0].tolist()
    # a sum of finite maxes is finite; one NaN, +inf or -inf max is not
    if not -math.inf < sum(maxes) < math.inf:
        raise ValueError("a row of logits holds NaN or +inf, or only -inf")
    sums = np.add.reduce(np.exp(z - m), axis=1).tolist()
    offsets = [mi + math.log(si) for mi, si in zip(maxes, sums)]
    return z - np.array(offsets)[:, None]


def check_model_dtype(params):
    """Raise ``ValueError`` if a tensor of ``params`` is not float32, the
    model dtype, naming it as a model archive does.  The tensors are those
    the archive's schema (``modelio._SCHEMA``) lists for the type of
    ``params``: all of an ``EncoderParams`` or a ``DecoderParams``; of
    anything else, the model's own ``ctc.w`` and ``ctc.b``, read as
    ``ctc_w`` and ``ctc_b``.  None passes: a front-end-only
    ``EncoderParams`` has no final norm."""
    from .modelio import _SCHEMA, _Block, _tensors  # imported here: modelio depends on this module
    prefix, rows = next(((pre, spec.rows) for pre, _, spec, _ in _SCHEMA
                         if type(spec) is _Block and spec.cls is type(params)),
                        ("", [row for row in _SCHEMA if type(row[2]) is not _Block]))
    for name, t in _tensors(rows, prefix, params):
        if not (t is None or t.dtype == MODEL_DTYPE):
            raise ValueError(f"{name} is {t.dtype}, not float32, the model dtype")


def is_int(v):
    """An integer that is not a bool (NumPy integers count)."""
    return type(v) is int or (isinstance(v, numbers.Integral) and not isinstance(v, bool))


def check_count(v, what):
    """Refuse ``v``, named ``what``, unless it is an integer >= 0."""
    if not (is_int(v) and v >= 0):
        raise ValueError(f"{what} {v!r} is not an integer >= 0")


def is_real(v):
    """A real number that is not a bool (NumPy reals count)."""
    return type(v) in (float, int) or isinstance(v, numbers.Real) and not isinstance(v, bool)
