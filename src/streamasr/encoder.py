"""Convolutional front end and time-restricted self-attention encoder.

The front end runs two stride-2 3x3 convolutions with ReLU (4x frame-rate
reduction), flattens the channel/frequency axes per frame and projects to
the model width.  Sinusoidal positional encodings from the one bounded,
process-wide block cache the decoder reads too (:func:`position_rows`)
are added, then E identical pre-norm transformer layers follow.  Each
layer's self-attention lets frame i see every past frame but only
``eps_enc`` future frames, so the look-ahead grows linearly with depth.

One engine, :class:`IncrementalEncoder`, runs all of it: offline
:func:`encode` is one push with ``final=True``, and streaming, pushing
each chunk as it arrives, gets the same bits: an (N, d_model) float32
matrix, one row per four input frames.  :func:`encoder_layer` is the
whole-matrix reference the engine is tested against.

A steady streaming push of 40 ms (four frames) brings each layer one row
and emits one row that sees every key.  It runs the code every push
runs, and its products and attention call take their one-row forms
(see :mod:`streamasr.attention` and :mod:`streamasr.kernels`), which
keep the bits.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import attention, kernels
from .attention import (ROW_BLOCK, KeyValueStore, MhaParams, full_mask, merge_heads,
                        multi_head_attention, project_heads)


@dataclass
class FeatureMatrix:
    """Acoustic feature frames: (T, d_feat) float32, one row per frame."""

    frames: np.ndarray
    frame_shift_ms: float = 10.0


@dataclass
class CnnParams:
    conv1_w: np.ndarray  # (ch1, 1, 3, 3)
    conv1_b: np.ndarray  # (ch1,)
    conv2_w: np.ndarray  # (ch2, ch1, 3, 3)
    conv2_b: np.ndarray  # (ch2,)
    proj_w: np.ndarray   # (ch2 * ceil(ceil(d_feat/2)/2), d_model)
    proj_b: np.ndarray   # (d_model,)


@dataclass
class EncoderLayerParams:
    mha: MhaParams
    norm1_g: np.ndarray
    norm1_b: np.ndarray
    ff1_w: np.ndarray
    ff1_b: np.ndarray
    ff2_w: np.ndarray
    ff2_b: np.ndarray
    norm2_g: np.ndarray
    norm2_b: np.ndarray


@dataclass
class EncoderParams:
    cnn: CnnParams
    layers: list = field(default_factory=list)
    final_norm_g: np.ndarray = None
    final_norm_b: np.ndarray = None
    d_feat: int = None  # feature columns per frame; the conv weights do not fix it

    @property
    def d_model(self):
        return self.cnn.proj_w.shape[1]


def positional_encodings(positions, d_model):
    """Sinusoidal position vectors sin/cos(pos / 10000^(2i/d_model)), one
    float32 row per position.

    Computed in float64 and rounded once.  Division, sin and cos are
    elementwise, so each row has the bits of its position computed alone
    (the tests check it against that form).
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.size:
        low = np.minimum.reduce(positions, axis=None)  # NaN if any is
        if not (low >= 0 and np.maximum.reduce(positions, axis=None) < math.inf):
            if not np.isfinite(positions).all():
                raise ValueError("positions must be finite")
            raise ValueError(f"positions must be >= 0, got {low:g}")
    divisors = np.power(10000.0, np.arange(0, d_model, 2, dtype=np.float64) / d_model)
    angles = positions[:, None] / divisors
    out = np.empty((positions.shape[0], d_model), dtype=np.float64)
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles[:, :d_model // 2])
    return out.astype(np.float32)


def position_rows(start, stop, d_model):
    """The positional encodings of positions start..stop-1 (start <= stop),
    from blocks of ``ROW_BLOCK`` positions, each computed once per model
    width and kept read-only: a view of one block, or a new array where the
    rows span blocks.  Each row has the bits of its position computed alone."""
    at = start - start % ROW_BLOCK
    if stop <= at + ROW_BLOCK:
        return _position_block(at, d_model)[start - at:stop - at]
    blocks = [_position_block(b, d_model) for b in range(at, stop, ROW_BLOCK)]
    return np.concatenate(blocks)[start - at:stop - at]


@functools.lru_cache(maxsize=128)
def _position_block(at, d_model):
    """The encodings of the ``ROW_BLOCK`` positions from ``at`` on, read-only."""
    out = positional_encodings(np.arange(at, at + ROW_BLOCK), d_model)
    out.flags.writeable = False
    return out


def feature_frames(features):
    """The frame matrix of a :class:`FeatureMatrix` or array as float32,
    the model's dtype: the same values give the same bits whatever dtype
    they arrive in.  Values that are not real numbers raise; values
    beyond float32's range become infinite."""
    frames = features.frames if isinstance(features, FeatureMatrix) else np.asarray(features)
    if frames.dtype.kind not in "biuf":
        raise ValueError(f"feature values must be real numbers, got dtype {frames.dtype}")
    if frames.dtype != np.float32:
        with np.errstate(over="ignore"):
            frames = frames.astype(np.float32)
    return frames


def cnn_frame_count(t):
    """Output frame count of the two stride-2 convolutions for t >= 0 input frames."""
    kernels.check_count(t, "frame count")
    return math.ceil(math.ceil(t / 2) / 2)


def feed_forward(x, w1, b1, w2, b2):
    """Position-wise feed forward: ReLU(x W1 + b1) W2 + b2."""
    return kernels.matmul(kernels.relu(kernels.matmul(x, w1) + b1), w2) + b2


class _ConvRows:
    """One stride-2 3x3 convolution with bias and ReLU over time rows as they arrive.

    ``pending`` holds the frequency-padded input rows from the next
    output's first on, starting with the time axis's leading zero row;
    output row j reads padded rows 2j..2j+2.
    """

    def __init__(self, w, b):
        self.w = w
        self.b = b
        self.columns = kernels.conv_columns(w)  # laid out for every row's conv call
        self.pending = None

    def push(self, x, final):
        """New input rows (in_ch, rows, f), or None -> the output rows they
        complete; ``final`` appends the time axis's trailing zero row."""
        kept = self.pending
        if x is None:
            x = kept[:, :0, 1:-1]
        # the kept rows (or the leading zero row), the new rows between two
        # zero frequency columns, and the trailing zero row if final
        ch, t, f = x.shape
        start = 1 if kept is None else kept.shape[1]
        buf = np.zeros((ch, start + t + int(final), f + 2), dtype=x.dtype)
        if kept is not None:
            buf[:, :start] = kept
        buf[:, start:start + t, 1:f + 1] = x
        k = (buf.shape[1] - 1) // 2
        self.pending = buf[:, 2 * k:]
        if k == 0:
            return np.zeros((self.w.shape[0], 0, (f - 1) // 2 + 1), dtype=buf.dtype)
        h = kernels.conv2d(buf[:, :2 * k + 1], self.w, 2, self.columns)
        return kernels.relu(h + self.b[:, None, None])


class _LayerRows:
    """One encoder layer over rows as they arrive.

    Keeps the input rows not emitted yet (``x``, the residual), their
    attention queries (``q``, head-major (heads, rows, d)) and the keys
    and values of every row so far, appended in place (``kv``).  A row is
    normed and projected once, when it arrives: one :func:`project_heads`
    call over the block's stacked Q/K/V weight gives its query, key and
    value.  Attention reads the stored keys as views: the rows that see
    every key in one all-keys call, and the rows whose look-ahead ends
    sooner in one masked call, each over its own key prefix.

    A steady streaming push of 40 ms brings one row and emits one row
    that sees every key; its all-keys mask is a slice of one all-True row
    kept per layer, grown to the store's capacity, not a new array.
    """

    def __init__(self, layer, eps_enc):
        layer.mha.qkv()  # fails now, not at the first push, if d_v != d_k
        self.layer = layer
        self.eps = eps_enc
        self.heads = layer.mha.w_q.shape[0]
        self.x = np.zeros((0, layer.norm1_g.shape[0]), dtype=np.float32)
        self.q = np.zeros((self.heads, 0, layer.mha.w_q.shape[2]), dtype=np.float32)
        self.kv = KeyValueStore(layer.mha)
        self._row_mask = full_mask(1, 0)

    def push(self, x, final):
        """New input rows -> the output rows whose look-ahead is complete.

        The rows emitted are taken from the pending rows before the new
        ones are joined to them, so a push that emits every old pending
        row (a steady push) joins nothing."""
        layer, h = self.layer, self.heads
        q = None
        if x.shape[0]:
            qkv = project_heads(kernels.layer_norm(x, layer.norm1_g, layer.norm1_b),
                                layer.mha.qkv())
            self.kv.append(qkv[h:2 * h], qkv[2 * h:])
            q = qkv[:h]
        old = self.x.shape[0]
        pending = old + x.shape[0]
        m = pending if final else int(max(0, pending - self.eps))
        if m > old:  # new rows are emitted too: join them first
            self._join(x, q)
            return self._emit(m, pending)
        out = self._emit(m, pending)
        self._join(x, q)
        return out

    def _join(self, x, q):
        """Append new input rows and their query heads to the pending ones."""
        if not x.shape[0]:
            return
        if self.x.shape[0]:
            self.x = np.concatenate([self.x, x])
            self.q = np.concatenate([self.q, q], axis=1)
        else:
            self.x, self.q = x, q

    def _emit(self, m, pending):
        """The output rows of the first m of ``pending`` rows, whose first
        m are held in ``x`` and ``q``; they leave the pending rows."""
        if m == 0:
            return self.x[:0]
        layer, n = self.layer, self.kv.rows
        # pending row i is row n - pending + i and sees the keys up to eps
        # rows ahead of it, so the first `limited` rows end before the last
        # key (eps is finite then) and each sees a key prefix
        limited = int(min(m, max(0, pending - 1 - self.eps)))
        keys, values = self.kv.view()
        q = self.q[:, :m]
        heads = []
        if limited:
            # limited row i sees keys 1..first + i: a staircase mask, built
            # as bytes, which costs less than comparing index arrays
            first = n - pending + int(self.eps) + 1
            width = first + limited - 1
            stairs = b"".join([b"\x01" * (first + i) + b"\x00" * (limited - 1 - i)
                               for i in range(limited)])
            heads.append(attention.scaled_dot_attention(
                q[:, :limited], keys[:, :width], values[:, :width],
                np.frombuffer(stairs, dtype=bool).reshape(limited, width)))
        if limited < m:
            if m - limited == 1:
                if self._row_mask.shape[1] < n:
                    self._row_mask = full_mask(1, self.kv.capacity)
                mask = self._row_mask[:, :n]
            else:
                mask = full_mask(m - limited, n)
            heads.append(attention.scaled_dot_attention(q[:, limited:], keys, values, mask))
        z = self.x[:m] + merge_heads(heads[0] if len(heads) == 1 else np.concatenate(heads, axis=1),
                                     layer.mha)
        normed = kernels.layer_norm(z, layer.norm2_g, layer.norm2_b)
        self.x, self.q = self.x[m:], self.q[:, m:]
        return z + feed_forward(normed, layer.ff1_w, layer.ff1_b, layer.ff2_w, layer.ff2_b)


def check_eps_enc(eps_enc):
    """Reject an encoder look-ahead that is neither a non-negative integer nor math.inf."""
    if not (kernels.is_real(eps_enc)
            and (eps_enc == math.inf or (float(eps_enc).is_integer() and eps_enc >= 0))):
        raise ValueError(f"eps_enc must be a non-negative integer or inf, got {eps_enc!r}")


class IncrementalEncoder:
    """The encoder, run on feature frames as they arrive.

    A push runs each stage as far as its inputs are complete and returns
    the encoder rows it finished.  In 1-based counts, conv row m needs
    input frames 1..2m, so projected row m needs frames 1..4m; a layer's
    output row i needs rows 1..i+eps_enc of the layer below, so encoder
    row n needs frame 4n + 4*E*eps_enc (``streaming.emission_frame``).
    ``final`` ends the sequence: the time axis is zero-padded and every
    look-ahead clamped to the end, as offline.  Each push reads its rows'
    positional encodings from :func:`position_rows`.  A tensor of
    ``params`` that is not float32, the model dtype, raises ``ValueError``
    naming it before anything is built (:func:`kernels.check_model_dtype`).
    """

    def __init__(self, params, eps_enc):
        check_eps_enc(eps_enc)
        kernels.check_model_dtype(params)
        self.params = params
        cnn = params.cnn
        self.convs = [_ConvRows(cnn.conv1_w, cnn.conv1_b), _ConvRows(cnn.conv2_w, cnn.conv2_b)]
        self.layers = [_LayerRows(layer, eps_enc) for layer in params.layers]
        self.frames = 0
        self.rows = 0

    def push(self, frames=None, final=False):
        """New feature frames (T, d_feat), or None -> the new encoder rows."""
        x0 = self.front_end(frames, final)
        x0 = x0 + position_rows(self.rows, self.rows + x0.shape[0], self.params.d_model)
        self.rows += x0.shape[0]
        return self._layer_stack(x0, final)

    def front_end(self, frames, final):
        """The one feature check, made before any state changes, then the conv
        stack and projection alone -> the projected rows completed."""
        h = None
        if frames is not None:
            frames = feature_frames(frames)
            if frames.ndim != 2:
                raise ValueError(f"feature matrix must be 2-D, got shape {frames.shape}")
            if frames.shape[1] != self.params.d_feat:
                raise ValueError(f"got {frames.shape[1]} feature columns, "
                                 f"the model takes {self.params.d_feat}")
            if not np.isfinite(frames).all():
                raise ValueError("features contain non-finite values")
            h = frames[None, :, :]
        t = 0 if h is None else h.shape[1]
        if self.frames + t == 0 and (final or h is None):
            raise ValueError("input too short")
        for conv in self.convs:
            h = conv.push(h, final)
        self.frames += t
        ch, n, f = h.shape
        flat = h.transpose(1, 0, 2).reshape(n, ch * f)  # per frame: channels-major flatten
        return kernels.matmul(flat, self.params.cnn.proj_w) + self.params.cnn.proj_b

    def push_rows(self, x0, final=False):
        """The layer stack and final norm alone, on projected, position-encoded
        rows.  The rows are copied: the first layer keeps its pending rows.
        Kept for :func:`encoder_forward`; no decode calls it."""
        return self._layer_stack(np.array(x0, dtype=np.float32), final)

    def _layer_stack(self, x, final):
        for layer in self.layers:
            x = layer.push(x, final)
        return kernels.layer_norm(x, self.params.final_norm_g, self.params.final_norm_b)


def enc_cnn(features, cnn):
    """Run the convolutional front end; returns the projected (N, d_model) matrix.

    Positional encodings are not added here; callers add them before the
    self-attention stack.  The feature width is the one ``features`` has.
    Kept as the tests' front end and for ``perfbench/tracer.py``, which
    wraps it; no decode calls it.
    """
    frames = feature_frames(features)
    params = EncoderParams(cnn, d_feat=frames.shape[-1] if frames.ndim else None)
    return IncrementalEncoder(params, math.inf).front_end(frames, final=True)


def encoder_layer(x, layer, mask):
    """One pre-norm encoder layer: self-attention then feed forward, both
    residual.  Kept as the tests' reference and for ``perfbench/tracer.py``,
    which wraps it; no decode calls it."""
    normed = kernels.layer_norm(x, layer.norm1_g, layer.norm1_b)
    x = x + multi_head_attention(normed, normed, normed, layer.mha, mask)
    normed = kernels.layer_norm(x, layer.norm2_g, layer.norm2_b)
    return x + feed_forward(normed, layer.ff1_w, layer.ff1_b, layer.ff2_w, layer.ff2_b)


def encoder_forward(x0, params, eps_enc):
    """Run the self-attention stack over CNN+position-encoded input rows.

    eps_enc is the per-layer future visibility in encoder frames; math.inf
    removes the restriction entirely.  Kept as the acceptance checks' way
    to perturb encoder input rows; no decode calls it.
    """
    return IncrementalEncoder(params, eps_enc).push_rows(x0, final=True)


def encode(features, params, eps_enc):
    """Features -> encoder matrix: CNN front end, positional encoding, layer stack."""
    return IncrementalEncoder(params, eps_enc).push(features, final=True)
