"""Convolutional front end and time-restricted self-attention encoder.

The front end runs two stride-2 3x3 convolutions with ReLU (4x frame-rate
reduction), flattens the channel/frequency axes per frame and projects to
the model width.  Sinusoidal positional encodings are added, then E
identical pre-norm transformer layers follow.  Each layer's self-attention
lets frame i see every past frame but only ``eps_enc`` future frames, so
the total encoder look-ahead grows linearly with depth.

One engine, :class:`IncrementalEncoder`, runs all of it: offline
:func:`encode` is one push with ``final=True``, and streaming, pushing
each chunk as it arrives, gets the same bits.  :func:`encoder_layer` is
the whole-matrix reference the engine is tested against.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .attention import KeyValues, MhaParams, attend, lookahead_mask, multi_head_attention


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

    @property
    def d_model(self):
        return self.cnn.proj_w.shape[1]


@dataclass
class EncoderStates:
    """Encoder output sequence: (N, d_model) float32, 40 ms per row at 10 ms input shift."""

    states: np.ndarray
    frame_duration_ms: float = 40.0


def positional_encoding(pos, d_model):
    """Sinusoidal position vector: sin/cos(pos / 10000^(2i/d_model))."""
    even = np.arange(0, d_model, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, even / d_model)
    out = np.empty(d_model, dtype=np.float64)
    out[0::2] = np.sin(angles)
    out[1::2] = np.cos(angles[: d_model // 2])
    return out.astype(np.float32)


def positional_encoding_rows(start, count, d_model):
    if count == 0:
        return np.zeros((0, d_model), dtype=np.float32)
    return np.stack([positional_encoding(p, d_model) for p in range(start, start + count)])


def cnn_frame_count(t):
    """Output frame count of the two stride-2 convolutions for t input frames."""
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
        self.pending = None

    def push(self, x, final):
        """New input rows (in_ch, rows, f), or None -> the output rows they
        complete; ``final`` appends the time axis's trailing zero row."""
        buf = self.pending
        if x is not None:
            x = np.pad(x, ((0, 0), (int(buf is None), 0), (1, 1)))
            if buf is not None and x.shape[2] != buf.shape[2]:
                raise ValueError(f"feature width changed: {x.shape[2] - 2} vs {buf.shape[2] - 2}")
            buf = x if buf is None else np.concatenate([buf, x], axis=1)
        if final:
            buf = np.pad(buf, ((0, 0), (0, 1), (0, 0)))
        k = (buf.shape[1] - 1) // 2
        self.pending = buf[:, 2 * k:]
        if k == 0:
            return np.zeros((self.w.shape[0], 0, (buf.shape[2] - 3) // 2 + 1), dtype=buf.dtype)
        h = kernels.conv2d(buf[:, :2 * k + 1], self.w, stride=2, pad=0)
        return kernels.relu(h + self.b[:, None, None])


class _LayerRows:
    """One encoder layer over rows as they arrive: keeps the input rows not
    emitted yet, their norm1 rows (the attention queries) and the keys and
    values of every row so far, each projected once."""

    def __init__(self, layer, eps_enc):
        self.layer = layer
        self.eps = eps_enc
        self.x = self.normed = np.zeros((0, layer.norm1_g.shape[0]), dtype=np.float32)
        self.kv = KeyValues.empty(layer.mha)

    def push(self, x, final):
        """New input rows -> the output rows whose look-ahead is complete."""
        layer = self.layer
        normed = kernels.layer_norm(x, layer.norm1_g, layer.norm1_b)
        self.kv = self.kv.append(KeyValues.project(normed, layer.mha))
        self.x = np.concatenate([self.x, x])
        self.normed = np.concatenate([self.normed, normed])
        n, pending = self.kv.rows, self.x.shape[0]
        m = pending if final else int(max(0, pending - self.eps))
        # the rows of lookahead_mask(n, n, eps) for the m oldest pending rows
        mask = lookahead_mask(m, n, float(n - pending) + self.eps)
        z = self.x[:m] + attend(self.normed[:m], self.kv.keys, self.kv.values, layer.mha, mask)
        normed = kernels.layer_norm(z, layer.norm2_g, layer.norm2_b)
        self.x, self.normed = self.x[m:], self.normed[m:]
        return z + feed_forward(normed, layer.ff1_w, layer.ff1_b, layer.ff2_w, layer.ff2_b)


def check_eps_enc(eps_enc):
    """Reject an encoder look-ahead that is neither a non-negative integer nor math.inf."""
    if not (isinstance(eps_enc, numbers.Real) and not isinstance(eps_enc, bool)
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
    look-ahead clamped to the end, as offline.
    """

    def __init__(self, params, eps_enc):
        check_eps_enc(eps_enc)
        self.params = params
        cnn = params.cnn
        self.convs = [_ConvRows(cnn.conv1_w, cnn.conv1_b), _ConvRows(cnn.conv2_w, cnn.conv2_b)]
        self.layers = [_LayerRows(layer, eps_enc) for layer in params.layers]
        self.frames = 0
        self.rows = 0

    def push(self, frames=None, final=False):
        """New feature frames (T, d_feat), or None -> the new encoder rows."""
        x0 = self.front_end(frames, final)
        x0 = x0 + positional_encoding_rows(self.rows, x0.shape[0], self.params.d_model)
        self.rows += x0.shape[0]
        return self.push_rows(x0, final)

    def front_end(self, frames, final):
        """The conv stack and projection alone -> the projected rows completed."""
        h = None
        if frames is not None:
            frames = frames.frames if isinstance(frames, FeatureMatrix) else np.asarray(frames)
            if frames.ndim != 2:
                raise ValueError(f"feature matrix must be 2-D, got shape {frames.shape}")
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
        """The layer stack and final norm alone, on projected, position-encoded rows."""
        x = np.asarray(x0, dtype=np.float32)
        for layer in self.layers:
            x = layer.push(x, final)
        return kernels.layer_norm(x, self.params.final_norm_g, self.params.final_norm_b)


def enc_cnn(features, cnn):
    """Run the convolutional front end; returns the projected (N, d_model) matrix.

    Positional encodings are not added here; callers add them before the
    self-attention stack.
    """
    return IncrementalEncoder(EncoderParams(cnn), math.inf).front_end(features, final=True)


def encoder_layer(x, layer, mask):
    """One pre-norm encoder layer: self-attention then feed forward, both residual."""
    normed = kernels.layer_norm(x, layer.norm1_g, layer.norm1_b)
    x = x + multi_head_attention(normed, normed, normed, layer.mha, mask)
    normed = kernels.layer_norm(x, layer.norm2_g, layer.norm2_b)
    return x + feed_forward(normed, layer.ff1_w, layer.ff1_b, layer.ff2_w, layer.ff2_b)


def encoder_forward(x0, params, eps_enc, frame_shift_ms=10.0):
    """Run the self-attention stack over CNN+position-encoded input rows.

    eps_enc is the per-layer future visibility in encoder frames; math.inf
    removes the restriction entirely.
    """
    states = IncrementalEncoder(params, eps_enc).push_rows(x0, final=True)
    return EncoderStates(states, frame_duration_ms=4.0 * frame_shift_ms)


def encode(features, params, eps_enc):
    """Features -> encoder states: CNN front end, positional encoding, layer stack."""
    states = IncrementalEncoder(params, eps_enc).push(features, final=True)
    shift = features.frame_shift_ms if isinstance(features, FeatureMatrix) else 10.0
    return EncoderStates(states, frame_duration_ms=4.0 * shift)
