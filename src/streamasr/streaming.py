"""Incremental recognition sessions over the same kernels as the offline path.

A session buffers feature frames, runs the convolutional front end and the
restricted-look-ahead encoder layers row by row as their inputs become
complete, converts each finished encoder row to a CTC posterior row, and
advances the joint beam search one frame at a time.  Every row is produced
by the exact per-row routine the offline pipeline uses on the same values,
so for any chunking of the input the encoder rows, posterior rows, trace
lines, and the final hypothesis are bit-identical to a single offline run.

Availability rules, with 1-based counts and per-layer look-ahead ``eps``:

* front-end conv row m exists once 2m input frames arrived; stacking both
  stride-2 convolutions, projected row m needs 4m input frames;
* encoder layer output row i needs rows 1..i+eps of the layer below, so
  the final encoder row n needs projected rows 1..n + E*eps, i.e. input
  frame 4n + 4*E*eps (the closed form behind ``emission_frame``);
* the search consumes frame n once n + eps_dec encoder rows exist.

Whatever is still pending when the utterance ends is flushed by
``finalize`` with the look-ahead clamped to the true input length, which
reproduces the offline boundary handling exactly.
"""

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .attention import full_mask, multi_head_attention
from .ctc import log_posterior_row
from .encoder import FeatureMatrix, feed_forward, positional_encoding
from .search import CtcPrefixSearch, DecodeResult, JointSearch


@dataclass
class StreamConfig:
    """Look-ahead budget of a streaming recognizer.

    eps_enc is the per-encoder-layer future visibility in encoder frames
    (math.inf disables streaming emission entirely); eps_dec is how many
    encoder frames beyond the current one the attention decoder may read.
    """

    eps_enc: float = math.inf
    eps_dec: int = 18
    frame_shift_ms: float = 10.0

    def __post_init__(self):
        ok = self.eps_enc == math.inf or (
            float(self.eps_enc).is_integer() and self.eps_enc >= 0
        )
        if not ok:
            raise ValueError(f"eps_enc must be a non-negative integer or inf, got {self.eps_enc}")
        if self.eps_dec < 0:
            raise ValueError(f"eps_dec must be >= 0, got {self.eps_dec}")
        if self.frame_shift_ms <= 0:
            raise ValueError(f"frame_shift_ms must be positive, got {self.frame_shift_ms}")


def theoretical_latency_ms(cfg, e_layers):
    """Worst-case algorithmic delay between a frame arriving and affecting output.

    Three input frames for the stride-2 convolution stack, plus four input
    frames (one encoder frame) per layer of encoder look-ahead, plus four
    per frame of decoder look-ahead.  At a 10 ms shift this is
    30 + e_layers*eps_enc*40 + eps_dec*40 milliseconds; infinite encoder
    look-ahead means no output before the utterance ends.
    """
    if cfg.eps_enc == math.inf:
        return math.inf
    s = cfg.frame_shift_ms
    return 3 * s + e_layers * cfg.eps_enc * 4 * s + cfg.eps_dec * 4 * s


def emission_frame(n, e_layers, eps_enc):
    """Input frame count (1-based) at which encoder row n becomes available."""
    if eps_enc == math.inf:
        return math.inf
    return 4 * (n + e_layers * eps_enc)


def _append(mat, row):
    return np.concatenate([mat, row[None, :]], axis=0)


class StreamingSession:
    """One in-flight utterance: push feature chunks, read partials, finalize.

    ``model`` provides .encoder, .decoder, .ctc_w, .ctc_b; the decoder
    look-ahead in ``decode_params`` is overridden by the stream config so
    the two cannot disagree.
    """

    def __init__(self, model, lm, decode_params, config, ctc_only=False):
        self.model = model
        self.config = config
        self.params = replace(decode_params, eps_dec=config.eps_dec)
        n_cols = model.ctc_b.shape[0]
        if ctc_only:
            banned = [model.decoder.sos_id]
            if model.decoder.eos_id is not None:
                banned.append(model.decoder.eos_id)
            self.search = CtcPrefixSearch(lm, self.params, n_cols, banned)
        else:
            self.search = JointSearch(model.decoder, lm, self.params, n_cols)
        self.closed = False
        self._t = 0
        # freq-padded conv inputs, from the next output's first row (at first
        # the leading zero row) on: input rows (1, F+2), conv1 rows (ch1, f1+2)
        self._x1p = []
        self._x2p = []
        self._c1 = 0
        self._c2 = 0
        e = len(model.encoder.layers)
        self._lin = [np.zeros((0, model.encoder.d_model), dtype=np.float32) for _ in range(e + 1)]
        self._lln = [np.zeros((0, model.encoder.d_model), dtype=np.float32) for _ in range(e)]
        self._enc = np.zeros((0, model.encoder.d_model), dtype=np.float32)
        self._post = deque()      # posterior rows the search has not consumed yet
        self._last_partial = None

    @property
    def emitted_frames(self):
        """Encoder rows produced so far."""
        return self._enc.shape[0]

    @property
    def decoded_frames(self):
        """Encoder frames the search has consumed so far."""
        return self.search.frame

    def push(self, chunk):
        """Feed a chunk of feature frames; returns the new best partial
        hypothesis (label-id tuple) if it changed, else None."""
        if self.closed:
            raise RuntimeError("session closed")
        frames = chunk.frames if isinstance(chunk, FeatureMatrix) else np.asarray(chunk)
        if frames.ndim != 2 or frames.shape[0] < 1:
            raise ValueError(f"chunk must be a non-empty 2-D frame matrix, got shape {frames.shape}")
        if not np.isfinite(frames).all():
            raise ValueError("chunk contains non-finite feature values")
        if not self._x1p:
            self._x1p.append(np.zeros((1, frames.shape[1] + 2), dtype=frames.dtype))
        elif frames.shape[1] + 2 != self._x1p[0].shape[1]:
            raise ValueError(
                f"feature width changed: {frames.shape[1]} vs {self._x1p[0].shape[1] - 2}"
            )
        for row in frames:
            self._x1p.append(np.pad(row, 1)[None, :])
        self._t += frames.shape[0]
        self._pump(final=False)
        return self._partial()

    def finalize(self):
        """Flush everything and return the final DecodeResult; closes the session."""
        if self.closed:
            raise RuntimeError("session closed")
        self.closed = True
        if self._t == 0:
            return DecodeResult((), 0.0, [])
        self._pump(final=True)
        return self.search.finalize(self._enc)

    def _partial(self):
        if self.search.frame == 0:
            return None
        cur = self.search.best_ctc_partial
        if cur != self._last_partial:
            self._last_partial = cur
            return cur
        return None

    def _conv_row(self, padded, weights, bias):
        """Next stride-2 output row from padded rows 0..2; drops rows 0 and 1,
        which no later output reads."""
        slab = np.stack(padded[:3], axis=1)
        del padded[:2]
        return kernels.relu(kernels.conv_time_slab(slab, weights, stride=2) + bias[:, None])

    def _pump(self, final):
        cnn = self.model.encoder.cnn
        if final:
            self._x1p.append(np.zeros_like(self._x1p[0]))
        c1_target = math.ceil(self._t / 2) if final else self._t // 2
        while self._c1 < c1_target:
            act = self._conv_row(self._x1p, cnn.conv1_w, cnn.conv1_b)
            if not self._x2p:
                self._x2p.append(np.zeros((act.shape[0], act.shape[1] + 2), dtype=act.dtype))
            self._x2p.append(np.pad(act, ((0, 0), (1, 1))))
            self._c1 += 1
        if final and self._x2p:
            self._x2p.append(np.zeros_like(self._x2p[0]))
        c2_target = math.ceil(self._c1 / 2) if final else self._c1 // 2
        d_model = self.model.encoder.d_model
        while self._c2 < c2_target:
            act = self._conv_row(self._x2p, cnn.conv2_w, cnn.conv2_b)
            row = kernels.matmul(act.reshape(1, -1), cnn.proj_w)[0] + cnn.proj_b
            row = row + positional_encoding(self._c2, d_model)
            self._lin[0] = _append(self._lin[0], row)
            self._c2 += 1

        eps = self.config.eps_enc
        for e, layer in enumerate(self.model.encoder.layers):
            inp = self._lin[e]
            ln = self._lln[e]
            while ln.shape[0] < inp.shape[0]:
                j = ln.shape[0]
                ln = _append(ln, kernels.layer_norm(inp[j : j + 1], layer.norm1_g, layer.norm1_b)[0])
            self._lln[e] = ln
            if final:
                limit = inp.shape[0]
            elif eps == math.inf:
                limit = 0
            else:
                limit = max(0, inp.shape[0] - int(eps))
            out = self._lin[e + 1]
            while out.shape[0] < limit:
                i = out.shape[0]
                klim = int(min(i + eps + 1, inp.shape[0]))
                att = multi_head_attention(
                    ln[i : i + 1], ln[:klim], ln[:klim], layer.mha, full_mask(1, klim)
                )
                z = inp[i] + att[0]
                normed = kernels.layer_norm(z[None, :], layer.norm2_g, layer.norm2_b)
                row = z + feed_forward(normed, layer.ff1_w, layer.ff1_b, layer.ff2_w, layer.ff2_b)[0]
                out = _append(out, row)
            self._lin[e + 1] = out

        last = self._lin[-1]
        while self._enc.shape[0] < last.shape[0]:
            i = self._enc.shape[0]
            row = kernels.layer_norm(
                last[i : i + 1], self.model.encoder.final_norm_g, self.model.encoder.final_norm_b
            )[0]
            self._enc = _append(self._enc, row)
            self._post.append(log_posterior_row(row, self.model.ctc_w, self.model.ctc_b))

        n = self._enc.shape[0]
        dec_target = n if final else max(0, n - self.config.eps_dec)
        while self.search.frame < dec_target:
            self.search.advance(self._post.popleft(), self._enc)
