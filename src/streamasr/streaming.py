"""Incremental recognition sessions over the same encoder as the offline path.

A session pushes each feature chunk into an
:class:`~streamasr.encoder.IncrementalEncoder`, the engine offline
:func:`~streamasr.encoder.encode` runs in one push, turns each encoder row
it completes into a CTC posterior row, and advances the joint beam search
on frame n once n + eps_dec encoder rows exist; ``finalize`` flushes the
rest.  For any chunking of the input the encoder rows, posterior rows,
trace lines, and the final hypothesis are bit-identical to a single
offline run.
"""

import math
import numbers
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

# multi_head_attention is not called here, but stays bound: the
# benchmark's tracer (perfbench/tracer.py) wraps it by this module's name.
from .attention import multi_head_attention  # noqa: F401
from .ctc import log_posterior_row
from .encoder import FeatureMatrix, IncrementalEncoder, check_eps_enc
from .search import CtcPrefixSearch, DecodeResult, JointSearch, check_eps_dec


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
        check_eps_enc(self.eps_enc)
        check_eps_dec(self.eps_dec)
        shift = self.frame_shift_ms
        if isinstance(shift, bool) or not isinstance(shift, numbers.Real) or not 0 < shift < math.inf:
            raise ValueError(f"frame_shift_ms must be a positive finite number, got {shift!r}")


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


class StreamingSession:
    """One in-flight utterance: push feature chunks, read partials, finalize.

    ``model`` provides .encoder, .decoder, .ctc_w, .ctc_b; the decoder
    look-ahead in ``decode_params`` is overridden by the stream config so
    the two cannot disagree.  ``ctc_only`` runs the search without the
    decoder (:class:`~streamasr.search.CtcPrefixSearch`).
    """

    def __init__(self, model, lm, decode_params, config, ctc_only=False):
        self.model = model
        self.config = config
        self.params = replace(decode_params, eps_dec=config.eps_dec)
        n_cols = model.ctc_b.shape[0]
        if ctc_only:
            self.search = CtcPrefixSearch(lm, self.params, n_cols, model.decoder.reserved_ids)
        else:
            self.search = JointSearch(model.decoder, lm, self.params, n_cols)
        self.closed = False
        self.encoder = IncrementalEncoder(model.encoder, config.eps_enc)
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
        self._pump(frames, final=False)
        return self._partial()

    def finalize(self):
        """Flush everything and return the final DecodeResult; closes the session."""
        if self.closed:
            raise RuntimeError("session closed")
        self.closed = True
        if self.encoder.frames == 0:
            return DecodeResult((), 0.0, [])
        self._pump(None, final=True)
        return self.search.finalize(self._enc)

    def _partial(self):
        if self.search.frame == 0:
            return None
        cur = self.search.best_ctc_partial
        if cur != self._last_partial:
            self._last_partial = cur
            return cur
        return None

    def _pump(self, frames, final):
        rows = self.encoder.push(frames, final)
        self._enc = np.concatenate([self._enc, rows])
        self._post.extend(log_posterior_row(row, self.model.ctc_w, self.model.ctc_b) for row in rows)
        n = self._enc.shape[0]
        dec_target = n if final else max(0, n - self.config.eps_dec)
        while self.search.frame < dec_target:
            self.search.advance(self._post.popleft(), self._enc)
