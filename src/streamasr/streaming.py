"""Incremental recognition sessions over the same encoder as the offline path.

A session pushes each feature chunk into an
:class:`~streamasr.encoder.IncrementalEncoder`, the engine offline
:func:`~streamasr.encoder.encode` runs in one push, turns each encoder row
it completes into a CTC posterior row, adds the row to the search (whose
cross-attention cache is the one store of encoder rows; the session keeps
only their count), and advances the search on frame n once the rows that
frame reads exist: n + eps_dec for the joint search, whose decoder reads
eps_dec rows ahead, and n for the CTC-only search, which reads only its
own posterior row (the search's ``lookahead``); ``finalize`` flushes the
rest.  For any chunking of the input the encoder rows, posterior rows,
trace lines, and the final hypothesis are bit-identical to a single
offline run.

A joint session's worst-case latency is ``(3 + 4*E*eps_enc +
4*eps_dec) * frame_shift_ms``; a CTC-only session's is ``(3 +
4*E*eps_enc) * frame_shift_ms``, since eps_dec delays nothing there
(``theoretical_latency_ms(replace(cfg, eps_dec=0), E)``).
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .attention import multi_head_attention  # noqa: F401 (uncalled; the tracer wraps it here)
from .ctc import check_eps_dec, log_posterior_row
from .encoder import FeatureMatrix, IncrementalEncoder, check_eps_enc
from .kernels import check_count, check_model_dtype, is_real
from .search import CtcPrefixSearch, DecodeResult, JointSearch


@dataclass
class StreamConfig:
    """Look-ahead budget of a streaming recognizer.

    eps_enc is the per-encoder-layer future visibility in encoder frames
    (math.inf disables streaming emission entirely); eps_dec is how many
    encoder frames beyond the current one the attention decoder may read.
    A CTC-only session has no decoder, so eps_dec does not delay it.
    """

    eps_enc: float = math.inf
    eps_dec: int = 18
    frame_shift_ms: float = 10.0

    def __post_init__(self):
        check_eps_enc(self.eps_enc)
        check_eps_dec(self.eps_dec)
        shift = self.frame_shift_ms
        if not is_real(shift) or not 0 < shift < math.inf:
            raise ValueError(f"frame_shift_ms must be a positive finite number, got {shift!r}")


def theoretical_latency_ms(cfg, e_layers):
    """Worst-case algorithmic delay between a frame arriving and affecting output.

    Three input frames for the stride-2 convolution stack, plus four input
    frames (one encoder frame) per layer of encoder look-ahead, plus four
    per frame of decoder look-ahead.  At a 10 ms shift this is
    30 + e_layers*eps_enc*40 + eps_dec*40 milliseconds; infinite encoder
    look-ahead means no output before the utterance ends.  A CTC-only
    session waits for no decoder look-ahead: its latency is this with
    eps_dec 0, ``theoretical_latency_ms(replace(cfg, eps_dec=0), e_layers)``.
    """
    check_count(e_layers, "encoder layer count")
    if cfg.eps_enc == math.inf:
        return math.inf
    s = cfg.frame_shift_ms
    return 3 * s + e_layers * cfg.eps_enc * 4 * s + cfg.eps_dec * 4 * s


def emission_frame(n, e_layers, eps_enc):
    """Input frame count (1-based) at which encoder row n becomes available.

    Kept as the closed form against which the tests pin a session's
    realized emission; no decode calls it.
    """
    check_count(n, "encoder row")
    check_count(e_layers, "encoder layer count")
    if eps_enc == math.inf:
        return math.inf
    return 4 * (n + e_layers * eps_enc)


class StreamingSession:
    """One in-flight utterance: push feature chunks, read partials, finalize.

    ``model`` provides .encoder, .decoder, .ctc_w, .ctc_b; a tensor the
    session reads that is not float32 raises ``ValueError`` naming it
    before anything is built.  The encoder checks each chunk's features
    before any state changes.  The
    decoder look-ahead in ``decode_params`` is overridden by the stream
    config so the two cannot disagree.  ``ctc_only`` runs the search
    without the decoder (:class:`~streamasr.search.CtcPrefixSearch`),
    which decodes every posterior row as soon as it exists: eps_dec
    then adds no latency, see :func:`theoretical_latency_ms`.
    """

    def __init__(self, model, lm, decode_params, config, ctc_only=False):
        check_model_dtype(model)
        self.model = model
        self.config = config
        # a shallow copy with config's checked eps_dec: replace() would redo every check
        self.params = object.__new__(type(decode_params))
        self.params.__dict__.update(vars(decode_params), eps_dec=int(config.eps_dec))
        n_cols = model.ctc_b.shape[0]
        if ctc_only:
            self.search = CtcPrefixSearch(lm, self.params, n_cols, model.decoder.reserved_ids)
        else:
            self.search = JointSearch(model.decoder, lm, self.params, n_cols)
        self.closed = False
        self._flushed = False     # the encoder's final flush has run
        self.encoder = IncrementalEncoder(model.encoder, config.eps_enc)
        self._post = deque()      # posterior rows the search has not consumed yet
        self._last_partial = None  # the search's best CTC partial at the last push

    @property
    def emitted_frames(self):
        """Encoder rows produced so far: those the search has consumed and
        those queued for it."""
        return self.search.frame + len(self._post)

    @property
    def decoded_frames(self):
        """Encoder frames the search has consumed so far.  Kept for the
        tests of the emission schedule, which read it; no decode calls it."""
        return self.search.frame

    def push(self, chunk):
        """Feed a chunk of feature frames; returns the new best partial
        hypothesis (label-id tuple) if it changed, else None."""
        if self.closed:
            raise RuntimeError("session closed")
        if self._flushed:
            raise RuntimeError("session finalizing: only finalize may follow")
        frames = chunk.frames if isinstance(chunk, FeatureMatrix) else chunk
        if np.shape(frames)[:1] == (0,):
            raise ValueError("chunk must hold at least one frame")
        self._pump(frames, final=False)
        return self._partial()

    def finalize(self):
        """Flush everything and return the final DecodeResult; closes the
        session once it returns.  If a hook raises, the encoder's final
        flush is kept and ``finalize`` can be called again."""
        if self.closed:
            raise RuntimeError("session closed")
        if self.encoder.frames == 0:
            self.closed = True
            return DecodeResult((), 0.0, [])
        self._pump(None, final=True)
        result = self.search.finalize()
        self.closed = True
        return result

    def _partial(self):
        if self.search.frame == 0:
            return None
        # the same tuple while the best node is unchanged: one identity test
        cur = self.search.best_ctc_partial
        if cur is self._last_partial:
            return None
        changed = cur != self._last_partial
        self._last_partial = cur
        return cur if changed else None

    def _pump(self, frames, final):
        if not self._flushed:
            rows = self.encoder.push(frames, final)
            self.search.add_rows(rows)
            self._post.extend(log_posterior_row(row, self.model.ctc_w, self.model.ctc_b)
                              for row in rows)
            self._flushed = final
        dec_target = max(0, self.emitted_frames - (0 if final else self.search.lookahead))
        while self.search.frame < dec_target:
            # consumed once advance returns: a failed frame is retried later
            self.search.advance(self._post[0])
            self._post.popleft()
