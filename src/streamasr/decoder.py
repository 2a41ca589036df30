"""Triggered-attention transformer decoder.

The decoder scores one label per position.  Position l embeds the
previous label (position 1 embeds the start token), runs causal
self-attention over positions 1..l and attends to a *truncated* prefix of
the encoder sequence: only rows 1..nu_l, where nu_l is the trigger frame
of label l plus the configured decoder look-ahead.  Positions are
computed once, at their own truncation point, and reused verbatim when
the prefix is extended; ``advance_position`` is that single-step unit and
everything else here is built from it.

Attention keys and values are projected once per row and kept: a
prefix's history holds its positions' self-attention keys and values
(:class:`KeyValues`), and a :class:`CrossAttentionCache` holds the
encoder rows' cross-attention keys and values for a whole utterance.  A
step therefore projects only its own position.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .attention import KeyValues, MhaParams, attend, full_mask
# multi_head_attention is no longer called here, but stays bound: the
# benchmark's tracer (perfbench/tracer.py) wraps it by this module's name.
from .attention import multi_head_attention  # noqa: F401
from .encoder import EncoderStates, feed_forward, positional_encoding


@dataclass
class DecoderLayerParams:
    self_mha: MhaParams
    src_mha: MhaParams
    norm1_g: np.ndarray
    norm1_b: np.ndarray
    norm2_g: np.ndarray
    norm2_b: np.ndarray
    ff1_w: np.ndarray
    ff1_b: np.ndarray
    ff2_w: np.ndarray
    ff2_b: np.ndarray
    norm3_g: np.ndarray
    norm3_b: np.ndarray


@dataclass
class DecoderParams:
    embed: np.ndarray  # (vocab_size, d_model)
    layers: list = field(default_factory=list)
    final_norm_g: np.ndarray = None
    final_norm_b: np.ndarray = None
    out_w: np.ndarray = None  # (d_model, vocab_size)
    out_b: np.ndarray = None  # (vocab_size,)
    sos_id: int = 0
    eos_id: int | None = None

    @property
    def d_model(self):
        return self.embed.shape[1]

    @property
    def vocab_size(self):
        return self.embed.shape[0]


def _enc_matrix(enc):
    return enc.states if isinstance(enc, EncoderStates) else np.asarray(enc)


class CrossAttentionCache:
    """Cross-attention keys and values of one utterance's encoder rows.

    Each encoder row is projected once per decoder layer and head, the
    first time a step reads it, and every prefix scored against the
    utterance shares the result.  The projected prefix grows to the
    largest ``nu`` requested, so one cache also serves a streaming
    session whose encoder is still growing: :meth:`update` hands it the
    longer matrix.  Emitted encoder rows never change, which is what
    keeps a projection valid for the rest of the utterance.
    """

    def __init__(self, params, enc):
        self.params = params
        self.enc = _enc_matrix(enc)
        self.rows = 0
        self.kv = [KeyValues.empty(layer.src_mha) for layer in params.layers]

    def update(self, enc):
        """Point the cache at the utterance's encoder rows so far."""
        enc = _enc_matrix(enc)
        if enc.shape[0] < self.rows:
            raise ValueError(f"{enc.shape[0]} encoder rows, but {self.rows} already projected")
        self.enc = enc

    def layer(self, d, nu):
        """Keys and values of encoder rows 1..nu (at most the rows in
        ``enc``) in decoder layer d."""
        if nu > self.rows:
            new = self.enc[self.rows:nu]
            self.kv = [kv.append(KeyValues.project(new, layer.src_mha))
                       for kv, layer in zip(self.kv, self.params.layers)]
            self.rows = nu
        return self.kv[d].keys[:nu], self.kv[d].values[:nu]


def advance_position(params, enc, hist, token_id, pos_index, nu):
    """Compute decoder states and the next-label posterior for one new position.

    hist holds one :class:`KeyValues` per layer for the already
    computed positions.  The new position embeds ``token_id``,
    self-attends over the cached positions plus itself and cross-attends
    to encoder rows 1..nu only.  ``enc`` is the encoder matrix, its
    :class:`EncoderStates`, or a :class:`CrossAttentionCache` shared
    between calls; a bare matrix is projected afresh.

    Returns (new_rows, log_posterior): the position's per-layer history
    entries to append to hist, and the float64 log posterior over the
    vocabulary.
    """
    cache = enc if isinstance(enc, CrossAttentionCache) else CrossAttentionCache(params, enc)
    if cache.params is not params:
        raise ValueError("cross-attention cache belongs to another decoder")
    if not 1 <= nu <= cache.enc.shape[0]:
        raise ValueError("trigger index out of range")
    cur = params.embed[token_id] + positional_encoding(pos_index, params.d_model)
    new_rows = []
    src_mask = full_mask(1, nu)
    for d, layer in enumerate(params.layers):
        # layer_norm and the projections are per row, so this position's
        # keys and values match what a stacked history would give it.
        normed = kernels.layer_norm(cur[None, :], layer.norm1_g, layer.norm1_b)
        row = KeyValues.project(normed, layer.self_mha)
        new_rows.append(row)
        past = hist[d].append(row)
        att = attend(normed, past.keys, past.values, layer.self_mha, full_mask(1, past.shape[0]))
        z = cur + att[0]
        normed_q = kernels.layer_norm(z[None, :], layer.norm2_g, layer.norm2_b)
        keys, values = cache.layer(d, nu)
        att = attend(normed_q, keys, values, layer.src_mha, src_mask)
        z = z + att[0]
        normed_f = kernels.layer_norm(z[None, :], layer.norm3_g, layer.norm3_b)
        cur = z + feed_forward(normed_f, layer.ff1_w, layer.ff1_b, layer.ff2_w, layer.ff2_b)[0]
    final = kernels.layer_norm(cur[None, :], params.final_norm_g, params.final_norm_b)
    logits = kernels.matmul(final, params.out_w)[0] + params.out_b
    return new_rows, kernels.log_softmax_f64(logits)


def empty_history(params):
    """Fresh per-layer history for a decode with no positions computed yet."""
    return [KeyValues.empty(layer.self_mha) for layer in params.layers]


def append_history(hist, new_rows):
    """New history with one position appended per layer (inputs left untouched)."""
    return [h.append(r) for h, r in zip(hist, new_rows)]


def decoder_log_posterior(enc, nu, context, params):
    """Float64 log posterior of the next label after ``context``.

    context is the label-id sequence already decoded (the start token is
    implicit); every position uses the same encoder truncation nu.
    """
    tokens = [params.sos_id] + list(context)
    cache = CrossAttentionCache(params, enc)
    hist = empty_history(params)
    logp = None
    for i, tok in enumerate(tokens):
        rows, logp = advance_position(params, cache, hist, tok, i, nu)
        hist = append_history(hist, rows)
    return logp


def decoder_posterior(enc, nu, context, params):
    """Probability vector over the vocabulary for the next label."""
    return np.exp(decoder_log_posterior(enc, nu, context, params))


def ta_prefix_score(enc, labels, nu_per_label, params):
    """Sum of per-label log posteriors under a per-label truncation schedule.

    labels are vocabulary ids (no start token); nu_per_label[l] is the
    encoder-row count visible when label l is scored.  Values beyond the
    encoder length are clamped to it.  Empty input scores 0.0.
    """
    cache = CrossAttentionCache(params, enc)
    labels = list(labels)
    nus = list(nu_per_label)
    if len(labels) != len(nus):
        raise ValueError(f"{len(labels)} labels but {len(nus)} truncation points")
    n = cache.enc.shape[0]
    nus = [min(v, n) for v in nus]
    if any(b < a for a, b in zip(nus, nus[1:])):
        raise ValueError("truncation points must be non-decreasing")
    tokens = [params.sos_id] + labels[:-1]
    hist = empty_history(params)
    total = 0.0
    for i, (tok, label, nu) in enumerate(zip(tokens, labels, nus)):
        rows, logp = advance_position(params, cache, hist, tok, i, nu)
        hist = append_history(hist, rows)
        total += float(logp[label])
    return total
