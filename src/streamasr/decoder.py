"""Triggered-attention transformer decoder.

The decoder scores one label per position.  Position l embeds the
previous label (position 1 embeds the start token), runs causal
self-attention over positions 1..l and attends to a *truncated* prefix of
the encoder sequence: only rows 1..nu_l, where nu_l is the trigger frame
of label l plus the configured decoder look-ahead.  Positions are
computed once, at their own truncation point, and reused verbatim when
the prefix is extended.  :func:`advance_positions` is the one step: it
computes a batch of new positions that share a truncation nu (a search
frame's distinct parents) in one pass, and ``advance_position`` is its
one-row case.

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

    @property
    def reserved_ids(self):
        """Label ids no hypothesis emits as a token: <sos>, and <eos> if any."""
        return (self.sos_id,) if self.eos_id is None else (self.sos_id, self.eos_id)


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


def advance_positions(params, cache, hists, token_ids, pos_indices, nu):
    """Decoder states and next-label posteriors for B new positions at once.

    Row i extends the positions cached in ``hists[i]`` (one
    :class:`KeyValues` per layer) with a position that embeds
    ``token_ids[i]`` at index ``pos_indices[i]``; it self-attends over
    its own history plus itself, and every row cross-attends to encoder
    rows 1..nu only.  ``cache`` is a :class:`CrossAttentionCache` shared
    between calls, or the encoder matrix or its :class:`EncoderStates`,
    which are projected afresh.

    The norms, projections, feed-forward and vocabulary projection run
    once over the B rows; they are row-invariant, and attention is
    computed per query row, so row i equals a call with that row alone
    bit for bit.  Returns one (new_rows, log_posterior) per row: the
    position's per-layer history entries to append to its history, and
    the float64 log posterior over the vocabulary.
    """
    if not isinstance(cache, CrossAttentionCache):
        cache = CrossAttentionCache(params, cache)
    if cache.params is not params:
        raise ValueError("cross-attention cache belongs to another decoder")
    if not 1 <= nu <= cache.enc.shape[0]:
        raise ValueError("trigger index out of range")
    if not len(hists) == len(token_ids) == len(pos_indices):
        raise ValueError(f"{len(hists)} histories, {len(token_ids)} tokens "
                         f"and {len(pos_indices)} positions")
    b = len(hists)
    if b == 0:
        return []
    cur = params.embed[np.asarray(token_ids)] + np.stack(
        [positional_encoding(pos, params.d_model) for pos in pos_indices])
    new_rows = []
    src_mask = full_mask(b, nu)
    for d, layer in enumerate(params.layers):
        normed = kernels.layer_norm(cur, layer.norm1_g, layer.norm1_b)
        rows = KeyValues.project(normed, layer.self_mha)
        new_rows.append(rows)
        keys, values, mask = _own_histories([h[d] for h in hists], rows)
        z = cur + attend(normed, keys, values, layer.self_mha, mask)
        normed_q = kernels.layer_norm(z, layer.norm2_g, layer.norm2_b)
        keys, values = cache.layer(d, nu)
        z = z + attend(normed_q, keys, values, layer.src_mha, src_mask)
        normed_f = kernels.layer_norm(z, layer.norm3_g, layer.norm3_b)
        cur = z + feed_forward(normed_f, layer.ff1_w, layer.ff1_b, layer.ff2_w, layer.ff2_b)
    final = kernels.layer_norm(cur, params.final_norm_g, params.final_norm_b)
    logits = kernels.matmul(final, params.out_w) + params.out_b
    return [([KeyValues(r.keys[i:i + 1], r.values[i:i + 1]) for r in new_rows],
             kernels.log_softmax_f64(logits[i]))
            for i in range(b)]


def _own_histories(pasts, rows):
    """Every row's history followed by its new row, stacked, and the mask
    that lets query row i attend to exactly its own block."""
    keys, values = [], []
    for i, past in enumerate(pasts):
        keys += [past.keys, rows.keys[i:i + 1]]
        values += [past.values, rows.values[i:i + 1]]
    ends = np.cumsum([past.shape[0] + 1 for past in pasts])
    starts = np.concatenate([[0], ends[:-1]])
    cols = np.arange(ends[-1])
    mask = (cols >= starts[:, None]) & (cols < ends[:, None])
    return np.concatenate(keys), np.concatenate(values), mask


def advance_position(params, enc, hist, token_id, pos_index, nu):
    """One row of :func:`advance_positions`: the position after ``hist``.

    Returns (new_rows, log_posterior) as a row of that function does.
    """
    return advance_positions(params, enc, [hist], [token_id], [pos_index], nu)[0]


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
