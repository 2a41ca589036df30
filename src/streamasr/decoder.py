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

Triggered attention steps one position again at each later truncation
the search scores it at, but layer 0 reads the encoder only in its
cross-attention.  Everything before that, the embedding, the positional
encoding, norm1, the Q/K/V projection, self-attention, norm2 and the
cross-attention query, is the position's :class:`Stem`: a step returns
each row's stem, and a later step of the same history, token and
position that is handed it skips that half of layer 0 with the same
bits.  A step writes each row's residual and query heads, kept in its
stem or computed in the step, into the step's own (B, d_model) and
(heads, B, d_k) arrays, which the rest of layer 0 reads as one batch.

Attention keys and values are projected once per row and kept.  A
:class:`CrossAttentionCache`, fed encoder rows as they arrive, appends
their cross-attention keys and values in place for a whole utterance,
and refuses rows that are not finite.  Position rows come from
:func:`streamasr.encoder.position_rows`, as the encoder's do.  A
prefix's history is one array, (layers, 2, heads, positions, d), with
every layer's self-attention keys (``[:, 0]``) and values (``[:, 1]``)
of its positions; it is the decoder's own format, which callers keep and
hand back without looking inside.  Histories branch, sibling prefixes
extending one parent, so a step never writes the history it is given: it
copies it once into a new array with room for the new position, writes
each layer's new key and value rows there, and its self-attention reads
that array, which the step returns for its caller to keep.  A step
computes in float32, the one model dtype: the cache checks the decoder's
tensors once, when it is built, and casts the encoder rows it is fed.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import attention, kernels
from .attention import KeyValueStore, MhaParams, full_mask, merge_heads, project_heads
from .ctc import check_labels
# multi_head_attention is no longer called here, but stays bound: the
# benchmark's tracer (perfbench/tracer.py) wraps it by this module's name.
from .attention import multi_head_attention  # noqa: F401
from .encoder import feed_forward, position_rows


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


class CrossAttentionCache:
    """Cross-attention keys and values of one utterance's encoder rows.

    The cache is append-only and the one store of the encoder rows a
    decoder reads: :meth:`extend` projects each new row once per decoder
    layer, when the row arrives, and appends it in place to that layer's
    :class:`KeyValueStore`; it keeps no raw encoder matrix.  Every prefix
    scored against the utterance shares the result, read as the stores'
    ``[:, :nu]`` views, without a copy.
    A streaming search hands it rows as the encoder emits them; emitted
    rows never change, which is what keeps a projection valid for the
    rest of the utterance.  ``rows`` counts the rows added.  A tensor of
    ``params`` that is not float32 raises ``ValueError`` naming it before
    anything is built.
    """

    def __init__(self, params, enc=None):
        kernels.check_model_dtype(params)
        self.params = params
        self.rows = 0
        self.kv = [KeyValueStore(layer.src_mha) for layer in params.layers]
        if enc is not None:
            self.extend(enc)

    def extend(self, rows):
        """Project and append the next encoder rows, (n, d_model), cast to
        float32; they must be finite, else ``ValueError`` and nothing is added."""
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.params.d_model:
            raise ValueError(f"encoder rows of shape {rows.shape}, "
                             f"expected (n, {self.params.d_model})")
        if rows.dtype != kernels.MODEL_DTYPE:
            with np.errstate(over="ignore"):  # a value past float32's range is refused below
                rows = rows.astype(np.float32)
        if not np.isfinite(rows).all():
            raise ValueError("encoder states contain non-finite values")
        if rows.shape[0]:
            # project_heads is looked up on its module, where a test
            # counts the rows each weight projects
            for store, layer in zip(self.kv, self.params.layers):
                store.append(attention.project_heads(rows, layer.src_mha.w_k),
                             attention.project_heads(rows, layer.src_mha.w_v))
            self.rows += rows.shape[0]


class Stem(NamedTuple):
    """The first half of decoder layer 0 for one new position: everything
    before it reads the encoder, which no truncation changes.  The
    decoder's own format, kept and handed back by callers."""

    kv: np.ndarray  # (2, heads, d_k): the position's layer-0 self-attention key and value
    z: np.ndarray  # (d_model,): the residual after layer 0's self-attention
    q: np.ndarray  # (heads, d_k): layer 0's cross-attention query heads


def advance_positions(params, cache, hists, token_ids, pos_indices, nu, stems=None):
    """Decoder states and next-label posteriors for B new positions at once.

    Row i extends the positions cached in ``hists[i]`` (a history array,
    see :func:`empty_history`) with a position that embeds
    ``token_ids[i]`` at index ``pos_indices[i]``; it self-attends over
    its own history plus itself, and every row cross-attends to encoder
    rows 1..nu only.  ``cache`` is a :class:`CrossAttentionCache` shared
    between calls, or the (N, d_model) encoder matrix, which is projected
    afresh.  A token id outside the vocabulary, or a position that is not
    an integer >= 0 or not the number of positions in its history, raises
    ``ValueError`` before any work.

    ``stems`` (None, or one :class:`Stem` or None per row) carries what
    an earlier step of the same history, token and position computed
    before layer 0's cross-attention; a row with a stem skips the
    embedding, the positional encoding, norm1, the Q/K/V projection,
    self-attention, norm2 and the cross-attention query projection of
    layer 0, and gets the same bits.  The norms, projections, feed-forward and vocabulary
    projection run once over the rows that need them; they are
    row-invariant, and attention is computed per query row, so row i
    equals a call with that row alone bit for bit.

    Returns one (history, log_posterior, stem) per row: a new history
    array, ``hists[i]`` with the position appended (the input is left
    untouched), the float64 log posterior over the vocabulary, and the
    row's stem (None for a decoder without layers), to hand back when
    the same position is stepped at another truncation.  A row whose
    logits hold NaN or +inf, from a weight that is not finite, raises
    ``ValueError``; a -inf logit is a label of probability zero.
    :func:`append_history` copies each history once, before the first
    layer; each layer writes its new key and value rows into the copies,
    and its self-attention reads them there.
    """
    if not isinstance(cache, CrossAttentionCache):
        cache = CrossAttentionCache(params, cache)
    if cache.params is not params:
        raise ValueError("cross-attention cache belongs to another decoder")
    if not kernels.is_int(nu):
        raise ValueError(f"trigger index must be an integer, got {nu!r}")
    if not 1 <= nu <= cache.rows:
        raise ValueError("trigger index out of range")
    if not len(hists) == len(token_ids) == len(pos_indices):
        raise ValueError(f"{len(hists)} histories, {len(token_ids)} tokens "
                         f"and {len(pos_indices)} positions")
    check_labels(token_ids, 0, params.vocab_size, "the vocabulary")
    for pos, hist in zip(pos_indices, hists):
        if not (kernels.is_int(pos) and pos >= 0):
            raise ValueError(f"position {pos!r} is not an integer >= 0")
        if pos != hist.shape[3]:
            raise ValueError(f"position {pos} is not the length of its history, {hist.shape[3]}")
    b = len(hists)
    stems = [None] * b if stems is None else list(stems)
    if len(stems) != b:
        raise ValueError(f"{b} histories but {len(stems)} stems")
    if b == 0:
        return []
    grown = append_history(hists)
    if not params.layers:
        cur = _embed(params, token_ids, pos_indices)
    else:
        stems, z, q = _stems(params, grown, token_ids, pos_indices, stems)
        cur = _cross_and_feed_forward(params.layers[0], 0, z, q, cache, nu)
    for d, layer in enumerate(params.layers[1:], 1):
        z = _self_attention(layer, d, cur, grown)[0]
        q = project_heads(kernels.layer_norm(z, layer.norm2_g, layer.norm2_b), layer.src_mha.w_q)
        cur = _cross_and_feed_forward(layer, d, z, q, cache, nu)
    final = kernels.layer_norm(cur, params.final_norm_g, params.final_norm_b)
    logits = kernels.matmul(final, params.out_w) + params.out_b
    try:
        logp = kernels.log_softmax_f64(logits)
    except ValueError:
        # the step has changed nothing the caller holds
        raise ValueError("decoder logits hold NaN or +inf: a decoder weight is not finite") from None
    return list(zip(grown, logp, stems))


def _embed(params, token_ids, pos_indices):
    """The embedding of each token plus its position vector, as a
    (B, d_model) array."""
    x = np.empty((len(token_ids), params.d_model), dtype=np.float32)
    for j, (tok, pos) in enumerate(zip(token_ids, pos_indices)):
        np.add(params.embed[tok:tok + 1], position_rows(pos, pos + 1, params.d_model),
               out=x[j:j + 1])
    return x


def _stems(params, grown, token_ids, pos_indices, stems):
    """Every row's stem, computing the missing ones as one batch, with
    each row's layer-0 key and value written into its history in
    ``grown`` -> (stems, z, q): the rows' residuals (B, d_model) and
    cross-attention query heads (heads, B, d_k), each stem's written
    into its row of these two arrays."""
    layer = params.layers[0]
    fresh = []
    for i, (hist, stem) in enumerate(zip(grown, stems)):
        if stem is None:
            fresh.append(i)
        else:
            hist[0, :, :, -1] = stem.kv
    if fresh:
        z, qkv = _self_attention(layer, 0, _embed(params, [token_ids[i] for i in fresh],
                                                  [pos_indices[i] for i in fresh]),
                                 [grown[i] for i in fresh])
        q = project_heads(kernels.layer_norm(z, layer.norm2_g, layer.norm2_b), layer.src_mha.w_q)
        for j, i in enumerate(fresh):
            # copies: a kept stem holds its own row, not the whole batch
            stems[i] = Stem(qkv[1:, :, j].copy(), z[j].copy(), q[:, j].copy())
        if len(fresh) == len(stems):
            return stems, z, q
    b, first = len(stems), stems[0]
    z = np.empty((b,) + first.z.shape, dtype=first.z.dtype)
    q = np.empty((first.q.shape[0], b, first.q.shape[1]), dtype=first.q.dtype)
    for i, stem in enumerate(stems):
        z[i] = stem.z
        q[:, i] = stem.q
    return stems, z, q


def _self_attention(layer, d, cur, grown):
    """Layer d's self-attention sublayer over rows ``cur``, each writing
    its key and value into its history in ``grown`` and attending over
    it -> (the residual z, the rows' query, key and value heads, each
    (heads, B, d) in one (3, heads, B, d) array)."""
    normed = kernels.layer_norm(cur, layer.norm1_g, layer.norm1_b)
    qkv = project_heads(normed, layer.self_mha.qkv())
    qkv = qkv.reshape(3, -1, cur.shape[0], qkv.shape[-1])
    for i, hist in enumerate(grown):
        hist[d, :, :, -1] = qkv[1:, :, i]
    return cur + merge_heads(_attend_own_histories(qkv[0], grown, d), layer.self_mha), qkv


def _attend_own_histories(q, hists, d):
    """Head-major attention outputs (heads, B, d_v): query row i of q over
    layer d's keys and values in ``hists[i]``, its history with its new
    position already written, all of which it sees.  Each row is one
    attention call, written into its column of the result."""
    out = np.empty(q.shape[:2] + hists[0].shape[4:], dtype=q.dtype)
    for i, h in enumerate(hists):
        out[:, i:i + 1] = attention.scaled_dot_attention(q[:, i:i + 1], h[d, 0], h[d, 1],
                                                         full_mask(1, h.shape[3]))
    return out


def _cross_and_feed_forward(layer, d, z, q, cache, nu):
    """The rest of layer d: cross-attention of query heads q to encoder
    rows 1..nu, added to z, then the feed-forward sublayer."""
    keys, values = cache.kv[d].view(nu)
    z = z + merge_heads(attention.scaled_dot_attention(q, keys, values, full_mask(z.shape[0], nu)),
                        layer.src_mha)
    normed = kernels.layer_norm(z, layer.norm3_g, layer.norm3_b)
    return z + feed_forward(normed, layer.ff1_w, layer.ff1_b, layer.ff2_w, layer.ff2_b)


def advance_position(params, enc, hist, token_id, pos_index, nu):
    """One row of :func:`advance_positions`: the position after ``hist``.

    Returns (history, log_posterior) as a row of that function does.
    """
    return advance_positions(params, enc, [hist], [token_id], [pos_index], nu)[0][:2]


def empty_history(params):
    """The history of a decode with no positions computed yet: a
    (layers, 2, heads, 0, d) array.  Every layer's self-attention must
    have the same heads and key width, which the one array stacks, else
    ``ValueError``."""
    dims = {layer.self_mha.w_k.shape[::2] for layer in params.layers}
    if len(dims) > 1:
        raise ValueError(f"decoder layers differ in self-attention (heads, d_k): {sorted(dims)}")
    heads, d_k = dims.pop() if dims else (0, 0)
    return np.zeros((len(params.layers), 2, heads, 0, d_k), dtype=np.float32)


def append_history(hists):
    """Each of ``hists`` copied into a new array with room for one more
    position, whose rows are left for the caller to write.  The inputs
    are left untouched."""
    grown = []
    for hist in hists:
        layers, _, heads, n, d_k = hist.shape
        new = np.empty((layers, 2, heads, n + 1, d_k), dtype=np.float32)
        new[:, :, :, :n] = hist
        grown.append(new)
    return grown


def ta_prefix_score(enc, labels, nu_per_label, params):
    """Sum of per-label log posteriors under a per-label truncation schedule.

    enc is the encoder matrix; labels are vocabulary ids, no start token
    (an id outside the vocabulary raises ``ValueError``); nu_per_label[l]
    is the encoder-row count visible when label l is scored, an integer
    (not a bool) or ``ValueError``.  Values beyond the encoder length are
    clamped to it.  Empty input scores 0.0.
    """
    labels = list(labels)
    check_labels(labels, 0, params.vocab_size, "the vocabulary")
    nus = list(nu_per_label)
    if len(labels) != len(nus):
        raise ValueError(f"{len(labels)} labels but {len(nus)} truncation points")
    for v in nus:
        if not kernels.is_int(v):
            raise ValueError(f"truncation point {v!r} is not an integer")
    cache = CrossAttentionCache(params, enc)
    n = cache.rows
    nus = [min(v, n) for v in nus]
    if any(b < a for a, b in zip(nus, nus[1:])):
        raise ValueError("truncation points must be non-decreasing")
    tokens = [params.sos_id] + labels[:-1]
    hist = empty_history(params)
    total = 0.0
    for i, (tok, label, nu) in enumerate(zip(tokens, labels, nus)):
        hist, logp = advance_position(params, cache, hist, tok, i, nu)
        total += float(logp[label])
    return total
