"""Slow reference implementations the tests compare against.

Everything up to the dashed line is written with scalar loops and
explicit enumeration, independently of the package, so a shared bug
cannot hide.  The helpers below the line deliberately reuse package
decoder ops: they exist to cross-check search bookkeeping and
truncation handling, not the network arithmetic (which the scalar
references already cover).
"""

import itertools
import math

import numpy as np

NEG_INF = float("-inf")


def softmax_oracle(row):
    vals = [float(v) for v in row]
    m = max(vals)
    if m == NEG_INF:
        raise ValueError("no finite entry")
    exps = [0.0 if v == NEG_INF else math.exp(v - m) for v in vals]
    s = sum(exps)
    return [e / s for e in exps]


def log_add_oracle(a, b):
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    m = max(a, b)
    return m + math.log(math.exp(a - m) + math.exp(b - m))


def lookahead_mask(n_q, n_k, lookahead):
    """Query i may attend to keys j <= i + lookahead; the past is unbounded.

    ``lookahead`` may be math.inf for an unrestricted mask; so is every
    mask whose first row already sees the last key.
    """
    if not isinstance(lookahead, (int, float)):
        raise ValueError(f"lookahead must be a number, got {type(lookahead).__name__}")
    if lookahead < 0:
        raise ValueError(f"lookahead must be >= 0, got {lookahead}")
    if lookahead >= n_k - 1:
        return np.ones((n_q, n_k), dtype=bool)
    cols = np.arange(n_k)
    rows = np.arange(n_q)
    return cols[None, :] <= rows[:, None] + int(lookahead)


def causal_mask(n):
    return lookahead_mask(n, n, 0)


def truncation_mask(limits, n_k):
    """Row i attends to key rows 0..limits[i]-1 (a per-row prefix of keys)."""
    limits = np.asarray(limits, dtype=int)
    cols = np.arange(n_k)
    return cols[None, :] < limits[:, None]


def layer_norm_oracle(mat, gain, bias, eps=1e-12):
    mat = np.asarray(mat, dtype=np.float64)
    out = []
    for row in mat:
        n = len(row)
        mu = sum(float(v) for v in row) / n
        var = sum((float(v) - mu) ** 2 for v in row) / n
        out.append([float(g) * (float(v) - mu) / math.sqrt(var + eps) + float(b)
                    for v, g, b in zip(row, gain, bias)])
    return np.asarray(out)


def conv2d_oracle(x, kern, stride, pad):
    x = np.asarray(x, dtype=np.float64)
    kern = np.asarray(kern, dtype=np.float64)
    in_ch, t, f = x.shape
    out_ch, _, kh, kw = kern.shape
    xp = np.zeros((in_ch, t + 2 * pad, f + 2 * pad))
    xp[:, pad:pad + t, pad:pad + f] = x
    t_out = (t + 2 * pad - kh) // stride + 1
    f_out = (f + 2 * pad - kw) // stride + 1
    out = np.zeros((out_ch, t_out, f_out))
    for o in range(out_ch):
        for i in range(t_out):
            for j in range(f_out):
                acc = 0.0
                for c in range(in_ch):
                    for a in range(kh):
                        for b in range(kw):
                            acc += xp[c, i * stride + a, j * stride + b] * kern[o, c, a, b]
                out[o, i, j] = acc
    return out


def attention_oracle(q, k, v, mask):
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    scale = 1.0 / math.sqrt(q.shape[1])
    out = np.zeros((q.shape[0], v.shape[1]))
    for i in range(q.shape[0]):
        idx = [j for j in range(k.shape[0]) if mask[i][j]]
        logits = []
        for j in idx:
            acc = 0.0
            for d in range(q.shape[1]):
                acc += float(q[i, d]) * float(k[j, d])
            logits.append(acc * scale)
        weights = softmax_oracle(logits)
        for w, j in zip(weights, idx):
            for d in range(v.shape[1]):
                out[i, d] += w * float(v[j, d])
    return out


def mha_oracle(q_in, k_in, v_in, params, mask):
    """Per-head projections and attention in float64 batch math."""
    q_in = np.asarray(q_in, dtype=np.float64)
    k_in = np.asarray(k_in, dtype=np.float64)
    v_in = np.asarray(v_in, dtype=np.float64)
    heads = []
    for h in range(params.w_q.shape[0]):
        qh = q_in @ np.asarray(params.w_q[h], dtype=np.float64)
        kh = k_in @ np.asarray(params.w_k[h], dtype=np.float64)
        vh = v_in @ np.asarray(params.w_v[h], dtype=np.float64)
        heads.append(attention_oracle(qh, kh, vh, mask))
    return np.concatenate(heads, axis=1) @ np.asarray(params.w_h, dtype=np.float64)


def positional_encoding_oracle(pos, d_model):
    out = []
    for i in range(d_model):
        angle = pos / 10000.0 ** (2 * (i // 2) / d_model)
        out.append(math.sin(angle) if i % 2 == 0 else math.cos(angle))
    return out


def latency_oracle(eps_enc, eps_dec, e_layers, shift_ms):
    if eps_enc == math.inf:
        return math.inf
    return (3 + 4 * e_layers * eps_enc + 4 * eps_dec) * shift_ms


# ---- alignment-lattice references (column 0 is the blank)


def collapse_path(path):
    out = []
    prev = 0
    for c in path:
        if c != 0 and c != prev:
            out.append(c)
        prev = c
    return tuple(out)


def ctc_path_masses(rows, allowed=None):
    """Enumerate every frame-level path and group its linear-domain mass by
    (collapsed prefix, ends-in-blank).  rows are log-probability lists."""
    probs = [[math.exp(float(v)) for v in r] for r in rows]
    cols = list(range(len(probs[0]))) if allowed is None else list(allowed)
    masses = {}
    for path in itertools.product(cols, repeat=len(probs)):
        p = 1.0
        for t, c in enumerate(path):
            p *= probs[t][c]
        pre = collapse_path(path)
        b, nb = masses.get(pre, (0.0, 0.0))
        if path[-1] == 0:
            b += p
        else:
            nb += p
        masses[pre] = (b, nb)
    return masses


def ctc_forward_oracle(rows, labels):
    """Log of the summed mass of all paths collapsing exactly to labels."""
    masses = ctc_path_masses(rows)
    b, nb = masses.get(tuple(labels), (0.0, 0.0))
    total = b + nb
    return math.log(total) if total > 0.0 else NEG_INF


def viterbi_oracle(rows, labels):
    """Max log-prob over valid expanded-state paths, plus every argmax path.

    States interleave blanks with the labels: [0, y1, 0, y2, ..., 0].
    Returns (best_logp, [state tuples], [first-occurrence tuples]).
    """
    z = [0]
    for l in labels:
        z.extend([int(l), 0])
    n = len(rows)
    n_states = len(z)
    results = []

    def step(t, s, acc, states):
        acc += float(rows[t][z[s]])
        states = states + (s,)
        if t == n - 1:
            if s >= n_states - 2:
                results.append((acc, states))
            return
        nxt = [s]
        if s + 1 < n_states:
            nxt.append(s + 1)
        if s + 2 < n_states and z[s + 2] != 0 and z[s + 2] != z[s]:
            nxt.append(s + 2)
        for s2 in nxt:
            step(t + 1, s2, acc, states)

    for s0 in range(min(2, n_states)):
        step(0, s0, 0.0, ())
    if not results:
        return NEG_INF, [], []
    best = max(r[0] for r in results)
    arg = [st for lp, st in results if lp == best]
    firsts = []
    for st in arg:
        occ = {}
        for t, s in enumerate(st, start=1):
            if s % 2 == 1 and s not in occ:
                occ[s] = t
        firsts.append(tuple(occ[2 * j + 1] for j in range(len(labels))))
    return best, arg, firsts


def exhaustive_joint_argmax(rows, banned_cols, lm, params, ta_fn):
    """Best label sequence under the fused objective with nothing pruned.

    Scores every prefix reachable from the path lattice: label-path mass
    by enumeration, the attention-decoder score delegated to
    ta_fn(labels, nus), then the shallow-fusion LM and length terms added
    outside the mix.  nus is the per-label encoder-row visibility implied
    by the earliest frame each prefix can first appear (its length plus
    one frame for every adjacent repeated column, plus the decoder
    look-ahead, capped at the frame count).  Ranking breaks score ties
    toward shorter, then lexicographically smaller prefixes.  Returns
    (best_prefix_cols, {prefix: fused_score}).
    """
    n = len(rows)
    allowed = [c for c in range(len(rows[0])) if c not in banned_cols]
    masses = ctc_path_masses(rows, allowed)
    scores = {}
    for pre, (b, nb) in masses.items():
        total = b + nb
        if total <= 0.0:
            continue
        labels = tuple(c - 1 for c in pre)
        state = lm.start_state()
        lm_logp = 0.0
        for lab in labels:
            state, inc = lm.extend(state, lab)
            lm_logp += inc
        nus = []
        for j in range(1, len(pre) + 1):
            repeats = sum(1 for a, bb in zip(pre[:j], pre[1:j]) if a == bb)
            nus.append(min(j + repeats + params.eps_dec, n))
        mass = math.log(total)
        if params.lam == 1.0:
            s = mass
        elif params.lam == 0.0:
            s = (1.0 - params.lam) * ta_fn(labels, tuple(nus))
        else:
            s = params.lam * mass + (1.0 - params.lam) * ta_fn(labels, tuple(nus))
        if params.alpha:  # a zero LM weight means no LM term
            s += params.alpha * lm_logp
        scores[pre] = s + params.beta * len(pre)
    best = min(scores, key=lambda p: (-scores[p], len(p), p))
    return best, scores


# ---------------------------------------------------------------------
# References below reuse package decoder primitives on purpose: they
# validate caching/truncation bookkeeping against a straight-line
# recomputation, not the arithmetic itself.


def full_context_decoder_logps(dec, enc, labels):
    """Next-token log-posteriors for every position of a full-context run,
    computed as one batched pass (whole prefix matrix at once, causal
    self-attention, cross-attention over all encoder rows)."""
    from streamasr.attention import full_mask, multi_head_attention
    from streamasr.encoder import feed_forward, positional_encodings
    from streamasr import kernels

    enc_m = np.asarray(enc)
    tokens = [dec.sos_id] + list(labels)
    x = dec.embed[tokens] + positional_encodings(np.arange(len(tokens)), dec.d_model)
    causal = causal_mask(len(tokens))
    cross = full_mask(len(tokens), enc_m.shape[0])
    for layer in dec.layers:
        normed = kernels.layer_norm(x, layer.norm1_g, layer.norm1_b)
        x = x + multi_head_attention(normed, normed, normed, layer.self_mha, causal)
        normed = kernels.layer_norm(x, layer.norm2_g, layer.norm2_b)
        x = x + multi_head_attention(normed, enc_m, enc_m, layer.src_mha, cross)
        normed = kernels.layer_norm(x, layer.norm3_g, layer.norm3_b)
        x = x + feed_forward(normed, layer.ff1_w, layer.ff1_b, layer.ff2_w, layer.ff2_b)
    x = kernels.layer_norm(x, dec.final_norm_g, dec.final_norm_b)
    logits = kernels.matmul(x, dec.out_w) + dec.out_b
    return [kernels.log_softmax_f64(row) for row in logits]


def stepwise_ta_with_eos(dec, enc, labels, nus, n_total):
    """Prefix score under a per-label truncation schedule plus the
    end-of-sequence continuation at full visibility, rebuilt from the
    single-position decoder op."""
    from streamasr.decoder import advance_position, empty_history

    hist = empty_history(dec)
    token = dec.sos_id
    total = 0.0
    for j, lab in enumerate(labels):
        hist, logp = advance_position(dec, enc, hist, token, j, nus[j])
        total += float(logp[lab])
        token = lab
    _, logp = advance_position(dec, enc, hist, token, len(labels), n_total)
    return total + float(logp[dec.eos_id])


def _tuple_prefix_step(row, hyps, local_threshold):
    """One CTC prefix-search frame over tuple prefixes: the package's step
    as it was before prefixes were interned, kept as the reference."""
    from streamasr.kernels import log_add

    n_cols = len(row)
    log_thresh = math.log(local_threshold) if local_threshold > 0 else NEG_INF
    acc = {}

    def bump(prefix, p_b=NEG_INF, p_nb=NEG_INF):
        cur = acc.get(prefix)
        if cur is None:
            acc[prefix] = [p_b, p_nb]
        else:
            cur[0] = log_add(cur[0], p_b)
            cur[1] = log_add(cur[1], p_nb)

    for prefix, (p_b, p_nb) in hyps.items():
        total = log_add(p_b, p_nb)
        bump(prefix, p_b=row[0] + total)
        last = prefix[-1] if prefix else None
        for k in range(1, n_cols):
            lp = row[k]
            if lp == NEG_INF or lp < log_thresh:
                continue
            if k == last:
                bump(prefix, p_nb=lp + p_nb)
                bump(prefix + (k,), p_nb=lp + p_b)
            else:
                bump(prefix + (k,), p_nb=lp + total)
    return {p: v for p, v in acc.items() if v[0] != NEG_INF or v[1] != NEG_INF}


def tuple_ctc_search(logp, lm, params, banned_ids=()):
    """Pure-CTC prefix beam search keyed on column tuples, with every score
    and ranking dict rebuilt per frame: the search as it was before
    prefixes were interned.  Returns (labels, score, trace lines) with the
    package's arithmetic and trace format, so a decode must match it bit
    for bit."""
    from streamasr.kernels import log_add

    def phat_of(pre, p_b, p_nb, lm_logp):
        s = log_add(p_b, p_nb)
        if params.alpha0:  # a zero LM weight means no LM term
            s += params.alpha0 * lm_logp
        return s + params.beta * len(pre)

    def ranked(cands, scores):
        return sorted(cands, key=lambda p: (-scores[p], len(p), p))

    def prune(cands, scores, size, width):
        kept = ranked(cands, scores)[:size]
        if kept:
            cut = scores[kept[0]] - width
            kept = [p for p in kept if not scores[p] < cut]
        return kept

    # prefix -> [p_b, p_nb, lm_state, lm_logp]
    hyps = {(): [0.0, NEG_INF, lm.start_state(), 0.0]}
    banned = [i + 1 for i in banned_ids]
    trace = []
    last_carried, last_phat = [()], {(): 0.0}
    for n, row in enumerate(np.asarray(logp, dtype=np.float64), start=1):
        row = row.copy()
        row[banned] = NEG_INF
        row = row.tolist()
        stepped = _tuple_prefix_step(row, {p: h[:2] for p, h in hyps.items()},
                                     params.local_threshold)
        cands = {}
        for pre, (p_b, p_nb) in stepped.items():
            h = hyps.get(pre)
            if h is None:
                parent = hyps[pre[:-1]]
                state, inc = lm.extend(parent[2], pre[-1] - 1)
                cands[pre] = [p_b, p_nb, state, parent[3] + inc]
            else:
                cands[pre] = [p_b, p_nb, h[2], h[3]]
        phat = {pre: phat_of(pre, c[0], c[1], c[3]) for pre, c in cands.items()}
        omega = prune(cands, phat, params.k_size, params.theta1)
        top = ranked(omega, phat)[:params.p_size]
        kept = prune(omega, phat, params.p_size, params.theta2)
        hyps = {pre: cands[pre] for pre in top}
        hyps.update((pre, cands[pre]) for pre in kept)
        last_carried, last_phat = kept, phat
        best = min(kept, key=lambda p: (-phat[p], len(p), p))
        ids = ",".join(str(c - 1) for c in best)
        trace.append(f"frame={n} beams={len(kept)} best={ids} "
                     f"p_prfx={phat[best]!r} p_joint={phat[best]!r}")
    best = min(last_carried, key=lambda p: (-last_phat[p], len(p), p))
    return tuple(c - 1 for c in best), float(last_phat[best]), trace


def row_loop_attention(q, k, v, mask):
    """The one-query-row-at-a-time NumPy attention that the stacked
    ``scaled_dot_attention`` replaced: the bit reference for one head.
    Each row gathers its allowed keys and values with ``k[idx]``, a
    C-contiguous copy, and runs a matrix-vector product over them."""
    scale = 1.0 / math.sqrt(q.shape[1])
    out = np.empty((q.shape[0], v.shape[1]), dtype=np.result_type(q, v))
    for i in range(q.shape[0]):
        idx = np.flatnonzero(mask[i])
        logits = (k[idx] @ q[i]) * scale
        e = np.exp(logits - logits.max())
        out[i] = (e / e.sum()) @ v[idx]
    return out


# ---------------------------------------------------------------------
# Forms the package replaced with cheaper calls that give the same bits.
# Each is the old code, kept as the bit reference of its replacement.


def layer_norm_np_mean(m, gain, bias, eps=1e-12):
    """``kernels.layer_norm`` with both means taken by ``np.mean``."""
    mu = np.mean(m, axis=1, keepdims=True)
    centered = m - mu
    var = np.mean(centered * centered, axis=1, keepdims=True)
    return (centered / np.sqrt(var + eps)) * gain + bias


def conv_time_slab_window_view(window, kernels, stride):
    """``kernels.conv_time_slab`` with its frequency windows taken by
    ``sliding_window_view``."""
    window = np.ascontiguousarray(window)
    k_w = kernels.shape[3]
    sw = np.lib.stride_tricks.sliding_window_view(window, k_w, axis=2)[:, :, ::stride, :]
    return np.einsum("ihfw,oihw->of", sw, kernels, optimize=False)


def conv2d_np_pad(x, kernels, stride, pad):
    """``kernels.conv2d`` padding with ``np.pad`` (also when ``pad`` is 0)
    and sweeping time with :func:`conv_time_slab_window_view`."""
    k_h = kernels.shape[2]
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    t_out = (xp.shape[1] - k_h) // stride + 1
    return np.stack([conv_time_slab_window_view(xp[:, i * stride:i * stride + k_h], kernels,
                                                stride)
                     for i in range(t_out)], axis=1)


def softmax_attend_stacked(q, k, v, scale):
    """``attention._softmax_attend`` in its stacked form for any number of
    query rows, the row axis kept: one (..., 1, n, d) @ (..., B, d, 1)
    and one (..., B, 1, n) @ (..., 1, n, d_v) product."""
    logits = np.matmul(k[..., None, :, :], q[..., None])[..., 0]
    logits *= scale
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(logits, out=logits)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return np.matmul(e[..., None, :], v[..., None, :, :])[..., 0, :]


def stacked_row_products(x, w):
    """``kernels.matmul`` (w a matrix) or ``attention.project_heads`` (w a
    (heads, d_model, d) stack) in the stacked form for any number of
    rows of x: one (1, d_model) @ (d_model, d) product per (head, row)."""
    if w.ndim == 2:
        return np.matmul(x[:, None, :], w)[:, 0]
    return np.matmul(x[None, :, None, :], w[:, None])[:, :, 0]


def project_qkv_separately(x, mha):
    """Queries, keys and values of the rows of x, one ``project_heads``
    call per weight."""
    from streamasr.attention import project_heads

    return tuple(project_heads(x, w) for w in (mha.w_q, mha.w_k, mha.w_v))


def positional_encoding_per_row(pos, d_model):
    """One sinusoidal position vector computed on its own, with sin and cos
    of this position's angles only."""
    even = np.arange(0, d_model, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, even / d_model)
    out = np.empty(d_model, dtype=np.float64)
    out[0::2] = np.sin(angles)
    out[1::2] = np.cos(angles[: d_model // 2])
    return out.astype(np.float32)


def own_histories_block_mask(pasts, rows):
    """Every row's history followed by its new row, stacked along the key
    axis, and the block mask that lets query row i attend to exactly its
    own block: the decoder's self-attention as one masked-path
    ``scaled_dot_attention`` call.  ``pasts[i]`` holds row i's keys and
    values stacked, (2, heads, n_i, d), and ``rows`` the new rows',
    (2, heads, B, d)."""
    keys, values = [], []
    for i, past in enumerate(pasts):
        keys += [past[0], rows[0, :, i:i + 1]]
        values += [past[1], rows[1, :, i:i + 1]]
    ends = np.cumsum([past.shape[2] + 1 for past in pasts])
    starts = np.concatenate([[0], ends[:-1]])
    cols = np.arange(ends[-1])
    mask = (cols >= starts[:, None]) & (cols < ends[:, None])
    return np.concatenate(keys, axis=1), np.concatenate(values, axis=1), mask


def _prefix_masses_with_child(row, hyps, local_threshold, child):
    """The package's CTC recursion as it was while every candidate was a
    node: ``child(prefix, col)`` gives each extension's node, and one
    accumulator dict, keyed by node, gathers every contribution."""
    from streamasr.kernels import log_add

    log_thresh = math.log(local_threshold) if local_threshold > 0 else NEG_INF
    active = [(k, lp) for k, lp in enumerate(row)
              if k != 0 and not (lp == NEG_INF or lp < log_thresh)]
    acc = {}
    lp_blank = row[0]
    for prefix, sc in hyps.items():
        p_b, p_nb = sc.p_b, sc.p_nb
        total = log_add(p_b, p_nb)
        cur = acc.get(prefix)
        if cur is None:
            cur = acc[prefix] = [lp_blank + total, NEG_INF]
        else:
            cur[0] = log_add(cur[0], lp_blank + total)
        for k, lp in active:
            if k == prefix.last:
                cur[1] = log_add(cur[1], lp + p_nb)
                mass = lp + p_b
            else:
                mass = lp + total
            ext = child(prefix, k)
            nxt = acc.get(ext)
            if nxt is None:
                acc[ext] = [NEG_INF, mass]
            else:
                nxt[1] = log_add(nxt[1], mass)
    return {p: v for p, v in acc.items() if v[0] != NEG_INF or v[1] != NEG_INF}


def rank_key(scores):
    """The sort key the search ranked with before its one rank routine:
    best score first, then shorter, then the smaller column tuple."""
    return lambda p: (-scores[p], len(p), p)


def within(ranked, scores, size, width):
    """The first ``size`` of ``ranked`` (best first) that score no lower
    than the best minus ``width``."""
    kept = ranked[:size]
    if kept:
        cut = scores[kept[0]] - width
        kept = [p for p in kept if not scores[p] < cut]
    return kept


def sorted_key_prune(hyps, scores, size, width):
    """``search.prune`` as a sort by :func:`rank_key` and a cut by
    :func:`within`."""
    ranked = sorted(hyps, key=rank_key(scores))
    return {p: hyps[p] for p in within(ranked, scores, size, width)}


def top_hypotheses(hyps, scores, size):
    """The top ``size`` by score with the same tie-breaking, no width."""
    return {p: hyps[p] for p in sorted(hyps, key=rank_key(scores))[:size]}


def all_nodes_ctc_stage(row, hyps, lm, params, size):
    """The search's CTC stage as it was while every candidate was a node:
    each extension is interned (with its LM step) before it is ranked,
    phat is computed for every candidate, and :func:`sorted_key_prune`
    ranks them all.  ``hyps`` is the carried beam, Prefix nodes to
    Hypotheses, and ``row`` a posterior row of floats with banned columns
    at -inf.  Returns the first ``size`` survivors of the prune, in rank
    order, as (column tuple, p_b, p_nb, phat)."""
    from streamasr.search import Prefix, _phat

    children = {(pre.parent, pre.last): pre for pre in hyps if pre.parent is not None}

    def child(parent, col):
        node = children.get((parent, col))
        if node is None:
            state, inc = lm.extend(parent.lm_state, col - 1)
            node = children[parent, col] = Prefix(parent, col, state, parent.lm_logp + inc)
        return node

    masses = _prefix_masses_with_child(row, hyps, params.local_threshold, child)
    phat = {pre: _phat(m[0], m[1], pre.lm_logp, pre.length, params.alpha0, params.beta)
            for pre, m in masses.items()}
    kept = list(sorted_key_prune(masses, phat, params.k_size, params.theta1).items())[:size]
    return [(pre.as_tuple(), m[0], m[1], phat[pre]) for pre, m in kept]


def memo_row(table, state):
    """LM state ``state``'s memo row in ``table``, carried or spare, as
    (its next states, its increments that are not NaN), each a dict keyed
    by column: the parts of a row that mean something."""
    r = table._rows[state] if state in table._rows else table._spare[state]
    inc = table._inc[r]
    taken = np.flatnonzero(~np.isnan(inc))
    return dict(table._next[r]), dict(zip(taken.tolist(), inc[taken].tolist()))


def rebuilt_retain(table, live):
    """``PrefixTable.retain`` as it was while it rebuilt the table every
    frame, as a pure function of the table before the call: walk up from
    each ``live`` prefix to the first node already kept, rebuild the child
    table from the kept set, and keep the memo rows of the live prefixes'
    LM states, spare rows included.  The rows of the states no longer
    carried become the newest spare rows, steps unchanged, in the order
    the carried set held them.  Returns (the kept nodes, the child table,
    LM state to :func:`memo_row` of each carried row, the spare rows as
    (LM state, :func:`memo_row`) oldest first), what the table must hold
    after ``retain(live)``."""
    keep = {table.root}
    states = {}
    for node in live:
        states[node.lm_state] = None
        while node not in keep:
            keep.add(node)
            node = node.parent
    children = {(node.parent, node.last): node for node in keep if node.parent is not None}
    held = {**table._spare, **table._rows}
    rows = {state: memo_row(table, state) for state in states if state in held}
    left = [*table._spare, *dict.fromkeys(node.lm_state for node in table._carried)]
    spare = [(state, memo_row(table, state)) for state in left
             if state in held and state not in states]
    return keep, children, rows, spare
