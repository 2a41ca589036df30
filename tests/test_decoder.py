import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamasr import decoder, encoder, kernels
from streamasr.attention import ROW_BLOCK, project_heads, scaled_dot_attention
from streamasr.decoder import (CrossAttentionCache, DecoderState, advance_position,
                               advance_positions, append_history, empty_history, ta_prefix_score)
from streamasr.encoder import positional_encodings
from helpers import decoder_states, next_label_logp, random_enc_states, tiny_model
from oracles import (full_context_decoder_logps, own_histories_block_mask,
                     positional_encoding_per_row)


def setup_case(seed, n=5, **kw):
    m = tiny_model(seed, **kw)
    rng = np.random.default_rng(seed + 1000)
    enc = random_enc_states(rng, n, m.decoder.d_model)
    return m.decoder, enc


def test_posterior_rows_normalize():
    dec, enc = setup_case(50)
    for ctx in [(), (2,), (2, 3), (4, 2, 3)]:
        p = np.exp(next_label_logp(dec, enc, 3, ctx))
        assert p.shape == (dec.vocab_size,)
        assert abs(p.sum() - 1.0) < 1e-6
        assert (p > 0).all()


def test_log_posterior_is_float64_log_of_posterior():
    dec, enc = setup_case(51)
    lp = next_label_logp(dec, enc, 4, (2,))
    assert lp.dtype == np.float64
    assert abs(np.exp(lp).sum() - 1.0) < 1e-12


def test_truncation_hides_later_encoder_rows_bit_exactly():
    dec, enc = setup_case(52, n=6)
    nu = 3
    base = next_label_logp(dec, enc, nu, (2, 4))
    pert = enc.copy()
    pert[nu:] += 7.0
    again = next_label_logp(dec, pert, nu, (2, 4))
    assert np.array_equal(base, again)


def test_visible_encoder_row_changes_posterior():
    dec, enc = setup_case(53, n=6)
    base = next_label_logp(dec, enc, 3, (2,))
    pert = enc.copy()
    pert[2] += 7.0
    assert not np.array_equal(base, next_label_logp(dec, pert, 3, (2,)))


def test_nu_out_of_range():
    dec, enc = setup_case(54, n=4)
    for nu in (0, 5, -1):
        with pytest.raises(ValueError, match="trigger index out of range"):
            next_label_logp(dec, enc, nu, ())


def test_causal_consistency_of_cached_positions():
    # scoring a longer prefix replays earlier positions from the cache;
    # each step's posterior must equal the standalone short-context run
    dec, enc = setup_case(55)
    ctx = (2, 3, 4)
    cache = CrossAttentionCache(dec, enc)
    hist = empty_history(dec)
    tokens = (dec.sos_id,) + ctx
    for i, tok in enumerate(tokens):
        hist, logp = advance_position(dec, cache, hist, tok, i, 5)
        standalone = next_label_logp(dec, enc, 5, ctx[:i])
        assert np.array_equal(logp, standalone)


def test_ta_prefix_score_empty_is_zero():
    dec, enc = setup_case(56)
    assert ta_prefix_score(enc, (), (), dec) == 0.0


def test_ta_prefix_score_single_label_is_log_posterior_entry():
    dec, enc = setup_case(57, n=4)
    lp = next_label_logp(dec, enc, 4, ())
    assert ta_prefix_score(enc, (3,), (4,), dec) == pytest.approx(float(lp[3]), abs=1e-12)


def test_ta_prefix_score_is_sum_of_stepwise_terms():
    dec, enc = setup_case(58, n=6)
    labels = (2, 4, 3)
    nus = (2, 4, 6)
    cache = CrossAttentionCache(dec, enc)
    hist = empty_history(dec)
    tokens = (dec.sos_id,) + labels[:-1]
    want = 0.0
    for i, (tok, lab, nu) in enumerate(zip(tokens, labels, nus)):
        hist, logp = advance_position(dec, cache, hist, tok, i, nu)
        want += float(logp[lab])
    got = ta_prefix_score(enc, labels, nus, dec)
    assert got == pytest.approx(want, abs=1e-10)


def test_ta_prefix_score_full_visibility_matches_batched_full_context_run():
    dec, enc = setup_case(59, n=5)
    labels = (2, 3, 2, 4)
    logps = full_context_decoder_logps(dec, enc, labels)
    want = sum(float(logps[i][lab]) for i, lab in enumerate(labels))
    got = ta_prefix_score(enc, labels, (5, 5, 5, 5), dec)
    assert got == pytest.approx(want, abs=1e-10)


def test_ta_prefix_score_clamps_overlong_nu():
    dec, enc = setup_case(60, n=4)
    a = ta_prefix_score(enc, (2, 3), (4, 4), dec)
    b = ta_prefix_score(enc, (2, 3), (4, 9), dec)
    assert a == b


def test_ta_prefix_score_rejects_decreasing_nus():
    dec, enc = setup_case(61, n=5)
    with pytest.raises(ValueError, match="non-decreasing"):
        ta_prefix_score(enc, (2, 3), (4, 2), dec)


@pytest.mark.parametrize("bad", [2.5, np.float64(3.0), True, None])
def test_ta_prefix_score_rejects_truncation_points_that_are_not_integers(bad):
    dec, enc = setup_case(63, n=5)
    with pytest.raises(ValueError, match="is not an integer"):
        ta_prefix_score(enc, (2, 3), (2, bad), dec)


@pytest.mark.parametrize("bad", [2.0, np.float64(2.0), True])
def test_advance_positions_rejects_a_trigger_index_that_is_not_an_integer(bad):
    dec, enc = setup_case(64, n=4)
    with pytest.raises(ValueError, match="trigger index must be an integer"):
        advance_positions(CrossAttentionCache(dec, enc),
                          [DecoderState(empty_history(dec), dec.sos_id)], bad)


def test_ta_prefix_score_length_mismatch():
    dec, enc = setup_case(62)
    with pytest.raises(ValueError, match="labels but"):
        ta_prefix_score(enc, (2, 3), (4,), dec)


@pytest.mark.parametrize("label", [-1, 5, 2.5])
def test_ta_prefix_score_rejects_label_ids_outside_the_vocabulary(label):
    # -1 used to score id 4, the last row of the log posterior; 5 and 2.5
    # raised IndexError
    dec, enc = setup_case(63, n=4)
    with pytest.raises(ValueError, match="outside the vocabulary"):
        ta_prefix_score(enc, (2, label), (3, 4), dec)
    assert ta_prefix_score(enc, (np.int64(2), 4), (3, 4), dec) == ta_prefix_score(
        enc, (2, 4), (3, 4), dec)


def test_earlier_positions_unaffected_by_later_truncation_growth():
    # per-step scores with a growing schedule agree with scoring each label
    # at its own truncation in isolation from the same cached history
    dec, enc = setup_case(63, n=6)
    labels = (2, 3)
    total_a = ta_prefix_score(enc, labels, (2, 2), dec)
    total_b = ta_prefix_score(enc, labels, (2, 6), dec)
    lp_first = next_label_logp(dec, enc, 2, ())
    # both runs score the first label identically at nu=2
    assert total_a != total_b
    hist = empty_history(dec)
    _, logp0 = advance_position(dec, CrossAttentionCache(dec, enc), hist, dec.sos_id, 0, 2)
    assert np.array_equal(logp0, lp_first)


def test_history_rows_shapes():
    dec, enc = setup_case(64)
    hist = empty_history(dec)
    heads, _, d_k = dec.layers[0].self_mha.w_k.shape
    assert hist.shape == (len(dec.layers), 2, heads, 0, d_k)
    grown, _ = advance_position(dec, CrossAttentionCache(dec, enc), hist, dec.sos_id, 0, 2)
    assert grown.shape == (len(dec.layers), 2, heads, 1, d_k)
    assert hist.shape == (len(dec.layers), 2, heads, 0, d_k)  # the input is left as it was


def test_a_step_shares_no_storage_with_its_input_or_its_siblings():
    # histories branch: two children of one parent in one batched step
    # are separate arrays, and writing one changes neither its parent nor
    # its sibling
    dec, enc = setup_case(80, n=5, d_layers=2)
    cache = CrossAttentionCache(dec, enc)
    parent, _ = advance_position(dec, cache, empty_history(dec), dec.sos_id, 0, 3)
    kept = parent.copy()
    (first, _), (second, _) = advance_positions(cache, decoder_states([parent, parent], [2, 3]), 4)
    assert (parent == kept).all()
    assert (first[:, :, :, :1] == parent).all() and (second[:, :, :, :1] == parent).all()
    assert not (first[:, :, :, 1] == second[:, :, :, 1]).all()
    for a, b in [(first, parent), (second, parent), (first, second)]:
        assert not np.shares_memory(a, b)
    second_kept = second.copy()
    first[...] = 99.0
    assert (parent == kept).all() and (second == second_kept).all()


@pytest.mark.parametrize("enc64", [False, True])
def test_history_has_the_dtype_of_the_key_rows_it_holds(enc64):
    # histories hold float32 key and value rows, the model dtype; a
    # float64 encoder matrix is cast to float32 when the cache takes it,
    # so it widens nothing
    dec, enc = setup_case(81, n=4, d_layers=2)
    if enc64:
        enc = enc.astype(np.float64)
    cache = CrossAttentionCache(dec, enc)
    hist, _ = advance_position(dec, cache, empty_history(dec), dec.sos_id, 0, 2)
    hist, _ = advance_position(dec, cache, hist, 3, 1, 4)
    assert hist.dtype == np.float32
    # layer 0's rows are the projections of its normed input, bit for bit
    x = dec.embed[[dec.sos_id, 3]] + positional_encodings([0, 1], dec.d_model)
    layer = dec.layers[0]
    normed = kernels.layer_norm(x, layer.norm1_g, layer.norm1_b)
    for j, w in enumerate((layer.self_mha.w_k, layer.self_mha.w_v)):
        want = project_heads(normed, w)
        assert want.dtype == np.float32 and (hist[0, j] == want).all()


def test_decoder_layers_must_share_self_attention_heads_and_width():
    # one history array stacks every layer's keys, so layers whose
    # self-attention differs in heads or d_k are refused before any step
    for heads, d_k in [(1, 4), (2, 3)]:
        dec, enc = setup_case(82, n=4, d_layers=2)
        mha = dec.layers[1].self_mha
        d_model = dec.d_model
        rng = np.random.default_rng(83)
        mha.w_q, mha.w_k, mha.w_v = (rng.standard_normal((heads, d_model, d_k))
                                     .astype(np.float32) for _ in range(3))
        mha.w_h = rng.standard_normal((heads * d_k, d_model)).astype(np.float32)
        with pytest.raises(ValueError, match="differ in self-attention"):
            empty_history(dec)
        with pytest.raises(ValueError, match="differ in self-attention"):
            ta_prefix_score(enc, (2,), (4,), dec)


def test_shared_cross_cache_grown_in_steps_matches_fresh_caches():
    # one cache for a whole prefix tree, extended by uneven steps of rows
    # as they are emitted (as in streaming, empty steps included), against
    # a fresh cache per call
    dec, enc = setup_case(65, n=8)
    cache = CrossAttentionCache(dec, enc[:1])
    schedule = [((), 1), ((2,), 2), ((3,), 2), ((2, 4), 4), ((3, 2), 5),
                ((2, 4, 3), 7), ((2, 3), 3), ((3, 2, 2), 8)]
    shared, fresh = {}, {}  # context -> history of its positions, start token first
    emitted = 1
    for context, nu in schedule:
        target = min(max(emitted, nu + 1), 8)
        cache.extend(enc[emitted:target])
        emitted = target
        assert cache.rows == emitted
        token = context[-1] if context else dec.sos_id
        hist_s = shared[context[:-1]] if context else empty_history(dec)
        hist_f = fresh[context[:-1]] if context else empty_history(dec)
        shared[context], lp_s = advance_position(dec, cache, hist_s, token, len(context), nu)
        fresh[context], lp_f = advance_position(dec, CrossAttentionCache(dec, enc[:emitted]),
                                                hist_f, token, len(context), nu)
        assert np.array_equal(lp_s, lp_f)
        assert np.array_equal(shared[context], fresh[context])
    assert cache.rows == 8


def test_cross_cache_rejects_shrinking_encoder_and_foreign_decoder():
    dec, enc = setup_case(66, n=5)
    cache = CrossAttentionCache(dec, enc)
    advance_position(dec, cache, empty_history(dec), dec.sos_id, 0, 4)
    other, _ = setup_case(67, n=5)
    with pytest.raises(ValueError, match="another decoder"):
        advance_position(other, cache, empty_history(other), other.sos_id, 0, 2)


def history_of_length(dec, cache, rng, length):
    """A history of ``length`` positions, start token first, each scored
    at a random truncation of ``cache``'s encoder rows."""
    hist = empty_history(dec)
    for pos in range(length):
        tok = dec.sos_id if pos == 0 else int(rng.integers(dec.vocab_size))
        nu = int(rng.integers(1, cache.rows + 1))
        hist, _ = advance_position(dec, cache, hist, tok, pos, nu)
    return hist


@pytest.mark.parametrize("d_layers", [1, 2, 0])
@pytest.mark.parametrize("b", [1, 2, 5])
def test_advance_positions_rows_equal_single_row_steps(b, d_layers):
    dec, enc = setup_case(70 + b, n=6, d_layers=d_layers)
    rng = np.random.default_rng(b + 10 * d_layers)
    cache = CrossAttentionCache(dec, enc)
    for nu in range(1, enc.shape[0] + 1):
        # lengths 0..4 mixed within a batch and across truncations
        hists = [history_of_length(dec, cache, rng, (nu + i) % 5) for i in range(b)]
        tokens = [dec.sos_id] + [int(t) for t in rng.integers(dec.vocab_size, size=b - 1)]
        positions = [h.shape[3] for h in hists]
        got = advance_positions(cache, decoder_states(hists, tokens), nu)
        assert len(got) == b
        for hist, tok, pos, (grown, logp) in zip(hists, tokens, positions, got):
            want_hist, want_logp = advance_position(dec, cache, hist, tok, pos, nu)
            assert logp.dtype == np.float64
            assert (logp == want_logp).all()
            assert grown.shape == want_hist.shape
            assert grown.shape[:4] == (d_layers, 2, hist.shape[2], pos + 1)
            assert (grown == want_hist).all()
            # the history comes back with the position appended, and
            # the input is left as it was
            assert hist.shape[3] == pos
            assert (grown[:, :, :, :pos] == hist).all()


@pytest.mark.parametrize("enc64", [False, True])
@pytest.mark.parametrize("d_layers", [1, 2])
@pytest.mark.parametrize("b", [1, 3, 6])
def test_rows_with_a_stem_equal_rows_stepped_from_scratch(b, d_layers, enc64):
    # a stem is what a step computed before layer 0 reads the encoder; a
    # call that mixes rows with and without one gives each row the bits
    # of that row stepped from scratch, and hands a row's stem back as
    # is.  A float64 encoder matrix is cast to float32 where the cache
    # takes it, so every row and stem stays float32
    dec, enc = setup_case(82 + b, n=6, d_layers=d_layers)
    if enc64:
        enc = enc.astype(np.float64)
    rng = np.random.default_rng(b + 10 * d_layers)
    cache = CrossAttentionCache(dec, enc)
    hists = [history_of_length(dec, cache, rng, i % 4) for i in range(b)]
    tokens = [dec.sos_id if h.shape[3] == 0 else int(rng.integers(dec.vocab_size)) for h in hists]
    positions = [h.shape[3] for h in hists]
    first = decoder_states(hists, tokens)
    advance_positions(cache, first, int(rng.integers(1, 7)))
    for nu in range(1, enc.shape[0] + 1):
        stems = [state.stem if rng.random() < 0.5 else None for state in first]
        states, want_states = decoder_states(hists, tokens, stems), decoder_states(hists, tokens)
        got = advance_positions(cache, states, nu)
        want = advance_positions(cache, want_states, nu)
        for i, (row, want_row) in enumerate(zip(got, want)):
            (hist, logp), (want_hist, want_logp) = row, want_row
            stem, want_stem = states[i].stem, want_states[i].stem
            assert hist.dtype == want_hist.dtype == np.float32 and (hist == want_hist).all()
            assert (logp == want_logp).all()
            assert stem is stems[i] or stems[i] is None
            for part, want_part in zip(stem, want_stem):
                assert part.dtype == want_part.dtype == np.float32 and (part == want_part).all()
            alone_hist, alone_logp = advance_position(dec, cache, hists[i], tokens[i],
                                                      positions[i], nu)
            assert (hist == alone_hist).all() and (logp == alone_logp).all()


def test_a_decoder_without_layers_has_no_stems():
    dec, enc = setup_case(89, n=4, d_layers=0)
    cache = CrossAttentionCache(dec, enc)
    state = DecoderState(empty_history(dec), dec.sos_id)
    [(hist, logp)] = advance_positions(cache, [state], 2)
    assert state.stem is None and hist.shape[0] == 0
    assert (advance_positions(cache, [state], 3)[0][1]
            == advance_position(dec, cache, empty_history(dec), dec.sos_id, 0, 3)[1]).all()


def test_advance_positions_rejects_bad_arguments():
    dec, enc = setup_case(77, n=4)
    cache = CrossAttentionCache(dec, enc)
    state = DecoderState(empty_history(dec), dec.sos_id)
    other, _ = setup_case(78, n=4)
    with pytest.raises(ValueError, match="another decoder"):
        advance_position(other, cache, empty_history(other), other.sos_id, 0, 2)
    # the step reads encoder rows only through a cache, which projects each row once
    with pytest.raises(ValueError, match="raw encoder matrix"):
        advance_positions(enc, [state], 2)
    with pytest.raises(ValueError, match="raw encoder matrix"):
        advance_position(dec, enc, state.hist, dec.sos_id, 0, 2)
    for nu in (0, 5, -1):
        with pytest.raises(ValueError, match="trigger index out of range"):
            advance_positions(cache, [state], nu)
    assert advance_positions(cache, [], 2) == []


@settings(max_examples=150, deadline=None)
@given(heads=st.integers(1, 4), d=st.integers(1, 16),
       lengths=st.lists(st.integers(0, 12), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_own_history_attention_equals_the_block_mask_form(heads, d, lengths, seed):
    # each row attends its history with its new row appended in one
    # all-keys call; stacking every row's block under a block mask gives
    # the same bits
    rng = np.random.default_rng(seed)

    def heads_of(n):
        return rng.standard_normal((heads, n, d)).astype(np.float32)

    b = len(lengths)
    # one-layer histories, keys and values stacked as the decoder keeps them
    pasts = [np.stack([heads_of(n), heads_of(n)])[None] for n in lengths]
    rows = np.stack([heads_of(b), heads_of(b)])
    q = heads_of(b)
    grown = append_history(pasts)
    for i, hist in enumerate(grown):
        hist[0, :, :, -1] = rows[:, :, i]
    got = decoder._attend_own_histories(q, grown, 0)
    assert got.shape == (heads, b, d) and got.dtype == np.float32
    want = scaled_dot_attention(q, *own_histories_block_mask([p[0] for p in pasts], rows))
    assert (got == want).all()


def test_decoder_self_attention_needs_value_heads_as_wide_as_key_heads():
    dec, enc = setup_case(79, n=4)
    mha = dec.layers[0].self_mha
    h, d_model, d_k = mha.w_q.shape
    mha.w_v = np.zeros((h, d_model, d_k + 1), dtype=np.float32)
    mha.w_h = np.zeros((h * (d_k + 1), d_model), dtype=np.float32)
    with pytest.raises(ValueError, match=f"d_v {d_k + 1}, d_k {d_k}"):
        advance_position(dec, CrossAttentionCache(dec, enc), empty_history(dec), dec.sos_id, 0, 2)


def test_position_rows_from_the_kept_block_equal_each_position_alone(monkeypatch):
    # the decoder reads its positional encodings from the blocks of
    # ROW_BLOCK positions the encoder reads too, each computed once; every
    # row a step reads, and every span asked for, on either side of a
    # block boundary and in any order, has the bits of its positions
    # computed alone, and a span within one block is a read-only view
    dec, enc = setup_case(90, n=3)
    blocks, seen = [], []
    compute, take = encoder.positional_encodings, decoder.position_rows

    def counting(positions, d_model):
        blocks.append(len(positions))
        return compute(positions, d_model)

    def recorded(start, stop, d_model):
        seen.append((start, stop, take(start, stop, d_model)))
        return seen[-1][2]

    encoder._position_block.cache_clear()
    monkeypatch.setattr(encoder, "positional_encodings", counting)
    monkeypatch.setattr(decoder, "position_rows", recorded)
    cache = CrossAttentionCache(dec, enc)
    hist, tokens = empty_history(dec), [dec.sos_id] + [2, 3, 4] * 7
    for token in tokens:
        [(hist, _)] = advance_positions(cache, [DecoderState(hist, token)], 3)
    assert [(start, stop) for start, stop, _ in seen] == [(p, p + 1) for p in range(len(tokens))]
    for start, stop in ((0, 1), (15, 17), (16, 16), (3, 40), (31, 33), (47, 48), (1, 16)):
        recorded(start, stop, dec.d_model)
    for start, stop, rows in seen:
        assert rows.shape == (stop - start, dec.d_model) and rows.dtype == np.float32
        assert rows.flags.writeable == ((stop - 1) // ROW_BLOCK > start // ROW_BLOCK)
        for i, row in enumerate(rows):
            assert (row == positional_encodings([start + i], dec.d_model)).all()
            assert (row == positional_encoding_per_row(start + i, dec.d_model)).all()
    assert blocks == [ROW_BLOCK] * 3


def test_a_decode_whose_labels_outrun_the_first_position_block_keeps_the_bits():
    # 40 positions stepped one by one cross two block boundaries; each
    # step's log posterior equals the full-context run's, whose position
    # rows come from one call over every position, and layer 0's keys
    # and values are the projections of each embedding plus the position
    # vector of that position computed alone
    dec, enc = setup_case(91, n=6, d_layers=2)
    rng = np.random.default_rng(91)
    labels = [int(t) for t in rng.integers(1, dec.vocab_size, size=39)]
    want = full_context_decoder_logps(dec, enc, labels)
    cache = CrossAttentionCache(dec, enc)
    hist = empty_history(dec)
    tokens = [dec.sos_id] + labels
    for pos, token in enumerate(tokens):
        [(hist, logp)] = advance_positions(cache, [DecoderState(hist, token)], enc.shape[0])
        assert (logp == want[pos]).all()
    x = np.stack([dec.embed[t] + positional_encoding_per_row(p, dec.d_model)
                  for p, t in enumerate(tokens)])
    layer = dec.layers[0]
    normed = kernels.layer_norm(x, layer.norm1_g, layer.norm1_b)
    assert (hist[0, 0] == project_heads(normed, layer.self_mha.w_k)).all()
    assert (hist[0, 1] == project_heads(normed, layer.self_mha.w_v)).all()


@pytest.mark.parametrize("b", range(1, 7))
def test_batches_interleaving_stem_and_fresh_rows_equal_one_row_steps(b):
    # every order of rows that bring a stem and rows that do not, in a
    # batch of b: each row's history and log posterior equal that row
    # stepped alone from scratch
    dec, enc = setup_case(92 + b, n=6, d_layers=2)
    rng = np.random.default_rng(b)
    cache = CrossAttentionCache(dec, enc)
    hists = [history_of_length(dec, cache, rng, int(rng.integers(0, 20))) for _ in range(b)]
    tokens = [dec.sos_id if h.shape[3] == 0 else int(rng.integers(dec.vocab_size)) for h in hists]
    kept = decoder_states(hists, tokens)
    advance_positions(cache, kept, 2)
    nu = 5
    alone = [advance_position(dec, cache, h, t, h.shape[3], nu) for h, t in zip(hists, tokens)]
    for pattern in range(2 ** b):
        stems = [kept[i].stem if pattern >> i & 1 else None for i in range(b)]
        states = decoder_states(hists, tokens, stems)
        got = advance_positions(cache, states, nu)
        for (hist, logp), (want_hist, want_logp), state, given_stem in zip(got, alone, states,
                                                                           stems):
            assert hist.dtype == want_hist.dtype and (hist == want_hist).all()
            assert (logp == want_logp).all()
            assert given_stem is None or state.stem is given_stem


@pytest.mark.parametrize("bad", [-1, 5, 1.5, True])
def test_advance_positions_rejects_token_ids_outside_the_vocabulary(bad):
    # -1 used to read the last embedding row, and the others raised
    # IndexError from the embedding lookup
    dec, enc = setup_case(93, n=4)  # vocabulary of 5
    cache = CrossAttentionCache(dec, enc)
    hist = empty_history(dec)
    with pytest.raises(ValueError, match="outside the vocabulary"):
        advance_positions(cache, decoder_states([hist, hist], [dec.sos_id, bad]), 2)
    with pytest.raises(ValueError, match="outside the vocabulary"):
        advance_position(dec, cache, hist, bad, 0, 2)


@pytest.mark.parametrize("bad", [-1, 1.5, True, np.float64(1.0)])
def test_advance_positions_rejects_positions_that_are_not_integers_from_0(bad):
    dec, enc = setup_case(94, n=4)
    hist = empty_history(dec)
    with pytest.raises(ValueError, match="is not an integer >= 0"):
        advance_position(dec, CrossAttentionCache(dec, enc), hist, dec.sos_id, bad, 2)


@pytest.mark.parametrize("length", [0, 2])
def test_advance_positions_rejects_a_position_that_is_not_its_history_length(monkeypatch, length):
    # the positional block grows to the position asked for, so a position
    # of 10**8 would ask for a float64 block of about 51 GB: it raises, as
    # does any position but the history's length, before any work
    dec, enc = setup_case(95, n=4)
    cache = CrossAttentionCache(dec, enc)
    hist = empty_history(dec)
    for pos in range(length):
        [(hist, _)] = advance_positions(cache, [DecoderState(hist, dec.sos_id if pos == 0 else 2)],
                                        2)

    def no_step(*args):  # the step's first work; never reached with a bad position
        pytest.fail("a step ran")

    monkeypatch.setattr(decoder, "append_history", no_step)
    for bad in {length + 1, abs(length - 1), 10**8}:
        with pytest.raises(ValueError, match="is not the length of its history"):
            advance_position(dec, cache, hist, 2, bad, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cross_cache_rejects_non_finite_encoder_rows(bad):
    dec, enc = setup_case(95, n=4)
    cache = CrossAttentionCache(dec, enc[:2])
    poisoned = enc[2:].copy()
    poisoned[1, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        cache.extend(poisoned)
    assert cache.rows == 2 and all(store.rows == 2 for store in cache.kv)
    with pytest.raises(ValueError, match="non-finite"):
        CrossAttentionCache(dec, poisoned)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ta_prefix_score_rejects_non_finite_encoder_rows(bad):
    # it used to return nan
    dec, enc = setup_case(96, n=4)
    enc[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        ta_prefix_score(enc, (2, 3), (2, 4), dec)


def test_a_minus_inf_logit_gives_minus_inf_for_that_label_only():
    # -inf is a label of probability zero, not a non-finite weight
    dec, enc = setup_case(97)
    dec.out_b[3] = -np.inf
    cache = CrossAttentionCache(dec, enc)
    [(_, logp)] = advance_positions(cache, [DecoderState(empty_history(dec), dec.sos_id)], 3)
    assert logp[3] == -np.inf
    assert np.isfinite(np.delete(logp, 3)).all()
    assert np.exp(logp).sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_step_with_non_finite_logits_raises(bad):
    dec, enc = setup_case(98)
    dec.out_b[2] = bad
    cache = CrossAttentionCache(dec, enc)
    hist = empty_history(dec)
    with pytest.raises(ValueError, match="decoder weight is not finite"):
        advance_positions(cache, decoder_states([hist, hist], [dec.sos_id, 2]), 3)


def test_a_state_keeps_the_stem_of_its_first_step_for_its_next(monkeypatch):
    # the first step of a state sets its stem; its next step, at another
    # truncation, reuses that stem, runs no layer-0 self-attention, and
    # gets the bits of a step from scratch
    dec, enc = setup_case(99, n=5, d_layers=2)
    cache = CrossAttentionCache(dec, enc)
    hist, _ = advance_position(dec, cache, empty_history(dec), dec.sos_id, 0, 2)
    state = DecoderState(hist, 3)
    assert state.stem is None
    advance_positions(cache, [state], 2)
    stem = state.stem
    assert isinstance(stem, decoder.Stem)
    layer0 = []
    attend_own = decoder._attend_own_histories

    def counting(q, hists, d):
        if d == 0:
            layer0.append(len(hists))
        return attend_own(q, hists, d)

    monkeypatch.setattr(decoder, "_attend_own_histories", counting)
    [(grown, logp)] = advance_positions(cache, [state], 4)
    assert state.stem is stem and not layer0
    assert state.hist is hist and hist.shape[3] == 1
    want_hist, want_logp = advance_position(dec, cache, hist, 3, 1, 4)
    assert layer0 == [1]
    assert (grown == want_hist).all() and (logp == want_logp).all()


def test_a_step_that_raises_sets_no_stem():
    # stems go into their states only once the logits are finite: a step
    # that raises leaves every state's stem as it was
    dec, enc = setup_case(98)
    cache = CrossAttentionCache(dec, enc)
    kept = DecoderState(empty_history(dec), dec.sos_id)
    advance_positions(cache, [kept], 2)
    stem = kept.stem
    assert stem is not None
    dec.out_b[2] = np.nan
    fresh = DecoderState(kept.hist, 2)
    with pytest.raises(ValueError, match="decoder weight is not finite"):
        advance_positions(cache, [kept, fresh], 3)
    assert kept.stem is stem and fresh.stem is None
