import numpy as np
import pytest

from streamasr.decoder import (CrossAttentionCache, advance_position,
                               append_history, decoder_log_posterior,
                               decoder_posterior, empty_history,
                               ta_prefix_score)
from helpers import random_enc_states, tiny_model
from oracles import full_context_decoder_logps


def setup_case(seed, n=5, **kw):
    m = tiny_model(seed, **kw)
    rng = np.random.default_rng(seed + 1000)
    enc = random_enc_states(rng, n, m.decoder.d_model)
    return m.decoder, enc


def test_posterior_rows_normalize():
    dec, enc = setup_case(50)
    for ctx in [(), (2,), (2, 3), (4, 2, 3)]:
        p = decoder_posterior(enc, 3, ctx, dec)
        assert p.shape == (dec.vocab_size,)
        assert abs(p.sum() - 1.0) < 1e-6
        assert (p > 0).all()


def test_log_posterior_is_float64_log_of_posterior():
    dec, enc = setup_case(51)
    lp = decoder_log_posterior(enc, 4, (2,), dec)
    assert lp.dtype == np.float64
    assert np.allclose(np.exp(lp), decoder_posterior(enc, 4, (2,), dec), atol=1e-12)


def test_truncation_hides_later_encoder_rows_bit_exactly():
    dec, enc = setup_case(52, n=6)
    nu = 3
    base = decoder_log_posterior(enc, nu, (2, 4), dec)
    pert = enc.copy()
    pert[nu:] += 7.0
    again = decoder_log_posterior(pert, nu, (2, 4), dec)
    assert np.array_equal(base, again)


def test_visible_encoder_row_changes_posterior():
    dec, enc = setup_case(53, n=6)
    base = decoder_log_posterior(enc, 3, (2,), dec)
    pert = enc.copy()
    pert[2] += 7.0
    assert not np.array_equal(base, decoder_log_posterior(pert, 3, (2,), dec))


def test_nu_out_of_range():
    dec, enc = setup_case(54, n=4)
    for nu in (0, 5, -1):
        with pytest.raises(ValueError, match="trigger index out of range"):
            decoder_log_posterior(enc, nu, (), dec)


def test_causal_consistency_of_cached_positions():
    # scoring a longer prefix replays earlier positions from the cache;
    # each step's posterior must equal the standalone short-context run
    dec, enc = setup_case(55)
    ctx = (2, 3, 4)
    hist = empty_history(dec)
    tokens = (dec.sos_id,) + ctx
    for i, tok in enumerate(tokens):
        rows, logp = advance_position(dec, enc, hist, tok, i, 5)
        hist = append_history(hist, rows)
        standalone = decoder_log_posterior(enc, 5, ctx[:i], dec)
        assert np.array_equal(logp, standalone)


def test_ta_prefix_score_empty_is_zero():
    dec, enc = setup_case(56)
    assert ta_prefix_score(enc, (), (), dec) == 0.0


def test_ta_prefix_score_single_label_is_log_posterior_entry():
    dec, enc = setup_case(57, n=4)
    lp = decoder_log_posterior(enc, 4, (), dec)
    assert ta_prefix_score(enc, (3,), (4,), dec) == pytest.approx(float(lp[3]), abs=1e-12)


def test_ta_prefix_score_is_sum_of_stepwise_terms():
    dec, enc = setup_case(58, n=6)
    labels = (2, 4, 3)
    nus = (2, 4, 6)
    hist = empty_history(dec)
    tokens = (dec.sos_id,) + labels[:-1]
    want = 0.0
    for i, (tok, lab, nu) in enumerate(zip(tokens, labels, nus)):
        rows, logp = advance_position(dec, enc, hist, tok, i, nu)
        hist = append_history(hist, rows)
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


def test_ta_prefix_score_length_mismatch():
    dec, enc = setup_case(62)
    with pytest.raises(ValueError, match="labels but"):
        ta_prefix_score(enc, (2, 3), (4,), dec)


def test_earlier_positions_unaffected_by_later_truncation_growth():
    # per-step scores with a growing schedule agree with scoring each label
    # at its own truncation in isolation from the same cached history
    dec, enc = setup_case(63, n=6)
    labels = (2, 3)
    total_a = ta_prefix_score(enc, labels, (2, 2), dec)
    total_b = ta_prefix_score(enc, labels, (2, 6), dec)
    lp_first = decoder_log_posterior(enc, 2, (), dec)
    # both runs score the first label identically at nu=2
    assert total_a != total_b
    hist = empty_history(dec)
    rows, logp0 = advance_position(dec, enc, hist, dec.sos_id, 0, 2)
    assert np.array_equal(logp0, lp_first)


def test_history_rows_shapes():
    dec, enc = setup_case(64)
    hist = empty_history(dec)
    assert len(hist) == len(dec.layers)
    rows, _ = advance_position(dec, enc, hist, dec.sos_id, 0, 2)
    hist = append_history(hist, rows)
    assert all(h.shape == (1, dec.d_model) for h in hist)


def test_shared_cross_cache_grown_in_steps_matches_fresh_caches():
    # one cache for a whole prefix tree, handed a longer encoder as rows
    # are emitted (as in streaming), against a fresh cache per call
    dec, enc = setup_case(65, n=8)
    cache = CrossAttentionCache(dec, enc[:1])
    schedule = [((), 1), ((2,), 2), ((3,), 2), ((2, 4), 4), ((3, 2), 5),
                ((2, 4, 3), 7), ((2, 3), 3), ((3, 2, 2), 8)]
    shared, fresh = {}, {}  # context -> history of its positions, start token first
    emitted = 1
    for context, nu in schedule:
        emitted = min(max(emitted, nu + 1), 8)
        cache.update(enc[:emitted])
        token = context[-1] if context else dec.sos_id
        hist_s = shared[context[:-1]] if context else empty_history(dec)
        hist_f = fresh[context[:-1]] if context else empty_history(dec)
        rows_s, lp_s = advance_position(dec, cache, hist_s, token, len(context), nu)
        rows_f, lp_f = advance_position(dec, enc[:emitted], hist_f, token, len(context), nu)
        assert np.array_equal(lp_s, lp_f)
        for a, b in zip(rows_s, rows_f):
            assert np.array_equal(a.keys, b.keys) and np.array_equal(a.values, b.values)
        shared[context] = append_history(hist_s, rows_s)
        fresh[context] = append_history(hist_f, rows_f)
    assert cache.rows == 8


def test_cross_cache_rejects_shrinking_encoder_and_foreign_decoder():
    dec, enc = setup_case(66, n=5)
    cache = CrossAttentionCache(dec, enc)
    advance_position(dec, cache, empty_history(dec), dec.sos_id, 0, 4)
    with pytest.raises(ValueError, match="already projected"):
        cache.update(enc[:3])
    other, _ = setup_case(67, n=5)
    with pytest.raises(ValueError, match="another decoder"):
        advance_position(other, cache, empty_history(other), other.sos_id, 0, 2)
