import math

import numpy as np
import pytest

from streamasr.ctc import (PrefixScores, ctc_forward_logprob, ctc_prefix_step,
                           ctc_viterbi_align, log_posterior_row, posteriorgram_from_states,
                           validate_posteriorgram)
from streamasr.kernels import NEG_INF, log_add
from streamasr.lm import UniformLM
from streamasr.search import CtcPrefixSearch, DecodeParams
from helpers import logprob_rows, random_posteriorgram, tiny_model
from oracles import (collapse_path, ctc_forward_oracle, ctc_path_masses,
                     viterbi_oracle)


def run_prefix_search(rows, local_threshold=0.0):
    hyps = {(): PrefixScores(0.0, NEG_INF)}
    for row in rows:
        hyps = ctc_prefix_step(row, hyps, local_threshold)
    return hyps


def test_forward_single_frame_is_label_probability():
    rows = logprob_rows(np.random.default_rng(70), 1, 3)
    assert ctc_forward_logprob(rows, (1,)) == pytest.approx(float(rows[0][1]), abs=1e-12)


def test_forward_two_frames_sums_three_paths():
    rows = logprob_rows(np.random.default_rng(71), 2, 3)
    want = log_add(
        log_add(float(rows[0][1]) + float(rows[1][0]),   # a then blank
                float(rows[0][0]) + float(rows[1][1])),  # blank then a
        float(rows[0][1]) + float(rows[1][1]),           # a a collapses to a
    )
    assert ctc_forward_logprob(rows, (1,)) == pytest.approx(want, abs=1e-12)


def test_forward_empty_labels_is_all_blank_mass():
    rows = logprob_rows(np.random.default_rng(72), 4, 3)
    assert ctc_forward_logprob(rows, ()) == pytest.approx(float(rows[:, 0].sum()), abs=1e-12)


def test_forward_unreachable_is_neg_inf():
    rows = logprob_rows(np.random.default_rng(73), 1, 4)
    assert ctc_forward_logprob(rows, (1, 2)) == NEG_INF
    assert ctc_forward_logprob(rows, (1, 1)) == NEG_INF  # repeat needs a blank between
    assert ctc_forward_logprob(np.zeros((0, 3)), (1,)) == NEG_INF


def test_forward_matches_path_enumeration():
    rng = np.random.default_rng(74)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        v = int(rng.integers(1, 4))
        rows = logprob_rows(rng, n, v + 1)
        labels = tuple(int(rng.integers(1, v + 1)) for _ in range(int(rng.integers(0, 4))))
        got = ctc_forward_logprob(rows, labels)
        want = ctc_forward_oracle(rows, labels)
        if want == NEG_INF:
            assert got == NEG_INF
        else:
            assert got == pytest.approx(want, abs=1e-10)


def test_forward_rejects_bad_labels():
    rows = logprob_rows(np.random.default_rng(75), 2, 3)
    with pytest.raises(ValueError, match="outside posteriorgram columns"):
        ctc_forward_logprob(rows, (0,))
    with pytest.raises(ValueError, match="outside posteriorgram columns"):
        ctc_forward_logprob(rows, (3,))


def test_viterbi_forced_when_frames_equal_labels():
    rows = logprob_rows(np.random.default_rng(76), 3, 4)
    out = ctc_viterbi_align(rows, (1, 2, 3), eps_dec=0)
    assert out.path == (1, 2, 3)
    assert out.first_occurrence == (1, 2, 3)
    assert out.nu == (1, 2, 3)


def test_viterbi_score_matches_exhaustive_max():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        v = int(rng.integers(1, 4))
        labels = tuple(int(rng.integers(1, v + 1)) for _ in range(int(rng.integers(1, 4))))
        rows = logprob_rows(rng, n, v + 1)
        best, arg, firsts = viterbi_oracle(rows, labels)
        if not arg:
            with pytest.raises(ValueError, match="no valid alignment"):
                ctc_viterbi_align(rows, labels, 0)
            continue
        out = ctc_viterbi_align(rows, labels, 0)
        got = sum(float(rows[t][c]) for t, c in enumerate(out.path))
        assert got == pytest.approx(best, abs=1e-10)
        assert collapse_path(out.path) == labels
        assert all(b > a for a, b in zip(out.first_occurrence, out.first_occurrence[1:]))
        assert out.first_occurrence in firsts


def test_viterbi_tie_prefers_earliest_emission():
    rows = np.log(np.full((2, 2), 0.5))
    out = ctc_viterbi_align(rows, (1,), eps_dec=0)
    assert out.path == (1, 0)
    assert out.first_occurrence == (1,)


def test_viterbi_nu_adds_lookahead_unclamped():
    rows = logprob_rows(np.random.default_rng(78), 4, 3)
    out = ctc_viterbi_align(rows, (1,), eps_dec=18)
    assert out.nu == (out.first_occurrence[0] + 18,)


@pytest.mark.parametrize("eps_dec", [-5, 1.5, True, None])
def test_viterbi_rejects_an_eps_dec_the_search_rejects(eps_dec):
    rows = logprob_rows(np.random.default_rng(80), 4, 4)
    with pytest.raises(ValueError, match="eps_dec .* is not an integer >= 0"):
        ctc_viterbi_align(rows, (2, 3), eps_dec)
    with pytest.raises(ValueError, match="eps_dec .* is not an integer >= 0"):
        DecodeParams(eps_dec=eps_dec)
    assert ctc_viterbi_align(rows, (2, 3), np.int64(2)) == ctc_viterbi_align(rows, (2, 3), 2)


def test_viterbi_empty_labels_is_blank_path():
    rows = logprob_rows(np.random.default_rng(79), 3, 3)
    out = ctc_viterbi_align(rows, (), eps_dec=5)
    assert out.path == (0, 0, 0)
    assert out.first_occurrence == ()
    assert out.nu == ()


def test_viterbi_at_most_forward_mass():
    rng = np.random.default_rng(80)
    for _ in range(10):
        rows = logprob_rows(rng, 5, 3)
        labels = (1, 2)
        out = ctc_viterbi_align(rows, labels, 0)
        path_lp = sum(float(rows[t][c]) for t, c in enumerate(out.path))
        assert path_lp <= ctc_forward_logprob(rows, labels) + 1e-12


def test_prefix_step_blank_only_frame_adds_no_prefixes():
    row = np.array([0.0, NEG_INF, NEG_INF])  # blank carries all the mass
    hyps = {(): PrefixScores(0.0, NEG_INF), (1,): PrefixScores(-2.0, -1.0)}
    out = ctc_prefix_step(row, hyps, local_threshold=0.0)
    assert set(out) == {(), (1,)}
    assert out[()].p_b == pytest.approx(0.0)
    assert out[()].p_nb == NEG_INF
    # existing prefixes keep their total mass, rerouted through the blank
    assert out[(1,)].p_b == pytest.approx(log_add(-2.0, -1.0))
    assert out[(1,)].p_nb == NEG_INF


def test_prefix_step_repeat_splits_mass_by_blank_history():
    rng = np.random.default_rng(81)
    row = logprob_rows(rng, 1, 2)[0]
    hyps = {(1,): PrefixScores(math.log(0.25), math.log(0.5))}
    out = ctc_prefix_step(row, hyps, 0.0)
    # repeating the last label without an intervening blank extends p_nb only
    assert out[(1,)].p_nb == pytest.approx(float(row[1]) + math.log(0.5), abs=1e-12)
    assert out[(1, 1)].p_nb == pytest.approx(float(row[1]) + math.log(0.25), abs=1e-12)


def test_prefix_search_matches_path_enumeration_marginals():
    rng = np.random.default_rng(82)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        v = int(rng.integers(1, 3))
        rows = logprob_rows(rng, n, v + 1)
        hyps = run_prefix_search(rows)
        masses = ctc_path_masses(rows)
        assert set(hyps) == set(masses)
        for pre, (b, nb) in masses.items():
            got = hyps[pre]
            want_b = math.log(b) if b > 0 else NEG_INF
            want_nb = math.log(nb) if nb > 0 else NEG_INF
            assert got.p_b == pytest.approx(want_b, abs=1e-10)
            assert got.p_nb == pytest.approx(want_nb, abs=1e-10)


def test_prefix_search_single_label_vocab_equals_forward():
    rng = np.random.default_rng(83)
    rows = logprob_rows(rng, 4, 2)
    hyps = run_prefix_search(rows)
    for pre, sc in hyps.items():
        assert log_add(sc.p_b, sc.p_nb) == pytest.approx(ctc_forward_logprob(rows, pre),
                                                         abs=1e-10)


def test_prefix_search_conserves_total_mass():
    rng = np.random.default_rng(84)
    rows = logprob_rows(rng, 5, 4)
    hyps = run_prefix_search(rows)
    total = NEG_INF
    for sc in hyps.values():
        total = log_add(total, log_add(sc.p_b, sc.p_nb))
    assert abs(total) < 1e-8


def test_prefix_step_threshold_skips_weak_labels():
    row = np.log(np.array([0.5, 0.4, 0.1]))
    hyps = {(): PrefixScores(0.0, NEG_INF)}
    out = ctc_prefix_step(row, hyps, local_threshold=0.2)
    assert (2,) not in out  # below threshold, skipped this frame
    assert (1,) in out


def test_prefix_step_rejects_non_vector_rows():
    with pytest.raises(ValueError, match="posterior row must be a vector"):
        ctc_prefix_step(np.zeros((2, 2)), {(): PrefixScores(0.0, NEG_INF)})


def test_posteriorgram_validate_accepts_normalized_rejects_skewed():
    rng = np.random.default_rng(85)
    validate_posteriorgram(random_posteriorgram(rng, 5, 4))
    bad = np.zeros((2, 3))  # rows sum to 3, not 1
    with pytest.raises(ValueError, match="sums to"):
        validate_posteriorgram(bad)
    with pytest.raises(ValueError, match="posteriorgram must be"):
        validate_posteriorgram(np.zeros((0, 3)))


def test_posteriorgram_from_states_rows_normalize_and_match_row_op():
    m = tiny_model(86)
    rng = np.random.default_rng(87)
    states = rng.standard_normal((4, 8)).astype(np.float32)
    post = posteriorgram_from_states(states, m.ctc_w, m.ctc_b)
    validate_posteriorgram(post)
    assert post.shape == (4, m.ctc_b.shape[0])
    for i in range(4):
        assert np.array_equal(post[i], log_posterior_row(states[i], m.ctc_w, m.ctc_b))


@pytest.mark.parametrize("n", [0, 1, 7, 100])
def test_posteriorgram_from_states_is_one_call_with_the_bits_of_each_row(n):
    m = tiny_model(88)
    rng = np.random.default_rng(89 + n)
    states = rng.standard_normal((n, m.ctc_w.shape[0])).astype(np.float32)
    post = posteriorgram_from_states(states, m.ctc_w, m.ctc_b)
    assert post.shape == (n, m.ctc_b.shape[0]) and post.dtype == np.float64
    for i in range(n):
        assert (post[i] == log_posterior_row(states[i], m.ctc_w, m.ctc_b)).all()


@pytest.mark.parametrize("where,bad", [("ctc_w", math.nan), ("ctc_b", math.nan), ("ctc_b", math.inf)])
def test_a_non_finite_ctc_head_weight_is_refused_offline_and_by_the_search(where, bad):
    m = tiny_model(91)
    getattr(m, where)[..., 2] = bad
    states = np.random.default_rng(92).standard_normal((3, m.ctc_w.shape[0])).astype(np.float32)
    # the offline head refuses the matrix
    with pytest.raises(ValueError, match="row of logits holds NaN or \\+inf"):
        posteriorgram_from_states(states, m.ctc_w, m.ctc_b)
    # a streaming row comes back NaN (+inf - +inf on the way), and the
    # search refuses to read it
    with np.errstate(invalid="ignore"):
        row = log_posterior_row(states[0], m.ctc_w, m.ctc_b)
    assert np.isnan(row).any()
    search = CtcPrefixSearch(UniformLM(m.ctc_b.shape[0] - 1), DecodeParams(), m.ctc_b.shape[0])
    with pytest.raises(ValueError, match="log probabilities contain NaN or \\+inf"):
        search.advance(row)
    assert search.frame == 0


@pytest.mark.parametrize("shape", [(5, 2, 8), (0,), (8,), (4, 7), ()])
def test_posteriorgram_from_states_rejects_states_that_are_not_a_matrix_of_the_head_width(shape):
    # a (5, 2, 8) array once came back as a (5, 2, V+1) "posteriorgram",
    # and a (0,) array as a (0, V+1) one
    m = tiny_model(90)
    assert m.ctc_w.shape[0] == 8
    with pytest.raises(ValueError, match="encoder states of shape"):
        posteriorgram_from_states(np.zeros(shape, dtype=np.float32), m.ctc_w, m.ctc_b)
