import math

import numpy as np
import pytest

from streamasr.lm import LN10, NgramLM, UniformLM, ngram_load
from helpers import normalized_bigram_arpa

HAND_ARPA = """\\data\\
ngram 1=3
ngram 2=1

\\1-grams:
-0.3010299957 a -0.2
-0.6989700043 b 0.0
-1.0 c

\\2-grams:
-0.1549019600 a b

\\end\\
"""


def write(tmp_path, text, name="lm.arpa"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_uniform_lm_constant_increment():
    lm = UniformLM(10)
    state = lm.start_state()
    state, inc = lm.extend(state, 3)
    assert inc == pytest.approx(math.log(1 / 10), abs=1e-12)
    _, inc2 = lm.extend(state, 7)
    assert inc2 == inc


def test_uniform_lm_rejects_empty_vocab():
    with pytest.raises(ValueError, match="at least one label"):
        UniformLM(0)


@pytest.mark.parametrize("n", [2.5, True, "3", None])
def test_uniform_lm_takes_only_an_integer_label_count(n):
    with pytest.raises(ValueError, match="at least one label"):
        UniformLM(n)


def test_uniform_lm_accepts_numpy_integers():
    _, inc = UniformLM(np.int64(4)).extend((), 2)
    assert inc == -math.log(4)


def test_bigram_from_count_table():
    # counts {(a,b): 3, (a,c): 1} give p(b|a)=0.75, p(c|a)=0.25
    a, b, c = 0, 1, 2
    entries = {
        (a,): (math.log(1 / 3), 0.0),
        (b,): (math.log(1 / 3), 0.0),
        (c,): (math.log(1 / 3), 0.0),
        (a, b): (math.log(0.75), 0.0),
        (a, c): (math.log(0.25), 0.0),
    }
    lm = NgramLM(entries, order=2)
    state = lm.start_state()
    state, _ = lm.extend(state, a)
    _, inc = lm.extend(state, b)
    assert inc == pytest.approx(math.log(0.75), abs=1e-12)
    _, inc = lm.extend(state, c)
    assert inc == pytest.approx(math.log(0.25), abs=1e-12)


def test_ngram_state_keeps_order_minus_one_labels():
    lm = NgramLM({(0,): (-1.0, 0.0)}, order=2)
    state = lm.start_state()
    state, _ = lm.extend(state, 0)
    state, _ = lm.extend(state, 0)
    assert state == (0,)
    uni = NgramLM({(0,): (-1.0, 0.0)}, order=1)
    state, _ = uni.extend(uni.start_state(), 0)
    assert state == ()


def test_increments_are_nonpositive_for_proper_models():
    lm = UniformLM(4)
    _, inc = lm.extend((), 0)
    assert inc <= 0.0


def test_arpa_hand_arithmetic(tmp_path):
    path = write(tmp_path, HAND_ARPA)
    tok = {"a": 0, "b": 1, "c": 2}
    lm = ngram_load(path, tok)
    assert lm.order == 2
    state = lm.start_state()
    # unigram: 10^-0.3010299957 = 0.5
    state, inc = lm.extend(state, 0)
    assert inc == pytest.approx(math.log(0.5), abs=1e-9)
    # explicit bigram (a, b): 10^-0.15490196 = 0.7
    _, inc = lm.extend(state, 1)
    assert inc == pytest.approx(math.log(0.7), abs=1e-9)
    # backed-off (a, c): backoff(a) * p(c) = 10^-0.2 * 10^-1
    _, inc = lm.extend(state, 2)
    assert inc == pytest.approx(-1.2 * LN10, abs=1e-9)
    # history b has backoff 0.0, so (b, a) scores the plain unigram
    state_b, _ = lm.extend(lm.start_state(), 1)
    _, inc = lm.extend(state_b, 0)
    assert inc == pytest.approx(math.log(0.5), abs=1e-9)


def test_arpa_unknown_label_gets_unigram_floor(tmp_path):
    path = write(tmp_path, HAND_ARPA)
    lm = ngram_load(path, {"a": 0, "b": 1, "c": 2})
    _, inc = lm.extend(lm.start_state(), 99)
    assert inc == pytest.approx(-1.0 * LN10, abs=1e-12)


def test_arpa_bare_integer_ids(tmp_path):
    text = HAND_ARPA.replace(" a", " 0").replace(" b", " 1").replace(" c", " 2")
    lm = ngram_load(write(tmp_path, text))
    _, inc = lm.extend(lm.start_state(), 0)
    assert inc == pytest.approx(math.log(0.5), abs=1e-9)


def test_arpa_empty_bigram_section_collapses_to_unigram(tmp_path):
    text = """\\data\\
ngram 1=2
ngram 2=0

\\1-grams:
-0.3010299957 0
-0.3010299957 1

\\2-grams:

\\end\\
"""
    lm = ngram_load(write(tmp_path, text))
    assert lm.order == 1
    state, inc = lm.extend(lm.start_state(), 0)
    assert state == ()
    assert inc == pytest.approx(math.log(0.5), abs=1e-9)


def test_arpa_parse_errors_carry_line_numbers(tmp_path):
    bad_weight = HAND_ARPA.replace("-0.1549019600 a b", "x a b")
    with pytest.raises(ValueError, match=r"lm\.arpa:11: bad weight"):
        ngram_load(write(tmp_path, bad_weight), {"a": 0, "b": 1, "c": 2})
    bad_token = HAND_ARPA.replace("-1.0 c", "-1.0 zz")
    with pytest.raises(ValueError, match=r"lm\.arpa:8: unknown token 'zz'"):
        ngram_load(write(tmp_path, bad_token), {"a": 0, "b": 1, "c": 2})
    with pytest.raises(ValueError, match="missing"):
        ngram_load(write(tmp_path, "\\1-grams:\n-1.0 0\n\\end\\\n"))
    with pytest.raises(ValueError, match="declares no n-grams"):
        ngram_load(write(tmp_path, "\\data\\\nngram 1=0\n\\end\\\n"))
    with pytest.raises(ValueError, match=":2: expected 'ngram N=count'"):
        ngram_load(write(tmp_path, "\\data\\\nbogus\n\\end\\\n"))


def test_arpa_loading_is_deterministic(tmp_path):
    rng = np.random.default_rng(90)
    text = normalized_bigram_arpa(rng, ids=[0, 1, 2, 3])
    p = write(tmp_path, text)
    a = ngram_load(p)
    b = ngram_load(p)
    assert a.order == b.order
    assert a._entries == b._entries


def test_backoff_bigram_conditionals_normalize(tmp_path):
    rng = np.random.default_rng(91)
    ids = [0, 1, 2, 3, 4]
    lm = ngram_load(write(tmp_path, normalized_bigram_arpa(rng, ids)))
    for hist_label in ids:
        state, _ = lm.extend(lm.start_state(), hist_label)
        total = sum(math.exp(lm.extend(state, w)[1]) for w in ids)
        assert total == pytest.approx(1.0, abs=1e-6)
    total = sum(math.exp(lm.extend(lm.start_state(), w)[1]) for w in ids)
    assert total == pytest.approx(1.0, abs=1e-6)
