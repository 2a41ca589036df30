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


ARPA_HEAD = b"\\data\\\nngram 1=2\n\n\\1-grams:\n-0.3 a\n"


@pytest.mark.parametrize("data,message", [
    (ARPA_HEAD + b"-0.5 \xff\n\\end\\\n",
     f"not UTF-8 text: invalid start byte at byte {len(ARPA_HEAD) + 5}"),
    (ARPA_HEAD + b"-0.5\xa0b\n\\end\\\n",
     f"not UTF-8 text: invalid start byte at byte {len(ARPA_HEAD) + 4}"),
    (b"\\data\\\nngram 1=0\nngram 2=1\n\n\\2-grams:\n-0.3 a b\n\\end\\\n",
     "n-gram model has no unigrams"),
], ids=["token", "weight", "no-unigrams"])
def test_an_arpa_file_that_does_not_load_is_named_with_the_file(tmp_path, data, message):
    # each raised an error that named no file
    p = tmp_path / "lm.arpa"
    p.write_bytes(data)
    with pytest.raises(ValueError) as e:
        ngram_load(p, {"a": 0, "b": 1})
    assert str(e.value) == f"{p}: {message}"


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


def test_arpa_duplicate_ngram_is_refused(tmp_path):
    # the last of two equal n-grams used to win
    text = HAND_ARPA.replace("-0.1549019600 a b\n", "-0.1549019600 a b\n-0.5 a b\n")
    with pytest.raises(ValueError, match=r"lm\.arpa:12: duplicate 2-gram '-0\.5 a b'"):
        ngram_load(write(tmp_path, text), {"a": 0, "b": 1, "c": 2})
    unigram = HAND_ARPA.replace("-1.0 c\n", "-1.0 c\n-2.0 a\n")
    with pytest.raises(ValueError, match=r"lm\.arpa:9: duplicate 1-gram"):
        ngram_load(write(tmp_path, unigram), {"a": 0, "b": 1, "c": 2})


def test_arpa_ngrams_above_the_declared_order_are_refused(tmp_path):
    # \data\ declares orders 1-2; the model never reads a 3-gram
    text = HAND_ARPA.replace("\\end\\", "\\3-grams:\n-0.1 a b c\n\n\\end\\")
    with pytest.raises(ValueError, match=r"lm\.arpa:14: 3-gram above the order 2"):
        ngram_load(write(tmp_path, text), {"a": 0, "b": 1, "c": 2})
    # an empty section above the order holds nothing to refuse
    empty = HAND_ARPA.replace("\\end\\", "\\3-grams:\n\n\\end\\")
    assert ngram_load(write(tmp_path, empty), {"a": 0, "b": 1, "c": 2}).order == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "+inf", "NaN", "Infinity", "1e999"])
@pytest.mark.parametrize("line,field", [("-0.1549019600 a b", 0), ("-0.3010299957 a -0.2", 2)])
def test_arpa_nan_and_inf_weights_are_refused(tmp_path, bad, line, field):
    parts = line.split()
    parts[field] = bad
    lineno = HAND_ARPA.split("\n").index(line) + 1
    text = HAND_ARPA.replace(line, " ".join(parts))
    with pytest.raises(ValueError, match=rf"lm\.arpa:{lineno}: weight or back-off is NaN or \+inf"):
        ngram_load(write(tmp_path, text), {"a": 0, "b": 1, "c": 2})


def test_arpa_minus_inf_weight_is_probability_zero(tmp_path):
    text = HAND_ARPA.replace("-0.1549019600 a b", "-inf a b").replace("-1.0 c", "-1.0 c -inf")
    lm = ngram_load(write(tmp_path, text), {"a": 0, "b": 1, "c": 2})
    state, _ = lm.extend(lm.start_state(), 0)
    assert lm.extend(state, 1)[1] == -math.inf
    assert lm.extend(state, 2)[1] == pytest.approx(-1.2 * LN10, abs=1e-9)


def test_arpa_negative_integer_ids_are_refused(tmp_path):
    text = HAND_ARPA.replace(" a", " 0").replace(" b", " 1").replace(" c", " -2")
    with pytest.raises(ValueError, match=r"lm\.arpa:8: negative label id in '-1\.0 -2'"):
        ngram_load(write(tmp_path, text))


def load_module(name, relpath):
    """A repository script or module, imported from its file."""
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parent.parent / relpath
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_arpa_files_the_repository_writes_still_load(tmp_path):
    tokens = {f"w{i:02d}": i + 2 for i in range(28)}
    bench = load_module("perfbench_workloads", "perfbench/workloads.py")
    bench._write_bigram_arpa(tmp_path / "bench.arpa", list(tokens), np.random.default_rng(3))
    assert ngram_load(tmp_path / "bench.arpa", tokens).order == 2
    toy = load_module("make_toy_model", "scripts/make_toy_model.py")
    toy.write_uniform_bigram(tmp_path / "toy.arpa", ["a", "b", "c"])
    lm = ngram_load(tmp_path / "toy.arpa", {"a": 2, "b": 3, "c": 4})
    assert lm.extend((2,), 3)[1] == pytest.approx(-math.log(3), abs=1e-5)
