"""Loaders fed truncated and byte-corrupted copies of valid files.

Whatever the damage, a loader either returns or raises ValueError that
names the file; any other exception is a crash a caller could not have
anticipated.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamasr.lm import ngram_load
from streamasr.modelio import (load_features, load_model, load_vocab, random_features, save_model,
                               save_vocab, toy_vocab, write_features)
from helpers import normalized_bigram_arpa, tiny_model

# bytes that keep a damaged text header parseable far enough to reach the
# later checks, next to arbitrary ones
HEADER_BYTES = st.sampled_from(b"0123456789-+.,:= \n\\")


def damaged(raw):
    """Strategy: raw cut short, or with one to four bytes overwritten."""
    cut = st.integers(0, len(raw) - 1).map(lambda n: raw[:n])
    edit = st.tuples(st.integers(0, len(raw) - 1), st.one_of(HEADER_BYTES, st.integers(0, 255)))

    def apply(edits):
        out = bytearray(raw)
        for i, byte in edits:
            out[i] = byte
        return bytes(out)

    return st.one_of(cut, st.lists(edit, min_size=1, max_size=4).map(apply))


def valid_files(d):
    rng = np.random.default_rng(160)
    save_model(d / "model", tiny_model(161))
    write_features(d / "feats", random_features(162, 15, 4))
    (d / "lm").write_text(normalized_bigram_arpa(rng, range(1, 6)))
    save_vocab(d / "vocab", toy_vocab(4, boundary="_"))
    return {name: (d / name).read_bytes() for name in ("model", "feats", "lm", "vocab")}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """(directory, {name: bytes of a valid file of that kind})"""
    d = tmp_path_factory.mktemp("fuzz")
    return d, valid_files(d)


def loads_or_rejects(load, path, data):
    path.write_bytes(data)
    try:
        load(path)
    except ValueError as e:
        assert str(e).startswith(f"{path}:"), e


LOADERS = [("model", load_model), ("feats", load_features), ("lm", ngram_load),
           ("vocab", load_vocab)]


@pytest.mark.parametrize("name,load", LOADERS)
def test_valid_files_load(files, name, load):
    load(files[0] / name)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name,load", LOADERS)
def test_damaged_file_raises_only_value_error(files, name, load, data):
    d, raw = files
    loads_or_rejects(load, d / "damaged", data.draw(damaged(raw[name])))
