import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamasr.encoder import FeatureMatrix
from streamasr.modelio import (EOS_TOKEN, SOS_TOKEN, Vocab, load_features,
                               load_model, load_vocab, random_features,
                               random_model, save_model, save_vocab, toy_vocab,
                               write_features)


def test_model_archive_round_trip_is_byte_stable(tmp_path):
    m = random_model(140, d_model=8, heads=2, vocab_size=4)
    p1 = tmp_path / "a.model"
    p2 = tmp_path / "b.model"
    save_model(p1, m)
    back = load_model(p1)
    save_model(p2, back)
    assert p1.read_bytes() == p2.read_bytes()
    assert back.d_model == m.d_model
    assert back.sos_id == m.sos_id and back.eos_id == m.eos_id
    assert np.array_equal(back.ctc_w, m.ctc_w)
    assert np.array_equal(back.encoder.cnn.conv1_w, m.encoder.cnn.conv1_w)
    assert np.array_equal(back.decoder.layers[0].src_mha.w_q,
                          m.decoder.layers[0].src_mha.w_q)


def test_loaded_model_decodes_identically(tmp_path):
    from streamasr.ctc import posteriorgram_from_states
    from streamasr.encoder import encode
    from streamasr.lm import UniformLM
    from streamasr.search import DecodeParams, decode

    m = random_model(141, d_feat=4, d_model=8, heads=2, e_layers=2, vocab_size=5)
    p = tmp_path / "m.model"
    save_model(p, m)
    back = load_model(p)
    feats = random_features(142, 15, 4)
    params = DecodeParams(k_size=8, p_size=4, eps_dec=2)
    outs = []
    for model in (m, back):
        enc = encode(feats, model.encoder, 1)
        post = posteriorgram_from_states(enc.states, model.ctc_w, model.ctc_b)
        outs.append(decode(enc, post, UniformLM(3), model.decoder, params))
    assert outs[0].labels == outs[1].labels
    assert outs[0].score == outs[1].score
    assert outs[0].trace == outs[1].trace


def split_archive(raw):
    """(head_lines, tensor_lines, blob): the text header around the tensor
    table and the raw payload that follows the data marker."""
    text_end = raw.index(b"data\n") + len(b"data\n")
    lines = raw[:text_end].decode("ascii").split("\n")[:-1]
    n_idx = next(i for i, ln in enumerate(lines) if ln.startswith("tensors "))
    return lines[:n_idx], lines[n_idx + 1:-1], raw[text_end:]


def join_archive(head, tensor_lines, blob):
    lines = head + [f"tensors {len(tensor_lines)}"] + tensor_lines + ["data"]
    return ("\n".join(lines) + "\n").encode("ascii") + blob


def blob_span(tensor_lines, target):
    off = 0
    for ln in sorted(tensor_lines):
        name, dims = ln.split(" ", 1)
        count = int(np.prod([int(d) for d in dims.split(",")])) * 4
        if name == target:
            return off, off + count
        off += count
    raise AssertionError(f"tensor {target} not in archive")


def test_model_archive_error_paths(tmp_path):
    m = random_model(143, d_model=8, heads=2, vocab_size=4)
    p = tmp_path / "m.model"
    save_model(p, m)
    raw = p.read_bytes()
    head, tensor_lines, blob = split_archive(raw)
    bad = tmp_path / "bad.model"

    bad.write_bytes(b"WRONG v9\n" + raw.split(b"\n", 1)[1])
    with pytest.raises(ValueError, match="bad magic"):
        load_model(bad)

    bad.write_bytes(raw[:40])
    with pytest.raises(ValueError, match="truncated header"):
        load_model(bad)

    # a dropped tensor is reported by name
    lo, hi = blob_span(tensor_lines, "ctc.w")
    kept = [ln for ln in tensor_lines if not ln.startswith("ctc.w ")]
    bad.write_bytes(join_archive(head, kept, blob[:lo] + blob[hi:]))
    with pytest.raises(ValueError, match="missing tensor ctc.w"):
        load_model(bad)

    # a reshaped tensor is reported by name with both shapes
    reshaped = [ln.replace("ctc.w 8,5", "ctc.w 8,6") for ln in tensor_lines]
    assert reshaped != tensor_lines
    bad.write_bytes(join_archive(head, reshaped, blob))
    with pytest.raises(ValueError, match=r"tensor ctc.w: shape \(8, 6\)"):
        load_model(bad)

    # an extra tensor is rejected by name
    bad.write_bytes(join_archive(head, tensor_lines + ["zz.extra 2,2"], blob))
    with pytest.raises(ValueError, match="unexpected tensor zz.extra"):
        load_model(bad)

    # short payload
    bad.write_bytes(join_archive(head, tensor_lines, blob[:-8]))
    with pytest.raises(ValueError, match="payload is"):
        load_model(bad)

    # zero heads is rejected, not divided by
    bad.write_bytes(raw.replace(b"\nheads 2\n", b"\nheads 0\n", 1))
    with pytest.raises(ValueError, match="heads 0"):
        load_model(bad)

    # degenerate dimensions are rejected by name, even with matching tensors
    save_model(bad, random_model(147, d_model=0, heads=1))
    with pytest.raises(ValueError, match="dimension d_model is 0"):
        load_model(bad)
    save_model(bad, random_model(148, e_layers=-3))
    with pytest.raises(ValueError, match="dimension e_layers is -3"):
        load_model(bad)


# sha256 of save_model(random_model(seed, **kw)): a change to random_model's
# draw order or initializers, or to the archive format, changes these
GOLDEN_ARCHIVES = [
    (0, {}, "9c3a6107e9531c0bec17180308a055dd56c935c026dda5b8a0d8de0b2a448d79"),
    (1, dict(d_feat=40, d_model=64, d_ff=256, heads=4, e_layers=6, d_layers=2, vocab_size=30),
     "45835f77d5956d650347ac4072cf76cdbd7a501583342e171e3df69ad7e4d6ba"),
    (2, dict(with_eos=False), "2627e29eeab17864fbb7c73a05499580fb04d87d7b25245001678ce573d66610"),
    (3, dict(ch1=3, ch2=5, e_layers=0, d_layers=0),
     "927ecf3a182c7ea8e44856ca8d0425986db4635ec3ecea2a675c2d47b5b3dab7"),
]


@pytest.mark.parametrize("seed,kw,digest", GOLDEN_ARCHIVES)
def test_random_model_archive_bytes_are_pinned(tmp_path, seed, kw, digest):
    p = tmp_path / "m.model"
    save_model(p, random_model(seed, **kw))
    assert hashlib.sha256(p.read_bytes()).hexdigest() == digest


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d_feat=st.integers(0, 7).map(lambda n: 2 * n + 1),
       heads=st.sampled_from([1, 2, 4]), d_k=st.integers(1, 3), d_ff=st.integers(1, 8),
       e_layers=st.integers(0, 2), d_layers=st.integers(0, 2), vocab_size=st.integers(2, 6),
       with_eos=st.booleans())
def test_random_model_archives_load_and_round_trip(tmp_path_factory, seed, d_feat, heads, d_k,
                                                   d_ff, e_layers, d_layers, vocab_size, with_eos):
    d = tmp_path_factory.mktemp("rt")
    m = random_model(seed, d_feat=d_feat, d_model=heads * d_k, d_ff=d_ff, heads=heads,
                     e_layers=e_layers, d_layers=d_layers, vocab_size=vocab_size,
                     with_eos=with_eos)
    save_model(d / "a.model", m)
    save_model(d / "b.model", load_model(d / "a.model"))
    assert (d / "a.model").read_bytes() == (d / "b.model").read_bytes()


def test_model_without_eos_round_trips(tmp_path):
    m = random_model(146, d_model=8, heads=2, vocab_size=4, with_eos=False)
    p = tmp_path / "m.model"
    save_model(p, m)
    back = load_model(p)
    assert back.eos_id is None
    assert back.sos_id == m.sos_id


def test_vocab_basics_and_errors():
    v = toy_vocab(3)
    assert v.tokens[0] == SOS_TOKEN
    assert v.tokens[1] == EOS_TOKEN
    assert v.sos_id == 0 and v.eos_id == 1
    assert v.reserved_ids() == {0, 1}
    with pytest.raises(ValueError, match="duplicate token"):
        Vocab([SOS_TOKEN, "a", "a"])
    with pytest.raises(ValueError, match=SOS_TOKEN):
        Vocab(["a", "b"])


def test_vocab_detokenize_with_boundary():
    # the boundary marker flags word starts, so pieces glue together
    # and the marker becomes the separating space
    v = Vocab([SOS_TOKEN, EOS_TOKEN, "_he", "llo", "_it"], boundary="_")
    assert v.detokenize([2, 3, 4]) == "hello it"
    plain = Vocab([SOS_TOKEN, "ab", "cd"])
    assert plain.detokenize([1, 2]) == "abcd"


def test_vocab_file_round_trip(tmp_path):
    v = Vocab([SOS_TOKEN, EOS_TOKEN, "_a", "_b", "c"], boundary="_")
    p = tmp_path / "v.vocab"
    save_vocab(p, v)
    back = load_vocab(p)
    assert back.tokens == v.tokens
    assert back.boundary == v.boundary
    p2 = tmp_path / "plain.vocab"
    save_vocab(p2, Vocab([SOS_TOKEN, "x"]))
    assert load_vocab(p2).boundary is None


def test_vocab_file_rejects_empty_line(tmp_path):
    p = tmp_path / "v.vocab"
    p.write_text(f"{SOS_TOKEN}\n\nx\n")
    with pytest.raises(ValueError, match=r"v\.vocab:2: empty token line"):
        load_vocab(p)


def test_features_round_trip(tmp_path):
    feats = random_features(144, 9, 6, frame_shift_ms=12.5)
    p = tmp_path / "u.feats"
    write_features(p, feats)
    back = load_features(p)
    assert isinstance(back, FeatureMatrix)
    assert back.frame_shift_ms == 12.5
    assert np.array_equal(back.frames, feats.frames)


def test_features_errors(tmp_path):
    p = tmp_path / "u.feats"
    write_features(p, FeatureMatrix(np.zeros((2, 3), dtype=np.float32)))
    raw = p.read_bytes()
    p.write_bytes(raw[:-4])
    with pytest.raises(ValueError, match="payload is 20 bytes, expected 24"):
        load_features(p)
    p.write_bytes(b"FEATS v1\n0 3 10.0\n")
    with pytest.raises(ValueError, match="empty utterance"):
        load_features(p)
    p.write_bytes(b"NOPE v1\n2 3 10.0\n" + b"\x00" * 24)
    with pytest.raises(ValueError, match="magic"):
        load_features(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_features_with_non_finite_values_are_rejected(tmp_path, bad):
    frames = np.zeros((3, 2), dtype=np.float32)
    frames[1, 0] = bad
    p = tmp_path / "u.feats"
    write_features(p, FeatureMatrix(frames))
    with pytest.raises(ValueError, match="non-finite"):
        load_features(p)


def test_loaded_model_weights_are_read_only(tmp_path):
    p = tmp_path / "m.model"
    save_model(p, random_model(146, d_model=8, heads=2, vocab_size=4))
    m = load_model(p)
    for w in (m.decoder.embed, m.decoder.layers[0].src_mha.w_k, m.encoder.cnn.proj_w, m.ctc_b):
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 0.0


def test_random_features_deterministic():
    a = random_features(145, 7, 5)
    b = random_features(145, 7, 5)
    assert np.array_equal(a.frames, b.frames)
    assert a.frames.dtype == np.float32
