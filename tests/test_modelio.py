import numpy as np
import pytest

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
