import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamasr.encoder import FeatureMatrix
from streamasr.modelio import (_HEAD_READ, _SCHEMA, EOS_TOKEN, SOS_TOKEN, Vocab, _model,
                               _symbols, _tensors,
                               load_features, load_model, load_vocab, random_features,
                               random_model, save_model, save_vocab, toy_vocab,
                               write_features)


def unchecked_model(**kw):
    """A model whose header holds random_model's default dims updated by
    ``kw`` and whose tensors are zeros of the shapes those give, built
    without the header rules, so that its archive can break them."""
    dims = {**dict(e_layers=2, d_layers=1, d_model=16, d_ff=32, heads=4, vocab=5, d_feat=8),
            **kw}
    sym = _symbols(dims, max(1, dims["d_model"] // 4), max(1, dims["d_model"] // 2))
    return _model(dims, 0, 1, sym, lambda name, shape, init: np.zeros(shape, dtype=np.float32))


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
        post = posteriorgram_from_states(enc, model.ctc_w, model.ctc_b)
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
    save_model(bad, unchecked_model(d_model=0, heads=1))
    with pytest.raises(ValueError, match="dimension d_model is 0"):
        load_model(bad)
    save_model(bad, unchecked_model(e_layers=-3))
    with pytest.raises(ValueError, match="dimension e_layers is -3"):
        load_model(bad)

    # negative conv channels are rejected by tensor name, even when every
    # shape agrees with them and the payload is trimmed to their total
    ch2 = m.encoder.cnn.conv2_w.shape[0]
    negative = {"cnn.conv1_w": (-1, 1, 3, 3), "cnn.conv1_b": (-1,), "cnn.conv2_w": (ch2, -1, 3, 3)}
    lines, drop = [], 0
    for ln in tensor_lines:
        name, dims = ln.split(" ", 1)
        if name in negative:
            drop += np.prod([int(d) for d in dims.split(",")]) - np.prod(negative[name])
            ln = f"{name} {','.join(str(d) for d in negative[name])}"
        lines.append(ln)
    bad.write_bytes(join_archive(head, lines, blob[:len(blob) - 4 * int(drop)]))
    with pytest.raises(ValueError, match="tensor cnn.conv1_w has -1 output channels"):
        load_model(bad)


# random_model arguments that break a header rule, the line of a default
# archive edited to say the same, and the message both must give
REFUSED_HEADERS = [
    (dict(heads=3), b"heads 4", b"heads 3", "d_model 16 not divisible by heads 3"),
    (dict(heads=0), b"heads 4", b"heads 0", "d_model 16 not divisible by heads 0"),
    (dict(vocab_size=1), b"vocab 5", b"vocab 1", "eos_id 1 outside vocabulary"),
    (dict(d_model=0), b"d_model 16", b"d_model 0", "dimension d_model is 0, must be at least 1"),
    (dict(d_feat=0), b"d_feat 8", b"d_feat 0", "dimension d_feat is 0, must be at least 1"),
    (dict(e_layers=-1), b"e_layers 2", b"e_layers -1",
     "dimension e_layers is -1, must be at least 0"),
    (dict(ch1=0), b"cnn.conv1_w 4,1,3,3", b"cnn.conv1_w 0,1,3,3",
     "tensor cnn.conv1_w has 0 output channels, must be at least 1"),
    (dict(ch2=0), b"cnn.conv2_w 8,4,3,3", b"cnn.conv2_w 0,4,3,3",
     "tensor cnn.conv2_w has 0 output channels, must be at least 1"),
]


@pytest.mark.parametrize("kw,line,edited,message", REFUSED_HEADERS,
                         ids=[edited.decode() for _, _, edited, _ in REFUSED_HEADERS])
def test_random_model_refuses_what_load_model_refuses(tmp_path, kw, line, edited, message):
    # random_model used to build these, and load_model refused their
    # archives (heads 0 raised ZeroDivisionError instead)
    path = tmp_path / "m.model"
    save_model(path, random_model(0))
    raw = path.read_bytes()
    assert raw.count(b"\n" + line + b"\n") == 1
    path.write_bytes(raw.replace(b"\n" + line + b"\n", b"\n" + edited + b"\n"))
    with pytest.raises(ValueError) as loaded:
        load_model(path)
    assert str(loaded.value) == f"{path}: {message}"
    with pytest.raises(ValueError) as built:
        random_model(0, **kw)
    assert str(built.value) == message


@pytest.mark.parametrize("kw", [
    dict(d_model=1, heads=1, d_feat=1, d_ff=0, e_layers=0, d_layers=0, ch1=1, ch2=1),
    dict(vocab_size=1, with_eos=False),
    dict(vocab_size=2),
    dict(d_model=12, heads=3, d_feat=5, ch1=2, ch2=7),
    dict(d_model=6, heads=6, e_layers=1, d_layers=3),
])
def test_random_models_at_the_edges_of_the_header_rules_round_trip(tmp_path, kw):
    m = random_model(5, **kw)
    save_model(tmp_path / "a.model", m)
    back = load_model(tmp_path / "a.model")
    save_model(tmp_path / "b.model", back)
    assert (tmp_path / "a.model").read_bytes() == (tmp_path / "b.model").read_bytes()
    assert (back.d_model, back.heads, back.vocab_size, back.d_feat) == \
        (m.d_model, m.heads, m.vocab_size, m.d_feat)


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


@pytest.mark.parametrize("ids", [[-1, 2], [2, 5], [2.0]])
def test_vocab_detokenize_rejects_ids_outside_the_vocabulary(ids):
    # -1 used to read the last token, 5 and 2.0 raised IndexError/TypeError
    with pytest.raises(ValueError, match="outside the vocabulary"):
        toy_vocab(3).detokenize(ids)
    assert toy_vocab(3).detokenize(np.array([2, 3])) == toy_vocab(3).detokenize([2, 3])


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


@pytest.mark.parametrize("tokens, boundary, match", [
    (["#boundary x", SOS_TOKEN, "a"], None, "'#boundary x' would read as the boundary line"),
    ([SOS_TOKEN, "a\nb"], None, "'a\\nb' holds a line break"),
    ([SOS_TOKEN, "a\r"], None, "'a\\r' holds a line break"),
    ([SOS_TOKEN, "a", ""], None, "token 2 would be an empty token line"),
    ([SOS_TOKEN, "a"], "\n", "'#boundary \\n' holds a line break"),
    ([SOS_TOKEN, "a"], "_\r", "'#boundary _\\r' holds a line break"),
])
def test_save_vocab_refuses_what_would_not_read_back(tmp_path, tokens, boundary, match):
    # each used to write a file that load_vocab read back as another
    # vocabulary, shifting label ids, or refused
    p = tmp_path / "v.vocab"
    with pytest.raises(ValueError, match=re.escape(match)):
        save_vocab(p, Vocab(tokens, boundary))
    assert not p.exists()


@pytest.mark.parametrize("vocab", [
    toy_vocab(), toy_vocab(4, boundary="_"), toy_vocab(2, with_eos=False),
    Vocab(["#boundary x", SOS_TOKEN, "a"], boundary="_"),
    Vocab([SOS_TOKEN, "#boundary", "é"], boundary="▁"),
])
def test_save_vocab_writes_what_reads_back(tmp_path, vocab):
    # a first token like the boundary line is written under a declared
    # boundary, where it is the second line
    p = tmp_path / "v.vocab"
    save_vocab(p, vocab)
    back = load_vocab(p)
    assert back.tokens == vocab.tokens and back.boundary == vocab.boundary


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
    with pytest.raises(ValueError, match="non-finite"):
        write_features(p, FeatureMatrix(frames))
    assert not p.exists()
    p.write_bytes(b"FEATS v1\n3 2 10.0\n" + frames.astype("<f4").tobytes())
    with pytest.raises(ValueError, match="non-finite"):
        load_features(p)


@pytest.mark.parametrize("frames, shift, match", [
    (np.zeros((2, 3)), 0.0, "frame shift must be positive and finite, got 0.0"),
    (np.zeros((2, 3)), -10.0, "frame shift must be positive and finite, got -10.0"),
    (np.zeros((2, 3)), math.nan, "frame shift must be positive and finite, got nan"),
    (np.zeros((2, 3)), math.inf, "frame shift must be positive and finite, got inf"),
    (np.zeros((2, 3)), True, "frame shift must be positive and finite, got True"),
    (np.zeros((0, 3)), 10.0, "empty utterance"),
    (np.zeros(3), 10.0, r"features of shape \(3,\), expected \(frames, d_feat\)"),
    (np.zeros((2, 3, 1)), 10.0, r"features of shape \(2, 3, 1\)"),
    (np.full((2, 3), 1e39), 10.0, "non-finite feature values"),  # past float32's range
])
def test_write_features_refuses_what_load_features_refuses(tmp_path, frames, shift, match):
    # each used to write a file that load_features refuses; the 1-D
    # matrix raised IndexError
    p = tmp_path / "u.feats"
    with pytest.raises(ValueError, match=match):
        write_features(p, FeatureMatrix(frames, shift))
    assert not p.exists()


def test_a_numpy_frame_shift_is_written_as_a_number(tmp_path):
    # its repr, "np.float64(12.5)", used to go into the header
    p = tmp_path / "u.feats"
    write_features(p, random_features(148, 3, 2, frame_shift_ms=np.float64(12.5)))
    assert load_features(p).frame_shift_ms == 12.5


@pytest.mark.parametrize("shift", ["0.0", "-10.0", "nan", "inf"])
def test_features_with_a_bad_frame_shift_are_rejected(tmp_path, shift):
    p = tmp_path / "u.feats"
    p.write_bytes(f"FEATS v1\n2 3 {shift}\n".encode("ascii") + b"\x00" * 24)
    msg = re.escape(f"{p}: frame shift must be positive and finite")
    with pytest.raises(ValueError, match=msg):
        load_features(p)


def test_model_stores_d_feat_once_on_the_encoder(tmp_path):
    m = random_model(147, d_feat=6, d_model=8, heads=2, vocab_size=4)
    assert m.encoder.d_feat == m.d_feat == 6
    save_model(tmp_path / "m.model", m)
    back = load_model(tmp_path / "m.model")
    assert back.encoder.d_feat == back.d_feat == 6


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


def loaded_tensors(m):
    """(archive name, array) for every tensor of m, in schema order."""
    return list(_tensors(_SCHEMA, "", m))


def test_loaded_tensors_equal_the_saved_arrays_bit_for_bit(tmp_path):
    m = random_model(150, d_feat=6, d_model=8, heads=2, vocab_size=5)
    m.ctc_b[1] = -np.inf  # a special value travels through the payload too
    save_model(tmp_path / "m.model", m)
    want, got = loaded_tensors(m), loaded_tensors(load_model(tmp_path / "m.model"))
    assert [n for n, _ in got] == [n for n, _ in want]
    for (name, a), (_, b) in zip(want, got):
        assert b.dtype == np.float32 and b.shape == a.shape, name
        assert np.array_equal(b.view(np.uint32), a.view(np.uint32)), name


def test_loaded_tensors_are_aligned_read_only_views_no_load_shares(tmp_path):
    p = tmp_path / "m.model"
    save_model(p, random_model(151, d_feat=6, d_model=8, heads=2, vocab_size=5))
    first, second = loaded_tensors(load_model(p)), loaded_tensors(load_model(p))
    for name, a in first:
        assert not a.flags.writeable, name
        with pytest.raises(ValueError):
            a.setflags(write=True)
        # at least np.empty's alignment, so kernels see what they saw
        assert a.ctypes.data % 16 == 0, name
    # no cache outlives a load: the second load holds its own memory
    for _, a in first:
        for _, b in second:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("kw,long_header", [
    (dict(e_layers=60, d_feat=3, d_model=2, d_ff=2, heads=1, vocab_size=3), True),
    (dict(e_layers=1, d_feat=40, d_model=64, d_ff=256, heads=4, vocab_size=30), False),
], ids=["header-longer-than-the-first-read", "payload-longer-than-the-first-read"])
def test_archive_loads_whatever_its_header_and_payload_sizes(tmp_path, kw, long_header):
    m = random_model(152, **kw)
    p = tmp_path / "m.model"
    save_model(p, m)
    raw = p.read_bytes()
    assert (raw.index(b"\ndata\n") if long_header else len(raw)) > _HEAD_READ
    for (name, a), (_, b) in zip(loaded_tensors(m), loaded_tensors(load_model(p))):
        assert np.array_equal(b.view(np.uint32), a.view(np.uint32)), name


class ShortReads:
    """A binary file whose reads return at most ``limit`` bytes, as a
    read past the system's single-read limit or some file systems do;
    after ``stop_after`` bytes every read returns nothing."""

    def __init__(self, path, limit, stop_after=None):
        self._f = open(path, "rb", buffering=0)
        self.limit, self.left = limit, stop_after

    def _take(self, n):
        n = min(n, self.limit)
        if self.left is not None:
            n = min(n, self.left)
            self.left -= n
        return n

    def read(self, n=-1):
        if n is None or n < 0:
            n = self.limit
        return self._f.read(self._take(n))

    def readinto(self, b):
        mv = memoryview(b).cast("B")
        return self._f.readinto(mv[:self._take(len(mv))])

    def fileno(self):
        return self._f.fileno()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


@pytest.mark.parametrize("limit", [13, 777, 4096])
def test_archive_loads_bit_for_bit_through_short_reads(tmp_path, monkeypatch, limit):
    m = random_model(153, e_layers=1, d_feat=40, d_model=64, d_ff=256, heads=4, vocab_size=30)
    p = tmp_path / "m.model"
    save_model(p, m)
    monkeypatch.setattr("streamasr.modelio.open", lambda path, *a, **k: ShortReads(path, limit),
                        raising=False)
    for (name, a), (_, b) in zip(loaded_tensors(m), loaded_tensors(load_model(p))):
        assert np.array_equal(b.view(np.uint32), a.view(np.uint32)), name


def test_a_payload_whose_reads_stop_early_is_refused(tmp_path, monkeypatch):
    p = tmp_path / "m.model"
    save_model(p, random_model(154, d_feat=6, d_model=8, heads=2, vocab_size=5))
    size = p.stat().st_size
    monkeypatch.setattr("streamasr.modelio.open",
                        lambda path, *a, **k: ShortReads(path, 4096, stop_after=size - 4),
                        raising=False)
    with pytest.raises(ValueError, match="payload ended early"):
        load_model(p)
