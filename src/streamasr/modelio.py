"""Portable file formats: model archives, vocabularies, feature matrices.

The model archive is a self-describing text manifest followed by raw
tensor bytes:

    STREAMASR v1
    e_layers 2
    d_layers 1
    d_model 16
    d_ff 32
    heads 4
    vocab 5
    d_feat 8
    sos_id 0
    eos_id 1
    tensors 40
    cnn.conv1_b 3
    cnn.conv1_w 3,1,3,3
    ...
    data
    <row-major float32 little-endian blobs, in manifest order>

Tensors are listed and stored sorted by name so that an archive written
by save_model is byte-reproducible.  Vocabulary files hold one token per
line (line index = label id) with an optional ``#boundary X`` first line
declaring the word-boundary marker used for detokenization; the CTC
output layer prepends a blank at column 0, so posterior column k maps to
label id k - 1.  Feature files are ``FEATS v1`` with a frame count, a
feature width, a frame shift, and float32 rows.

One table, ``_SCHEMA``, names every tensor once: its archive name, the
dataclass field it fills, its shape in the header dims (and d_k and the
conv channels ch1, ch2), and its random initializer.  save_model,
load_model's shape checks and assembly, random_model and
``kernels.check_model_dtype`` (the float32 check) all walk it.
Its row order is random_model's draw order, so reordering rows changes
every random model's weights (tests pin them by archive hash).

load_model reads an archive once: the header from the first read, then
the payload straight into one buffer, each tensor a read-only view of it
that starts on a 64-byte boundary.  One walk of the schema both lists
the shapes the header must declare and assembles the model from the
views.
"""

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .attention import MhaParams
from .ctc import check_labels
from .decoder import DecoderLayerParams, DecoderParams
from .encoder import CnnParams, EncoderLayerParams, EncoderParams, FeatureMatrix
from .kernels import is_real

MODEL_MAGIC = "STREAMASR v1"
FEATS_MAGIC = "FEATS v1"
SOS_TOKEN = "<sos>"
EOS_TOKEN = "<eos>"


# ---------------------------------------------------------------- vocabulary


@dataclass
class Vocab:
    """Token inventory; line index in the file is the label id."""

    tokens: list
    boundary: str | None = None

    def __post_init__(self):
        if len(set(self.tokens)) != len(self.tokens):
            dup = sorted(t for t in set(self.tokens) if self.tokens.count(t) > 1)
            raise ValueError(f"duplicate token {dup[0]!r}")
        if SOS_TOKEN not in self.tokens:
            raise ValueError(f"vocabulary lacks {SOS_TOKEN}")
        self.token_to_id = {t: i for i, t in enumerate(self.tokens)}
        self.sos_id = self.token_to_id[SOS_TOKEN]
        self.eos_id = self.token_to_id.get(EOS_TOKEN)

    def __len__(self):
        return len(self.tokens)

    def reserved_ids(self):
        ids = {self.sos_id}
        if self.eos_id is not None:
            ids.add(self.eos_id)
        return ids

    def detokenize(self, ids):
        """Label ids -> text: concatenate pieces, then turn the declared
        boundary marker into spaces.  Reserved ids are dropped; an id
        outside the vocabulary raises ``ValueError``."""
        ids = list(ids)
        check_labels(ids, 0, len(self.tokens), "the vocabulary")
        reserved = self.reserved_ids()
        pieces = [self.tokens[i] for i in ids if i not in reserved]
        text = "".join(pieces)
        if self.boundary:
            text = text.replace(self.boundary, " ").strip()
        return text


def load_vocab(path):
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    boundary = None
    if lines and lines[0].startswith("#boundary "):
        boundary = lines[0][len("#boundary "):]
        lines = lines[1:]
    for i, tok in enumerate(lines):
        if tok == "":
            raise ValueError(f"{path}:{i + 1}: empty token line")
    return Vocab(lines, boundary)


def save_vocab(path, vocab):
    """Write ``vocab`` as :func:`load_vocab` reads it back; what would read
    back otherwise raises ``ValueError`` before the file is opened."""
    boundary = vocab.boundary
    lines = ([f"#boundary {boundary}"] if boundary else []) + vocab.tokens
    for i, line in enumerate(lines):
        if "\n" in line or "\r" in line:
            raise ValueError(f"{path}: {line!r} holds a line break")
        if not line:
            raise ValueError(f"{path}: token {i - bool(boundary)} would be an empty token line")
    if not boundary and lines[0].startswith("#boundary "):
        raise ValueError(f"{path}: first token {lines[0]!r} would read as the boundary line")
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    with open(path, "wb") as f:
        f.write(data)


# ------------------------------------------------------------------- model


@dataclass
class ModelParams:
    """Everything a recognizer needs: front end + encoder, decoder, CTC head."""

    d_model: int
    d_ff: int
    heads: int
    e_layers: int
    d_layers: int
    vocab_size: int
    encoder: EncoderParams
    decoder: DecoderParams
    ctc_w: np.ndarray
    ctc_b: np.ndarray

    @property
    def d_feat(self):
        return self.encoder.d_feat

    @property
    def sos_id(self):
        return self.decoder.sos_id

    @property
    def eos_id(self):
        return self.decoder.eos_id


class _Block(NamedTuple):
    """A nested dataclass and the schema rows of its fields."""

    cls: type
    rows: tuple


# The tensor schema.  A row is (archive name, dataclass field, shape,
# initializer kind) for a tensor, or (name prefix, field, _Block, layer-count
# dim or None) for a nested block; a counted block repeats as name0., name1.,
# ...  Shape entries are ints or symbols from _symbols.  Rows are in
# random_model's draw order; save_model sorts by name, so this order never
# reaches the archive.
_MHA = _Block(MhaParams, (
    ("w_q", "w_q", ("heads", "d_model", "d_k"), "w"),
    ("w_k", "w_k", ("heads", "d_model", "d_k"), "w"),
    ("w_v", "w_v", ("heads", "d_model", "d_k"), "w"),
    ("w_h", "w_h", ("heads*d_k", "d_model"), "w"),
))
_CNN = _Block(CnnParams, (
    ("conv1_w", "conv1_w", ("ch1", 1, 3, 3), "conv"),
    ("conv1_b", "conv1_b", ("ch1",), "bias"),
    ("conv2_w", "conv2_w", ("ch2", "ch1", 3, 3), "conv"),
    ("conv2_b", "conv2_b", ("ch2",), "bias"),
    ("proj_w", "proj_w", ("ch2*f2", "d_model"), "w"),
    ("proj_b", "proj_b", ("d_model",), "bias"),
))
_ENC_LAYER = _Block(EncoderLayerParams, (
    ("att.", "mha", _MHA, None),
    ("norm1_g", "norm1_g", ("d_model",), "gain"),
    ("norm1_b", "norm1_b", ("d_model",), "bias"),
    ("ff1_w", "ff1_w", ("d_model", "d_ff"), "w"),
    ("ff1_b", "ff1_b", ("d_ff",), "bias"),
    ("ff2_w", "ff2_w", ("d_ff", "d_model"), "w"),
    ("ff2_b", "ff2_b", ("d_model",), "bias"),
    ("norm2_g", "norm2_g", ("d_model",), "gain"),
    ("norm2_b", "norm2_b", ("d_model",), "bias"),
))
_DEC_LAYER = _Block(DecoderLayerParams, (
    ("self_att.", "self_mha", _MHA, None),
    ("src_att.", "src_mha", _MHA, None),
    ("norm1_g", "norm1_g", ("d_model",), "gain"),
    ("norm1_b", "norm1_b", ("d_model",), "bias"),
    ("norm2_g", "norm2_g", ("d_model",), "gain"),
    ("norm2_b", "norm2_b", ("d_model",), "bias"),
    ("norm3_g", "norm3_g", ("d_model",), "gain"),
    ("norm3_b", "norm3_b", ("d_model",), "bias"),
    ("ff1_w", "ff1_w", ("d_model", "d_ff"), "w"),
    ("ff1_b", "ff1_b", ("d_ff",), "bias"),
    ("ff2_w", "ff2_w", ("d_ff", "d_model"), "w"),
    ("ff2_b", "ff2_b", ("d_model",), "bias"),
))
_SCHEMA = (
    ("", "encoder", _Block(EncoderParams, (
        ("cnn.", "cnn", _CNN, None),
        ("enc.layer", "layers", _ENC_LAYER, "e_layers"),
        ("enc.final_norm_g", "final_norm_g", ("d_model",), "gain"),
        ("enc.final_norm_b", "final_norm_b", ("d_model",), "bias"),
    )), None),
    ("dec.", "decoder", _Block(DecoderParams, (
        ("embed", "embed", ("vocab", "d_model"), "embed"),
        ("layer", "layers", _DEC_LAYER, "d_layers"),
        ("final_norm_g", "final_norm_g", ("d_model",), "gain"),
        ("final_norm_b", "final_norm_b", ("d_model",), "bias"),
        ("out_w", "out_w", ("d_model", "vocab"), "w"),
        ("out_b", "out_b", ("vocab",), "bias"),
    )), None),
    ("ctc.w", "ctc_w", ("d_model", "vocab+1"), "w"),
    ("ctc.b", "ctc_b", ("vocab+1",), "bias"),
)

# initializer kind -> (low, high, fan-in of a shape or None): uniform draws,
# divided by sqrt(fan-in) where one is given
_INITS = {
    "w": (-1.0, 1.0, lambda s: s[-2]),
    "conv": (-1.0, 1.0, lambda s: 9 * s[1]),
    "gain": (0.5, 1.5, None),
    "bias": (-0.1, 0.1, None),
    "embed": (-1.0, 1.0, None),
}

# header dimension -> ModelParams field (d_feat reads the encoder's), in header order
_DIMS = {"e_layers": "e_layers", "d_layers": "d_layers", "d_model": "d_model", "d_ff": "d_ff",
         "heads": "heads", "vocab": "vocab_size", "d_feat": "d_feat"}
_POSITIVE_DIMS = ("d_model", "vocab", "d_feat")  # the others may be 0
_CONVS = ("cnn.conv1_w", "cnn.conv2_w")  # their output channels are ch1 and ch2


def _check_header(dims, sos_id, eos_id, ch1, ch2):
    """Raise ``ValueError`` for the first header rule that fails, in header
    order; a conv's channels are None if its weight is missing.  load_model
    and random_model share it, so random_model builds only what loads."""
    for key, n in dims.items():
        least = 1 if key in _POSITIVE_DIMS else 0
        if n < least:
            raise ValueError(f"dimension {key} is {n}, must be at least {least}")
    if dims["heads"] < 1 or dims["d_model"] % dims["heads"] != 0:
        raise ValueError(f"d_model {dims['d_model']} not divisible by heads {dims['heads']}")
    if not 0 <= sos_id < dims["vocab"]:
        raise ValueError(f"sos_id {sos_id} outside vocabulary")
    if eos_id is not None and not 0 <= eos_id < dims["vocab"]:
        raise ValueError(f"eos_id {eos_id} outside vocabulary")
    for conv, ch in zip(_CONVS, (ch1, ch2)):
        if ch is None:
            raise ValueError(f"missing tensor {conv}")
        if ch < 1:
            raise ValueError(f"tensor {conv} has {ch} output channels, must be at least 1")


def _specs(rows):
    """Every tensor's shape spec in rows, nested blocks included."""
    for _name, _fld, spec, _arg in rows:
        if type(spec) is _Block:
            yield from _specs(spec.rows)
        else:
            yield spec


# The schema's distinct shape specs, which _symbols resolves once per model.
_SPECS = frozenset(_specs(_SCHEMA))


def _symbols(dims, ch1, ch2):
    """Shape symbol -> size, and shape spec -> shape for every spec of the
    schema.  Compound symbols and the shapes are computed here once, so
    the walk resolves every tensor's shape by one lookup."""
    d_k = dims["d_model"] // dims["heads"]
    f2 = (dims["d_feat"] - 1) // 4 + 1  # feature bins after two pad-1 kernel-3 stride-2 convs
    sym = {**dims, "d_k": d_k, "ch1": ch1, "ch2": ch2, "heads*d_k": dims["heads"] * d_k,
           "ch2*f2": ch2 * f2, "vocab+1": dims["vocab"] + 1}
    sym.update({spec: tuple(map(sym.get, spec, spec)) for spec in _SPECS})
    return sym


def _build(rows, prefix, sym, leaf):
    """Walk rows in draw order, ``leaf(name, shape, init)`` supplying each
    tensor; returns the block's field values."""
    fields = {}
    for name, fld, spec, arg in rows:
        name = prefix + name
        if type(spec) is not _Block:
            fields[fld] = leaf(name, sym[spec], arg)
        elif arg is None:
            fields[fld] = spec.cls(**_build(spec.rows, name, sym, leaf))
        else:
            fields[fld] = [spec.cls(**_build(spec.rows, f"{name}{i}.", sym, leaf))
                           for i in range(sym[arg])]
    return fields


def _model(dims, sos_id, eos_id, sym, leaf):
    """ModelParams with header dims, reserved ids, and tensors from ``leaf``."""
    fields = _build(_SCHEMA, "", sym, leaf)
    fields["encoder"].d_feat = dims["d_feat"]
    fields["decoder"].sos_id, fields["decoder"].eos_id = sos_id, eos_id
    return ModelParams(**{fld: dims[k] for k, fld in _DIMS.items() if k != "d_feat"}, **fields)


def _tensors(rows, prefix, obj):
    """(archive name, array) for every tensor of obj, a block of rows."""
    for name, fld, spec, arg in rows:
        val = getattr(obj, fld)
        if type(spec) is not _Block:
            yield prefix + name, val
        elif arg is None:
            yield from _tensors(spec.rows, prefix + name, val)
        else:
            for i, sub in enumerate(val):
                yield from _tensors(spec.rows, f"{prefix}{name}{i}.", sub)


def save_model(path, m):
    tensors = {k: np.ascontiguousarray(v, dtype=np.float32) for k, v in _tensors(_SCHEMA, "", m)}
    lines = [MODEL_MAGIC]
    lines += [f"{k} {getattr(m, fld)}" for k, fld in _DIMS.items()]
    lines.append(f"sos_id {m.sos_id}")
    lines.append(f"eos_id {'none' if m.eos_id is None else m.eos_id}")
    names = sorted(tensors)
    lines.append(f"tensors {len(names)}")
    lines += [f"{n} {','.join(str(d) for d in tensors[n].shape)}" for n in names]
    lines.append("data")
    with open(path, "wb") as f:
        f.write(("\n".join(lines) + "\n").encode("ascii"))
        for n in names:
            f.write(tensors[n].astype("<f4", copy=False).tobytes())


def _read_header_line(f, path):
    raw = f.readline()
    if not raw.endswith(b"\n"):
        raise ValueError(f"{path}: truncated header")
    return raw[:-1].decode("ascii")


# An archive's first read: its whole header up to dozens of layers, and
# the payload's first bytes with it.
_HEAD_READ = 1 << 14
# Each loaded tensor starts on a 64-byte boundary (16 float32 values) of
# the payload buffer, at least the 16 bytes np.empty's arrays start on.
_SLOT = 16


class _ShortHeader(Exception):
    """The bytes read so far end before the header's data marker."""


def _parse_header(head, path):
    """(dims, sos_id, eos_id, shapes, sizes, payload offset) from the bytes
    that begin an archive; sizes maps each tensor to its float count, -1
    for a shape with a negative dimension.  Raises ``_ShortHeader`` if the
    bytes end before the data marker, once the lines they hold have
    passed their checks."""
    fixed = head.split(b"\n", len(_DIMS) + 4)  # magic, dims, sos_id, eos_id, tensors; the rest

    def value(i, key):
        """The value of line i, which must be ``key value``."""
        if i >= len(fixed) - 1:
            raise _ShortHeader
        k, _, v = fixed[i].decode("ascii").partition(" ")
        if k != key:
            raise ValueError(f"{path}: expected {key!r} line, got {k!r}")
        return v

    if len(fixed) < 2:
        raise _ShortHeader
    if fixed[0] != MODEL_MAGIC.encode("ascii"):
        raise ValueError(f"{path}: bad magic, expected {MODEL_MAGIC!r}")
    dims = {key: int(value(i, key)) for i, key in enumerate(_DIMS, 1)}
    sos_id = int(value(len(_DIMS) + 1, "sos_id"))
    eos_id = value(len(_DIMS) + 2, "eos_id")
    eos_id = None if eos_id == "none" else int(eos_id)
    count = max(0, int(value(len(_DIMS) + 3, "tensors")))
    table = fixed[-1].split(b"\n", count + 1)  # the tensor lines, the data marker; the payload
    shapes, sizes = {}, {}
    parsed = {}  # dims text -> (shape, size), as most shapes repeat
    for raw in table[:min(count, len(table) - 1)]:
        name, _, dimtxt = raw.decode("ascii").partition(" ")
        if name in shapes:
            raise ValueError(f"{path}: duplicate tensor {name}")
        known = parsed.get(dimtxt)
        if known is None:
            shape = tuple(map(int, dimtxt.split(",")))
            # a negative dimension leaves the tensor no payload size
            known = parsed[dimtxt] = shape, math.prod(shape) if min(shape) >= 0 else -1
        shapes[name], sizes[name] = known
    if len(table) < count + 2:
        raise _ShortHeader
    if table[count] != b"data":
        raise ValueError(f"{path}: expected data marker")
    return dims, sos_id, eos_id, shapes, sizes, len(head) - len(table[-1])


def _payload_buffer(have, shapes, sizes):
    """Each tensor by name, a float32 array of its shape, and the runs of
    bytes to read the payload into; None if the payload's ``have`` bytes
    are not what the sizes hold.  The payload stores the tensors sorted
    by name.

    The tensors are read-only views of one new buffer, in which each
    starts on a ``_SLOT`` boundary.  A run is a writable byte view of
    adjacent slots, made before the buffer was made read-only; the runs,
    filled in order, hold the payload.  One allocation, not one per
    tensor: per-tensor arrays cost a repeated load about as much as the
    header and schema work that reading the file once saves."""
    if min(sizes.values(), default=0) < 0 or 4 * sum(sizes.values()) != have:
        return None
    buf = np.empty(have // 4 + _SLOT * (len(sizes) + 1), dtype="<f4")  # room for the padding
    skip = -buf.__array_interface__["data"][0] % (4 * _SLOT) // 4
    mem = buf[skip:].view(np.uint8)
    # Read-only: decoders derive projection caches from these weights, and
    # sessions sharing a model must not see it change under them.  A view
    # of a read-only buffer cannot be made writable again.
    buf.setflags(write=False)
    flat = buf[skip:]
    views, spans, end = {}, [], 0
    for name in sorted(shapes):
        n = sizes[name]
        o = end + -end % _SLOT
        if spans and o == end:
            spans[-1][1] = 4 * (o + n)
        else:
            spans.append([4 * o, 4 * (o + n)])
        shape = shapes[name]
        views[name] = flat[o:o + n] if len(shape) == 1 else flat[o:o + n].reshape(shape)
        end = o + n
    return views, [mem[a:b] for a, b in spans]


def _read_runs(f, path, rest, runs):
    """Fill each byte array of runs in turn from the payload: first from
    ``rest``, the bytes of it read with the header, then straight from f.
    A read may return fewer bytes than asked (an unbuffered read, or one
    past the system's limit on a single read), so each run is read until
    it is full; only a read that returns nothing ends the payload early."""
    for run in runs:
        n = min(len(run), len(rest))
        run[:n] = rest[:n]
        rest = rest[n:]
        while n < len(run):
            got = f.readinto(run[n:])
            if not got:
                raise ValueError(f"{path}: payload ended early")
            n += got


def _read_f32(f, path, shape):
    """The rest of f as one little-endian float32 array of ``shape``,
    read straight into it.  The remaining byte count must equal its size."""
    total = 4 * math.prod(shape)
    have = os.fstat(f.fileno()).st_size - f.tell()
    if have != total:
        raise ValueError(f"{path}: payload is {have} bytes, expected {total}")
    a = np.empty(shape, dtype="<f4")
    if f.readinto(a) != total:
        raise ValueError(f"{path}: payload ended early, expected {total} bytes")
    return a


def load_model(path):
    """Read a model archive: the file once, its header checked against one
    walk of the schema, the payload into one read-only buffer of which
    every tensor is a view."""
    with open(path, "rb", buffering=0) as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(_HEAD_READ)
        while True:
            try:
                dims, sos_id, eos_id, shapes, sizes, start = _parse_header(head, path)
                break
            except _ShortHeader:
                more = f.read()
                if not more:
                    raise ValueError(f"{path}: truncated header") from None
                head += more

        ch1, ch2 = (shapes[conv][0] if conv in shapes else None for conv in _CONVS)
        try:
            _check_header(dims, sos_id, eos_id, ch1, ch2)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None

        # The buffer and its tensors exist before the walk, which both lists
        # the expected shapes and hands the tensors out; the payload is read
        # into them once the header has passed.
        payload = _payload_buffer(size - start, shapes, sizes)
        views = {} if payload is None else payload[0]
        expected = {}

        def leaf(name, shape, _init):
            expected[name] = shape
            return views.get(name)

        sym = _symbols(dims, ch1, ch2)
        model = _model(dims, sos_id, eos_id, sym, leaf)
        if expected != shapes:
            for name in sorted(expected):
                if name not in shapes:
                    raise ValueError(f"{path}: missing tensor {name}")
            for name in sorted(shapes):
                if name not in expected:
                    raise ValueError(f"{path}: unexpected tensor {name}")
                if shapes[name] != expected[name]:
                    raise ValueError(
                        f"{path}: tensor {name}: shape {shapes[name]} != expected {expected[name]}"
                    )
        if payload is None:
            total = 4 * sum(sizes.values())
            raise ValueError(f"{path}: payload is {size - start} bytes, expected {total}")
        _read_runs(f, path, memoryview(head)[start:], payload[1])
    return model


# ---------------------------------------------------------------- features


def write_features(path, feats):
    """Write ``feats``; what load_features refuses raises ``ValueError`` first."""
    shift = feats.frame_shift_ms
    if not (is_real(shift) and 0 < shift < math.inf):
        raise ValueError(f"{path}: frame shift must be positive and finite, got {shift!r}")
    with np.errstate(over="ignore"):  # a value past float32's range is refused below
        frames = np.ascontiguousarray(feats.frames, dtype=np.float32)
    if frames.ndim != 2:
        raise ValueError(f"{path}: features of shape {frames.shape}, expected (frames, d_feat)")
    if frames.shape[0] == 0:
        raise ValueError(f"{path}: empty utterance")
    if not np.isfinite(frames).all():
        raise ValueError(f"{path}: non-finite feature values")
    with open(path, "wb") as f:
        f.write(f"{FEATS_MAGIC}\n{frames.shape[0]} {frames.shape[1]} {float(shift)!r}\n".encode("ascii"))
        f.write(frames.astype("<f4", copy=False).tobytes())


def load_features(path):
    with open(path, "rb") as f:
        if _read_header_line(f, path) != FEATS_MAGIC:
            raise ValueError(f"{path}: bad magic, expected {FEATS_MAGIC!r}")
        parts = _read_header_line(f, path).split(" ")
        if len(parts) != 3:
            raise ValueError(f"{path}: malformed feature header")
        t, d, shift = int(parts[0]), int(parts[1]), float(parts[2])
        if t == 0:
            raise ValueError(f"{path}: empty utterance")
        if t < 0 or d < 0:
            raise ValueError(f"{path}: negative feature dimension {t} x {d}")
        if not 0 < shift < math.inf:
            raise ValueError(f"{path}: frame shift must be positive and finite, got {shift!r}")
        frames = _read_f32(f, path, (t, d))
    if not np.isfinite(frames).all():
        raise ValueError(f"{path}: non-finite feature values")
    return FeatureMatrix(frames, frame_shift_ms=shift)


# ------------------------------------------------------------- toy models


def random_model(seed, d_feat=8, d_model=16, d_ff=32, heads=4, e_layers=2,
                 d_layers=1, vocab_size=5, ch1=None, ch2=None, with_eos=True):
    """Small random-weight model for tests and demos; deterministic per seed.

    Conv channel counts default to d_model/4 and d_model/2 so the front
    end widens toward the model dimension.  Dimensions that load_model
    would refuse in an archive's header raise its ``ValueError``.
    """
    if ch1 is None:
        ch1 = max(1, d_model // 4)
    if ch2 is None:
        ch2 = max(1, d_model // 2)
    dims = {"e_layers": e_layers, "d_layers": d_layers, "d_model": d_model, "d_ff": d_ff,
            "heads": heads, "vocab": vocab_size, "d_feat": d_feat}
    eos_id = 1 if with_eos else None
    _check_header(dims, 0, eos_id, ch1, ch2)
    rng = np.random.default_rng(seed)

    def draw(name, shape, init):
        low, high, fan_in = _INITS[init]
        x = rng.uniform(low, high, shape)
        return (x if fan_in is None else x / np.sqrt(fan_in(shape))).astype(np.float32)

    return _model(dims, 0, eos_id, _symbols(dims, ch1, ch2), draw)


def random_features(seed, t, d_feat, frame_shift_ms=10.0):
    rng = np.random.default_rng(seed)
    return FeatureMatrix(rng.uniform(-1.0, 1.0, (t, d_feat)).astype(np.float32), frame_shift_ms)


def toy_vocab(n_labels=3, with_eos=True, boundary=None):
    """<sos>[, <eos>], then lowercase letters."""
    letters = [chr(ord("a") + i) for i in range(n_labels)]
    tokens = [SOS_TOKEN] + ([EOS_TOKEN] if with_eos else []) + letters
    return Vocab(tokens, boundary)
