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
"""

from dataclasses import dataclass

import numpy as np

from .attention import MhaParams
from .decoder import DecoderLayerParams, DecoderParams
from .encoder import CnnParams, EncoderLayerParams, EncoderParams

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
        boundary marker into spaces.  Reserved ids are dropped."""
        pieces = [self.tokens[i] for i in ids if i not in self.reserved_ids()]
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
    with open(path, "w", encoding="utf-8") as f:
        if vocab.boundary:
            f.write(f"#boundary {vocab.boundary}\n")
        for tok in vocab.tokens:
            f.write(tok + "\n")


# ------------------------------------------------------------------- model


@dataclass
class ModelParams:
    """Everything a recognizer needs: front end + encoder, decoder, CTC head."""

    d_feat: int
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
    def sos_id(self):
        return self.decoder.sos_id

    @property
    def eos_id(self):
        return self.decoder.eos_id


def _conv_len(n):
    """Output length of one pad-1 kernel-3 stride-2 sweep."""
    return (n - 1) // 2 + 1


def _mha_tensors(prefix, mha):
    return {
        f"{prefix}.w_q": mha.w_q,
        f"{prefix}.w_k": mha.w_k,
        f"{prefix}.w_v": mha.w_v,
        f"{prefix}.w_h": mha.w_h,
    }


def _model_tensors(m):
    t = {
        "cnn.conv1_w": m.encoder.cnn.conv1_w,
        "cnn.conv1_b": m.encoder.cnn.conv1_b,
        "cnn.conv2_w": m.encoder.cnn.conv2_w,
        "cnn.conv2_b": m.encoder.cnn.conv2_b,
        "cnn.proj_w": m.encoder.cnn.proj_w,
        "cnn.proj_b": m.encoder.cnn.proj_b,
        "enc.final_norm_g": m.encoder.final_norm_g,
        "enc.final_norm_b": m.encoder.final_norm_b,
        "dec.embed": m.decoder.embed,
        "dec.final_norm_g": m.decoder.final_norm_g,
        "dec.final_norm_b": m.decoder.final_norm_b,
        "dec.out_w": m.decoder.out_w,
        "dec.out_b": m.decoder.out_b,
        "ctc.w": m.ctc_w,
        "ctc.b": m.ctc_b,
    }
    for i, lay in enumerate(m.encoder.layers):
        p = f"enc.layer{i}"
        t.update(_mha_tensors(f"{p}.att", lay.mha))
        t.update({
            f"{p}.norm1_g": lay.norm1_g, f"{p}.norm1_b": lay.norm1_b,
            f"{p}.ff1_w": lay.ff1_w, f"{p}.ff1_b": lay.ff1_b,
            f"{p}.ff2_w": lay.ff2_w, f"{p}.ff2_b": lay.ff2_b,
            f"{p}.norm2_g": lay.norm2_g, f"{p}.norm2_b": lay.norm2_b,
        })
    for i, lay in enumerate(m.decoder.layers):
        p = f"dec.layer{i}"
        t.update(_mha_tensors(f"{p}.self_att", lay.self_mha))
        t.update(_mha_tensors(f"{p}.src_att", lay.src_mha))
        t.update({
            f"{p}.norm1_g": lay.norm1_g, f"{p}.norm1_b": lay.norm1_b,
            f"{p}.norm2_g": lay.norm2_g, f"{p}.norm2_b": lay.norm2_b,
            f"{p}.norm3_g": lay.norm3_g, f"{p}.norm3_b": lay.norm3_b,
            f"{p}.ff1_w": lay.ff1_w, f"{p}.ff1_b": lay.ff1_b,
            f"{p}.ff2_w": lay.ff2_w, f"{p}.ff2_b": lay.ff2_b,
        })
    return t


def _expected_shapes(dims, ch1, ch2):
    d_model, d_ff, heads = dims["d_model"], dims["d_ff"], dims["heads"]
    vocab, d_feat = dims["vocab"], dims["d_feat"]
    d_k = d_model // heads
    f2 = _conv_len(_conv_len(d_feat))
    exp = {
        "cnn.conv1_w": (ch1, 1, 3, 3),
        "cnn.conv1_b": (ch1,),
        "cnn.conv2_w": (ch2, ch1, 3, 3),
        "cnn.conv2_b": (ch2,),
        "cnn.proj_w": (ch2 * f2, d_model),
        "cnn.proj_b": (d_model,),
        "enc.final_norm_g": (d_model,),
        "enc.final_norm_b": (d_model,),
        "dec.embed": (vocab, d_model),
        "dec.final_norm_g": (d_model,),
        "dec.final_norm_b": (d_model,),
        "dec.out_w": (d_model, vocab),
        "dec.out_b": (vocab,),
        "ctc.w": (d_model, vocab + 1),
        "ctc.b": (vocab + 1,),
    }
    mha = {"w_q": (heads, d_model, d_k), "w_k": (heads, d_model, d_k),
           "w_v": (heads, d_model, d_k), "w_h": (heads * d_k, d_model)}
    for i in range(dims["e_layers"]):
        p = f"enc.layer{i}"
        for k, s in mha.items():
            exp[f"{p}.att.{k}"] = s
        exp.update({
            f"{p}.norm1_g": (d_model,), f"{p}.norm1_b": (d_model,),
            f"{p}.ff1_w": (d_model, d_ff), f"{p}.ff1_b": (d_ff,),
            f"{p}.ff2_w": (d_ff, d_model), f"{p}.ff2_b": (d_model,),
            f"{p}.norm2_g": (d_model,), f"{p}.norm2_b": (d_model,),
        })
    for i in range(dims["d_layers"]):
        p = f"dec.layer{i}"
        for a in ("self_att", "src_att"):
            for k, s in mha.items():
                exp[f"{p}.{a}.{k}"] = s
        exp.update({
            f"{p}.norm1_g": (d_model,), f"{p}.norm1_b": (d_model,),
            f"{p}.norm2_g": (d_model,), f"{p}.norm2_b": (d_model,),
            f"{p}.norm3_g": (d_model,), f"{p}.norm3_b": (d_model,),
            f"{p}.ff1_w": (d_model, d_ff), f"{p}.ff1_b": (d_ff,),
            f"{p}.ff2_w": (d_ff, d_model), f"{p}.ff2_b": (d_model,),
        })
    return exp


_DIM_KEYS = ("e_layers", "d_layers", "d_model", "d_ff", "heads", "vocab", "d_feat")


def save_model(path, m):
    tensors = {k: np.ascontiguousarray(v, dtype=np.float32) for k, v in _model_tensors(m).items()}
    dims = {"e_layers": m.e_layers, "d_layers": m.d_layers, "d_model": m.d_model,
            "d_ff": m.d_ff, "heads": m.heads, "vocab": m.vocab_size, "d_feat": m.d_feat}
    lines = [MODEL_MAGIC]
    lines += [f"{k} {dims[k]}" for k in _DIM_KEYS]
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


def load_model(path):
    with open(path, "rb") as f:
        if _read_header_line(f, path) != MODEL_MAGIC:
            raise ValueError(f"{path}: bad magic, expected {MODEL_MAGIC!r}")
        dims = {}
        for key in _DIM_KEYS:
            k, _, v = _read_header_line(f, path).partition(" ")
            if k != key:
                raise ValueError(f"{path}: expected dimension {key!r}, got {k!r}")
            dims[key] = int(v)
        k, _, v = _read_header_line(f, path).partition(" ")
        if k != "sos_id":
            raise ValueError(f"{path}: expected sos_id, got {k!r}")
        sos_id = int(v)
        k, _, v = _read_header_line(f, path).partition(" ")
        if k != "eos_id":
            raise ValueError(f"{path}: expected eos_id, got {k!r}")
        eos_id = None if v == "none" else int(v)
        k, _, v = _read_header_line(f, path).partition(" ")
        if k != "tensors":
            raise ValueError(f"{path}: expected tensor count, got {k!r}")
        shapes = {}
        for _ in range(int(v)):
            name, _, dimtxt = _read_header_line(f, path).partition(" ")
            if name in shapes:
                raise ValueError(f"{path}: duplicate tensor {name}")
            shapes[name] = tuple(int(d) for d in dimtxt.split(","))
        if _read_header_line(f, path) != "data":
            raise ValueError(f"{path}: expected data marker")
        payload = f.read()

    if dims["heads"] < 1 or dims["d_model"] % dims["heads"] != 0:
        raise ValueError(f"{path}: d_model {dims['d_model']} not divisible by heads {dims['heads']}")
    if not 0 <= sos_id < dims["vocab"]:
        raise ValueError(f"{path}: sos_id {sos_id} outside vocabulary")
    if eos_id is not None and not 0 <= eos_id < dims["vocab"]:
        raise ValueError(f"{path}: eos_id {eos_id} outside vocabulary")

    for conv in ("cnn.conv1_w", "cnn.conv2_w"):
        if conv not in shapes:
            raise ValueError(f"{path}: missing tensor {conv}")
    ch1 = shapes["cnn.conv1_w"][0]
    ch2 = shapes["cnn.conv2_w"][0]
    expected = _expected_shapes(dims, ch1, ch2)
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

    total = sum(int(np.prod(s)) * 4 for s in shapes.values())
    if len(payload) != total:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, expected {total}")
    tensors = {}
    off = 0
    for name in sorted(shapes):
        n = int(np.prod(shapes[name])) * 4
        tensors[name] = np.frombuffer(payload, "<f4", n // 4, off).reshape(shapes[name]).copy()
        # Read-only: decoders derive projection caches from these weights,
        # and sessions sharing a model must not see it change under them.
        tensors[name].setflags(write=False)
        off += n

    def mha(prefix):
        return MhaParams(
            w_q=tensors[f"{prefix}.w_q"], w_k=tensors[f"{prefix}.w_k"],
            w_v=tensors[f"{prefix}.w_v"], w_h=tensors[f"{prefix}.w_h"],
        )

    enc_layers = [
        EncoderLayerParams(
            mha=mha(f"enc.layer{i}.att"),
            norm1_g=tensors[f"enc.layer{i}.norm1_g"], norm1_b=tensors[f"enc.layer{i}.norm1_b"],
            ff1_w=tensors[f"enc.layer{i}.ff1_w"], ff1_b=tensors[f"enc.layer{i}.ff1_b"],
            ff2_w=tensors[f"enc.layer{i}.ff2_w"], ff2_b=tensors[f"enc.layer{i}.ff2_b"],
            norm2_g=tensors[f"enc.layer{i}.norm2_g"], norm2_b=tensors[f"enc.layer{i}.norm2_b"],
        )
        for i in range(dims["e_layers"])
    ]
    dec_layers = [
        DecoderLayerParams(
            self_mha=mha(f"dec.layer{i}.self_att"), src_mha=mha(f"dec.layer{i}.src_att"),
            norm1_g=tensors[f"dec.layer{i}.norm1_g"], norm1_b=tensors[f"dec.layer{i}.norm1_b"],
            norm2_g=tensors[f"dec.layer{i}.norm2_g"], norm2_b=tensors[f"dec.layer{i}.norm2_b"],
            norm3_g=tensors[f"dec.layer{i}.norm3_g"], norm3_b=tensors[f"dec.layer{i}.norm3_b"],
            ff1_w=tensors[f"dec.layer{i}.ff1_w"], ff1_b=tensors[f"dec.layer{i}.ff1_b"],
            ff2_w=tensors[f"dec.layer{i}.ff2_w"], ff2_b=tensors[f"dec.layer{i}.ff2_b"],
        )
        for i in range(dims["d_layers"])
    ]
    encoder = EncoderParams(
        cnn=CnnParams(
            conv1_w=tensors["cnn.conv1_w"], conv1_b=tensors["cnn.conv1_b"],
            conv2_w=tensors["cnn.conv2_w"], conv2_b=tensors["cnn.conv2_b"],
            proj_w=tensors["cnn.proj_w"], proj_b=tensors["cnn.proj_b"],
        ),
        layers=enc_layers,
        final_norm_g=tensors["enc.final_norm_g"], final_norm_b=tensors["enc.final_norm_b"],
    )
    decoder = DecoderParams(
        embed=tensors["dec.embed"], layers=dec_layers,
        final_norm_g=tensors["dec.final_norm_g"], final_norm_b=tensors["dec.final_norm_b"],
        out_w=tensors["dec.out_w"], out_b=tensors["dec.out_b"],
        sos_id=sos_id, eos_id=eos_id,
    )
    return ModelParams(
        d_feat=dims["d_feat"], d_model=dims["d_model"], d_ff=dims["d_ff"],
        heads=dims["heads"], e_layers=dims["e_layers"], d_layers=dims["d_layers"],
        vocab_size=dims["vocab"], encoder=encoder, decoder=decoder,
        ctc_w=tensors["ctc.w"], ctc_b=tensors["ctc.b"],
    )


# ---------------------------------------------------------------- features


def write_features(path, feats):
    frames = np.ascontiguousarray(feats.frames, dtype=np.float32)
    with open(path, "wb") as f:
        f.write(f"{FEATS_MAGIC}\n{frames.shape[0]} {frames.shape[1]} {feats.frame_shift_ms!r}\n".encode("ascii"))
        f.write(frames.astype("<f4", copy=False).tobytes())


def load_features(path):
    from .encoder import FeatureMatrix

    with open(path, "rb") as f:
        if _read_header_line(f, path) != FEATS_MAGIC:
            raise ValueError(f"{path}: bad magic, expected {FEATS_MAGIC!r}")
        parts = _read_header_line(f, path).split(" ")
        if len(parts) != 3:
            raise ValueError(f"{path}: malformed feature header")
        t, d, shift = int(parts[0]), int(parts[1]), float(parts[2])
        if t == 0:
            raise ValueError(f"{path}: empty utterance")
        payload = f.read()
    if len(payload) != t * d * 4:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, expected {t * d * 4}")
    frames = np.frombuffer(payload, dtype="<f4").reshape(t, d).copy()
    if not np.isfinite(frames).all():
        raise ValueError(f"{path}: non-finite feature values")
    return FeatureMatrix(frames, frame_shift_ms=shift)


# ------------------------------------------------------------- toy models


def random_model(seed, d_feat=8, d_model=16, d_ff=32, heads=4, e_layers=2,
                 d_layers=1, vocab_size=5, ch1=None, ch2=None, with_eos=True):
    """Small random-weight model for tests and demos; deterministic per seed.

    Conv channel counts default to d_model/4 and d_model/2 so the front
    end widens toward the model dimension.
    """
    if ch1 is None:
        ch1 = max(1, d_model // 4)
    if ch2 is None:
        ch2 = max(1, d_model // 2)
    rng = np.random.default_rng(seed)

    def w(*shape):
        fan = shape[-2] if len(shape) > 1 else shape[0]
        return (rng.uniform(-1.0, 1.0, shape) / np.sqrt(fan)).astype(np.float32)

    def gain(n):
        return rng.uniform(0.5, 1.5, n).astype(np.float32)

    def bias(n):
        return rng.uniform(-0.1, 0.1, n).astype(np.float32)

    d_k = d_model // heads

    def mha():
        return MhaParams(w_q=w(heads, d_model, d_k), w_k=w(heads, d_model, d_k),
                         w_v=w(heads, d_model, d_k), w_h=w(heads * d_k, d_model))

    def conv(out_ch, in_ch):
        return (rng.uniform(-1.0, 1.0, (out_ch, in_ch, 3, 3)) / np.sqrt(9 * in_ch)).astype(np.float32)

    f2 = _conv_len(_conv_len(d_feat))
    encoder = EncoderParams(
        cnn=CnnParams(conv1_w=conv(ch1, 1), conv1_b=bias(ch1),
                      conv2_w=conv(ch2, ch1), conv2_b=bias(ch2),
                      proj_w=w(ch2 * f2, d_model), proj_b=bias(d_model)),
        layers=[
            EncoderLayerParams(mha=mha(), norm1_g=gain(d_model), norm1_b=bias(d_model),
                               ff1_w=w(d_model, d_ff), ff1_b=bias(d_ff),
                               ff2_w=w(d_ff, d_model), ff2_b=bias(d_model),
                               norm2_g=gain(d_model), norm2_b=bias(d_model))
            for _ in range(e_layers)
        ],
        final_norm_g=gain(d_model), final_norm_b=bias(d_model),
    )
    decoder = DecoderParams(
        embed=rng.uniform(-1.0, 1.0, (vocab_size, d_model)).astype(np.float32),
        layers=[
            DecoderLayerParams(self_mha=mha(), src_mha=mha(),
                               norm1_g=gain(d_model), norm1_b=bias(d_model),
                               norm2_g=gain(d_model), norm2_b=bias(d_model),
                               norm3_g=gain(d_model), norm3_b=bias(d_model),
                               ff1_w=w(d_model, d_ff), ff1_b=bias(d_ff),
                               ff2_w=w(d_ff, d_model), ff2_b=bias(d_model))
            for _ in range(d_layers)
        ],
        final_norm_g=gain(d_model), final_norm_b=bias(d_model),
        out_w=w(d_model, vocab_size), out_b=bias(vocab_size),
        sos_id=0, eos_id=1 if with_eos else None,
    )
    return ModelParams(
        d_feat=d_feat, d_model=d_model, d_ff=d_ff, heads=heads,
        e_layers=e_layers, d_layers=d_layers, vocab_size=vocab_size,
        encoder=encoder, decoder=decoder,
        ctc_w=w(d_model, vocab_size + 1), ctc_b=bias(vocab_size + 1),
    )


def random_features(seed, t, d_feat, frame_shift_ms=10.0):
    from .encoder import FeatureMatrix

    rng = np.random.default_rng(seed)
    return FeatureMatrix(rng.uniform(-1.0, 1.0, (t, d_feat)).astype(np.float32), frame_shift_ms)


def toy_vocab(n_labels=3, with_eos=True, boundary=None):
    """<sos>[, <eos>], then lowercase letters."""
    letters = [chr(ord("a") + i) for i in range(n_labels)]
    tokens = [SOS_TOKEN] + ([EOS_TOKEN] if with_eos else []) + letters
    return Vocab(tokens, boundary)
