"""Workload definitions, input generation and the decode paths they drive.

Every input a workload decodes is generated from its seed and written to
files first; the program under test only ever sees those files, read back
through ``modelio.load_model``, ``modelio.load_vocab``,
``modelio.load_features`` and ``lm.ngram_load``.  All calls into the
package go through its modules at call time (``encoder.encode``, not a
name bound at import) so that the tracer's wrappers, when installed, see
them.
"""

import hashlib
import math
import os
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from streamasr import ctc, encoder, lm as lm_mod, modelio, search, streaming

FRAME_SHIFT_MS = 10.0
# Each run draws this many mid models from its seed and decodes pool
# utterance u with model u % MODELS: one random model can make the search
# 15% heavier than another, and a run should average over models as it
# does over utterances.
MODELS = 3

# The ROADMAP baseline's mid model.
MID_MODEL = dict(d_feat=40, d_model=64, d_ff=256, heads=4, e_layers=6, d_layers=2, vocab_size=30)
# random_model's own defaults, used by the self-test.
TINY_MODEL = dict(d_feat=8, d_model=16, d_ff=32, heads=4, e_layers=2, d_layers=1, vocab_size=5)


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: a single session at a time, the next
    utterance (or chunk) goes in only after the previous call returned."""

    name: str
    streaming: bool        # StreamingSession in chunks, else encode + posterior + decode
    ctc_only: bool
    bigram: bool           # random ARPA bigram with backoff, else the uniform LM
    utt_frames: int        # 10 ms feature frames per utterance
    k_size: int
    p_size: int
    chunk: int = 4         # frames per push (40 ms)
    eps_enc: int = 1
    eps_dec: int = 4
    model: dict = field(default_factory=lambda: dict(MID_MODEL))
    pool: int = 63         # distinct utterances (a multiple of MODELS); the loop cycles past it
    trace_utts: int = 2    # fixed utterance set decoded by the traced run
    warmup_frames: int = 100

    @property
    def utt_seconds(self):
        return self.utt_frames * FRAME_SHIFT_MS / 1000.0


# offline-joint is the decoder's workload: advance_position is ~90% of a
# decode and no streaming code runs.  stream-ctc-long is the streaming
# encoder's and the CTC prefix search's, with a backoff LM and no decoder
# call; it is 8 s long, not 16 s, because one 16 s decode takes 13-16 s on a
# 2-vCPU host and every run must fit the benchmark's time budget.
# stream-joint is the product path over offline-joint's audio, models and
# LM, so the two must give the same bits; it keeps the uniform LM because
# the bigram makes its prefixes ~40% longer and a 4 s decode ~7 s.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("offline-joint", streaming=False, ctc_only=False, bigram=False,
                 utt_frames=400, k_size=16, p_size=8),
        Workload("stream-ctc-long", streaming=True, ctc_only=True, bigram=True,
                 utt_frames=800, k_size=300, p_size=30, pool=15, trace_utts=1),
        Workload("stream-joint", streaming=True, ctc_only=False, bigram=False,
                 utt_frames=400, k_size=16, p_size=8),
    )
}


def tiny(w):
    """The same code path on random_model defaults and short utterances."""
    return replace(w, model=dict(TINY_MODEL), utt_frames=48, pool=3, trace_utts=1,
                   warmup_frames=16)


def _subseed(*parts):
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _tokens(vocab_size):
    return [modelio.SOS_TOKEN, modelio.EOS_TOKEN] + [f"w{i:02d}" for i in range(vocab_size - 2)]


def _write_bigram_arpa(path, labels, rng):
    """Random-weight bigram: every label has a unigram and a backoff weight,
    and about half of the label pairs have a bigram, so scoring takes both
    the direct-hit and the backoff path."""
    uni = np.log10(rng.dirichlet(np.ones(len(labels))))
    back = rng.uniform(-1.0, 0.0, len(labels))
    pairs = [(a, b, math.log10(rng.uniform(0.01, 1.0)))
             for a in labels for b in labels if rng.random() < 0.5]
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"\\data\\\nngram 1={len(labels)}\nngram 2={len(pairs)}\n\n\\1-grams:\n")
        for tok, lp, bo in zip(labels, uni, back):
            f.write(f"{lp:.6f} {tok} {bo:.6f}\n")
        f.write("\n\\2-grams:\n")
        for a, b, lp in pairs:
            f.write(f"{lp:.6f} {a} {b}\n")
        f.write("\n\\end\\\n")


@dataclass
class Inputs:
    models: list   # MODELS archives
    vocab: str
    lm: str | None
    utts: list     # feature file per pool utterance
    warmup: str    # a short utterance for the warm-up decodes


def generate_inputs(w, seed, out_dir):
    """Write the model archive, vocabulary, LM and feature files for one seed."""
    os.makedirs(out_dir, exist_ok=True)
    if w.pool % MODELS:
        raise ValueError(f"pool {w.pool} is not a multiple of {MODELS} models")
    tokens = _tokens(w.model["vocab_size"])
    paths = Inputs([], os.path.join(out_dir, "mid.vocab"), None, [],
                   os.path.join(out_dir, "warmup.feats"))
    for m in range(MODELS):
        paths.models.append(os.path.join(out_dir, f"mid{m}.model"))
        modelio.save_model(paths.models[-1], modelio.random_model(_subseed(seed, 0, m), **w.model))
    modelio.save_vocab(paths.vocab, modelio.Vocab(tokens))
    if w.bigram:
        paths.lm = os.path.join(out_dir, "bigram.arpa")
        _write_bigram_arpa(paths.lm, tokens[2:], np.random.default_rng(_subseed(seed, 1)))
    d_feat = w.model["d_feat"]
    for i in range(w.pool):
        p = os.path.join(out_dir, f"utt{i:03d}.feats")
        modelio.write_features(p, modelio.random_features(_subseed(seed, 2, w.utt_frames, i),
                                                          w.utt_frames, d_feat, FRAME_SHIFT_MS))
        paths.utts.append(p)
    modelio.write_features(paths.warmup, modelio.random_features(
        _subseed(seed, 3, w.warmup_frames), w.warmup_frames, d_feat, FRAME_SHIFT_MS))
    return paths


@dataclass
class Context:
    model: object
    lm: object
    params: object
    config: object
    banned: tuple


def setup(w, paths, m):
    """Load model m, the vocabulary and the LM from files and build the
    objects a decode needs.  This is what ``setup_s`` times."""
    model = modelio.load_model(paths.models[m])
    vocab = modelio.load_vocab(paths.vocab)
    if w.bigram:
        lm = lm_mod.ngram_load(paths.lm, token_to_id=vocab.token_to_id)
    else:
        lm = lm_mod.UniformLM(len(vocab) - len(vocab.reserved_ids()))
    params = search.DecodeParams(k_size=w.k_size, p_size=w.p_size, eps_dec=w.eps_dec)
    config = streaming.StreamConfig(eps_enc=w.eps_enc, eps_dec=w.eps_dec,
                                    frame_shift_ms=FRAME_SHIFT_MS)
    ctx = Context(model, lm, params, config, tuple(sorted(vocab.reserved_ids())))
    if w.streaming:
        new_session(w, ctx)
    return ctx


def new_session(w, ctx):
    return streaming.StreamingSession(ctx.model, ctx.lm, ctx.params, ctx.config,
                                      ctc_only=w.ctc_only)


@dataclass
class Decoded:
    result: object
    calls: list        # (start, end) of every timed call: each push then finalize,
    streaming: bool    # or the one offline pass over the whole utterance

    def timings(self, seconds):
        """(decode seconds, chunk durations, final duration), with each call's
        duration read through ``seconds(start, end)``.

        Offline hands the whole utterance over as one chunk after its last
        frame, so that one call is its chunk, its final latency and its
        decode time.
        """
        d = [seconds(a, b) for a, b in self.calls]
        if not self.streaming:
            return d[0], d, d[0]
        return sum(d), d[:-1], d[-1]


def decode_offline(w, ctx, feats):
    t0 = perf_counter()
    enc = encoder.encode(feats, ctx.model.encoder, w.eps_enc)
    post = ctc.posteriorgram_from_states(enc, ctx.model.ctc_w, ctx.model.ctc_b)
    if w.ctc_only:
        result = search.ctc_prefix_search(post, ctx.lm, ctx.params, banned_ids=ctx.banned)
    else:
        result = search.decode(enc, post, ctx.lm, ctx.model.decoder, ctx.params)
    return Decoded(result, [(t0, perf_counter())], streaming=False)


def decode_streaming(w, ctx, feats, before_finalize=None):
    session = new_session(w, ctx)
    frames = feats.frames
    calls = []
    for start in range(0, frames.shape[0], w.chunk):
        piece = frames[start:start + w.chunk]
        t0 = perf_counter()
        session.push(piece)
        calls.append((t0, perf_counter()))
    if before_finalize is not None:
        before_finalize()
    t0 = perf_counter()
    result = session.finalize()
    calls.append((t0, perf_counter()))
    return Decoded(result, calls, streaming=True)


def decode(w, ctx, feats, before_finalize=None):
    """The workload's own decode path."""
    if w.streaming:
        return decode_streaming(w, ctx, feats, before_finalize)
    return decode_offline(w, ctx, feats)


def decode_reference(w, ctx, feats):
    """The other path over the same audio, which must give the same bits:
    offline for the streaming workloads, streaming for the offline one."""
    if w.streaming:
        return decode_offline(w, ctx, feats)
    return decode_streaming(w, ctx, feats)


def output_hash(result):
    """sha256 over the labels and every per-frame trace line."""
    text = "labels=" + ",".join(str(x) for x in result.labels) + "\n" + "\n".join(result.trace)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
