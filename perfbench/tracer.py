"""Outside-in per-layer trace of the streamasr package.

``Tracer.install`` replaces public functions and methods of the package
with wrappers that record one span per call (name, start, end, parent
span, utterance id) and a few counts taken from the call's arguments and
result.  Nothing inside the package changes; ``uninstall`` puts every
original back.  Spans stay in memory until ``save`` writes them out.

A name bound with ``from .x import f`` has to be wrapped in the module
that imported it, because replacing ``x.f`` does not rebind the importer's
copy; a name called through its module (``kernels.matmul``) is wrapped
where it is defined.
"""

import functools
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from streamasr import attention, ctc, decoder, encoder, kernels, lm, modelio, search, streaming

# Per-layer metrics in BENCHMARK.json order: (name, unit, better).
PER_LAYER = [
    ("kernels.matmul.calls", "count", "lower"),
    ("kernels.matmul.rows", "count", "lower"),
    ("kernels.matmul.s", "s", "lower"),
    ("kernels.matmul.mflop", "Mflop", "lower"),
    ("kernels.conv_time_slab.calls", "count", "lower"),
    ("kernels.conv_time_slab.s", "s", "lower"),
    ("kernels.layer_norm.calls", "count", "lower"),
    ("kernels.layer_norm.s", "s", "lower"),
    ("attention.mha.calls", "count", "lower"),
    ("attention.mha.s", "s", "lower"),
    ("attention.mha.self_s", "s", "lower"),
    ("attention.mha.kv_rows", "count", "lower"),
    ("attention.sdpa.scores", "count", "lower"),
    ("attention.sdpa.s", "s", "lower"),
    ("encoder.enc_cnn.s", "s", "lower"),
    ("encoder.encoder_layer.s", "s", "lower"),
    ("encoder.encode.s", "s", "lower"),
    ("ctc.prefix_step.calls", "count", "lower"),
    ("ctc.prefix_step.prefixes_in", "count", "lower"),
    ("ctc.prefix_step.prefixes_out", "count", "lower"),
    ("ctc.prefix_step.s", "s", "lower"),
    ("ctc.posterior.s", "s", "lower"),
    ("decoder.advance_position.calls", "count", "lower"),
    ("decoder.advance_position.s", "s", "lower"),
    ("decoder.advance_position.self_s", "s", "lower"),
    ("decoder.advance_position.enc_rows", "count", "lower"),
    ("decoder.advance_position.hist_rows", "count", "lower"),
    ("decoder.append_history.s", "s", "lower"),
    ("lm.extend.calls", "count", "lower"),
    ("lm.extend.s", "s", "lower"),
    ("lm.ngram_load.s", "s", "lower"),
    ("search.advance.calls", "count", "lower"),
    ("search.advance.s", "s", "lower"),
    ("search.advance.self_s", "s", "lower"),
    ("search.prune.calls", "count", "lower"),
    ("search.prune.in", "count", "lower"),
    ("search.prune.s", "s", "lower"),
    ("search.prune.kept_ratio", "ratio", "lower"),
    ("search.beam_mean", "count", "lower"),
    ("search.ta_useful_ratio", "ratio", "higher"),
    ("search.finalize.s", "s", "lower"),
    ("streaming.push.calls", "count", "lower"),
    ("streaming.push.s", "s", "lower"),
    ("streaming.push.self_s", "s", "lower"),
    ("streaming.push.growth", "ratio", "lower"),
    ("streaming.finalize.s", "s", "lower"),
    ("streaming.finalize.self_s", "s", "lower"),
    ("streaming.retained_kb_per_audio_s", "kB/audio-s", "lower"),
    ("peak_mem_mb", "MB", "lower"),
    ("modelio.load_model.s", "s", "lower"),
    ("modelio.load_vocab.s", "s", "lower"),
    ("modelio.load_features.s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]

# push/finalize self time is the incremental conv and encoder work: the
# span minus its search and posterior children only (kernel and attention
# calls made by the session's own row engine stay in it).
_SEARCH_AND_POSTERIOR = ("search.advance", "search.finalize", "ctc.posterior")
# Layers that run in set-up, reported per set-up.
_SETUP_LAYERS = ("modelio.load_model", "modelio.load_vocab", "lm.ngram_load")


def _arg(a, k, i, name):
    return a[i] if len(a) > i else k[name]


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.utt = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.utterance = -1
        self.counts = defaultdict(int)
        self._beams = []
        self._patched = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, before=None, after=None):
        """Wrap fn so each call records a span; before(args, kwargs) runs
        ahead of the call and its return value is handed to
        after(args, kwargs, result, state)."""
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*a, **k):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.utt.append(self.utterance)
            self.start.append(0.0)
            self.end.append(0.0)
            state = before(a, k) if before is not None else None
            self._stack.append(i)
            self.start[i] = perf_counter()
            try:
                out = fn(*a, **k)
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(a, k, out, state)
            return out

        return wrapper

    def _patch(self, owner, attr, name, before=None, after=None):
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, before, after))

    def install(self):
        c = self.counts
        p = self._patch

        def matmul(a, k):
            m, kk = np.shape(a[0])
            n = np.shape(a[1])[1]
            c["kernels.matmul.rows"] += m
            c["kernels.matmul.flop"] += 2 * m * kk * n

        def mha(a, k):
            c["attention.mha.kv_rows"] += np.shape(_arg(a, k, 1, "k_in"))[0]

        def sdpa(a, k):
            c["attention.sdpa.scores"] += int(np.count_nonzero(_arg(a, k, 3, "mask")))

        def step_in(a, k):
            c["ctc.prefix_step.prefixes_in"] += len(_arg(a, k, 1, "hyps"))

        def step_out(a, k, out, state):
            c["ctc.prefix_step.prefixes_out"] += len(out)

        def prune_in(a, k):
            c["search.prune.in"] += len(_arg(a, k, 0, "hyps"))

        def prune_out(a, k, out, state):
            c["search.prune.out"] += len(out)

        def advance_position(a, k):
            hist = _arg(a, k, 2, "hist")
            c["decoder.advance_position.enc_rows"] += int(_arg(a, k, 5, "nu"))
            c["decoder.advance_position.hist_rows"] += np.shape(hist[0])[0] if hist else 0
            c["decoder.advance_position.calls"] += 1

        def advance_in(a, k):
            ta = getattr(a[0], "ta", None)
            return (set(ta) if ta is not None else None), c["decoder.advance_position.calls"]

        def advance_out(a, k, out, state):
            srch = a[0]
            self._beams.append(len(srch.hyps))
            before_keys, calls_before = state
            if before_keys is not None:
                c["search.ta_new_kept"] += len(set(srch.ta) - before_keys)
                c["search.ta_scored"] += c["decoder.advance_position.calls"] - calls_before

        p(kernels, "matmul", "kernels.matmul", before=matmul)
        p(kernels, "conv_time_slab", "kernels.conv_time_slab")
        p(kernels, "layer_norm", "kernels.layer_norm")
        p(attention, "scaled_dot_attention", "attention.sdpa", before=sdpa)
        for mod in (encoder, decoder, streaming):
            p(mod, "multi_head_attention", "attention.mha", before=mha)
        p(encoder, "enc_cnn", "encoder.enc_cnn")
        p(encoder, "encoder_layer", "encoder.encoder_layer")
        p(encoder, "encode", "encoder.encode")
        p(search, "ctc_prefix_step", "ctc.prefix_step", before=step_in, after=step_out)
        p(ctc, "posteriorgram_from_states", "ctc.posterior")
        p(ctc, "log_posterior_row", "ctc.posterior")
        p(streaming, "log_posterior_row", "ctc.posterior")
        p(decoder, "advance_position", "decoder.advance_position", before=advance_position)
        p(decoder, "append_history", "decoder.append_history")
        p(lm.NgramLM, "extend", "lm.extend")
        p(lm.UniformLM, "extend", "lm.extend")
        p(lm, "ngram_load", "lm.ngram_load")
        p(search, "prune", "search.prune", before=prune_in, after=prune_out)
        for cls in (search.JointSearch, search.CtcPrefixSearch):
            p(cls, "advance", "search.advance", before=advance_in, after=advance_out)
            p(cls, "finalize", "search.finalize")
        p(streaming.StreamingSession, "push", "streaming.push")
        p(streaming.StreamingSession, "finalize", "streaming.finalize")
        for fn in ("load_model", "load_vocab", "load_features"):
            p(modelio, fn, f"modelio.{fn}")

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis

    def _arrays(self):
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
        return name, parent, dur, parent_name

    def summary(self, setups):
        """Span totals, self times and counts, keyed as in PER_LAYER.

        ``.s`` is the time inside a layer's outermost spans (a span nested
        in one of the same name is not counted twice); ``.self_s`` is that
        time minus what the span's direct children cover.  Set-up layers
        are divided by the number of set-ups traced.  Metrics measured
        outside the spans are filled in by the caller.
        """
        name, parent, dur, parent_name = self._arrays()
        ids = self._ids

        def spans(n):
            nid = ids.get(n, -2)
            return (name == nid) & (parent_name != nid)

        def total(n):
            return float(dur[spans(n)].sum())

        def calls(n):
            return int(np.count_nonzero(name == ids.get(n, -2)))

        def self_time(n, children=None):
            nid = ids.get(n, -2)
            child = parent_name == nid
            if children is not None:
                child &= np.isin(name, [ids[x] for x in children if x in ids])
            return total(n) - float(dur[child].sum())

        c = self.counts
        out = {}
        for metric, _, _ in PER_LAYER:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls(layer)
            elif kind == "s":
                out[metric] = total(layer) / (setups if layer in _SETUP_LAYERS else 1)
        out["attention.mha.self_s"] = self_time("attention.mha")
        out["decoder.advance_position.self_s"] = self_time("decoder.advance_position")
        out["search.advance.self_s"] = self_time("search.advance")
        out["streaming.push.self_s"] = self_time("streaming.push", _SEARCH_AND_POSTERIOR)
        out["streaming.finalize.self_s"] = self_time("streaming.finalize", _SEARCH_AND_POSTERIOR)
        out["kernels.matmul.rows"] = c["kernels.matmul.rows"]
        out["kernels.matmul.mflop"] = c["kernels.matmul.flop"] / 1e6
        out["attention.mha.kv_rows"] = c["attention.mha.kv_rows"]
        out["attention.sdpa.scores"] = c["attention.sdpa.scores"]
        out["ctc.prefix_step.prefixes_in"] = c["ctc.prefix_step.prefixes_in"]
        out["ctc.prefix_step.prefixes_out"] = c["ctc.prefix_step.prefixes_out"]
        out["decoder.advance_position.enc_rows"] = c["decoder.advance_position.enc_rows"]
        out["decoder.advance_position.hist_rows"] = c["decoder.advance_position.hist_rows"]
        out["search.prune.in"] = c["search.prune.in"]
        # A ratio whose base is zero (no pruning, no decoder calls) reads 0.
        out["search.prune.kept_ratio"] = (c["search.prune.out"] / c["search.prune.in"]
                                          if c["search.prune.in"] else 0.0)
        out["search.beam_mean"] = float(np.mean(self._beams)) if self._beams else 0.0
        out["search.ta_useful_ratio"] = (c["search.ta_new_kept"] / c["search.ta_scored"]
                                         if c["search.ta_scored"] else 0.0)
        return out

    def save(self, path):
        """Write every span (and the name table) as a compressed .npz."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            utterance=np.array(self.utt, dtype=np.int32),
            start=np.array(self.start), end=np.array(self.end),
        )
