"""Shared builders for randomized test inputs."""

import math

import numpy as np

from streamasr.decoder import CrossAttentionCache, advance_positions, empty_history
from streamasr.lm import NgramLM
from streamasr.modelio import random_model


def logprob_rows(rng, n, c):
    """(n, c) float64 rows of exactly-normalized log probabilities."""
    z = rng.normal(size=(n, c))
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def random_posteriorgram(rng, n, c):
    """An (n, c) posteriorgram of random, exactly-normalized rows."""
    return logprob_rows(rng, n, c)


def tiny_model(seed, **kw):
    """Small-width model so randomized sweeps stay fast."""
    kw.setdefault("d_feat", 4)
    kw.setdefault("d_model", 8)
    kw.setdefault("d_ff", 16)
    kw.setdefault("heads", 2)
    kw.setdefault("e_layers", 2)
    kw.setdefault("d_layers", 1)
    kw.setdefault("vocab_size", 5)
    return random_model(seed, **kw)


def bigram(rng, n_labels, quantized):
    """A back-off bigram over label ids, built in memory."""
    def logp():
        return math.log(rng.choice([0.25, 0.5])) if quantized else math.log(rng.uniform(0.05, 1))

    entries = {(a,): (logp(), logp()) for a in range(n_labels)}
    for a in range(n_labels):
        for b in range(n_labels):
            if rng.random() < 0.5:
                entries[(a, b)] = (logp(), 0.0)
    return NgramLM(entries, 2)


def random_enc_states(rng, n, d_model):
    return rng.standard_normal((n, d_model)).astype(np.float32)


def next_label_logp(dec, enc, nu, context):
    """Float64 log posterior of the label after ``context`` (label ids,
    the start token implicit), every position stepped through
    ``advance_positions`` at truncation nu on one CrossAttentionCache."""
    cache = CrossAttentionCache(dec, enc)
    hist = empty_history(dec)
    for pos, token in enumerate([dec.sos_id, *context]):
        [(hist, logp, _)] = advance_positions(dec, cache, [hist], [token], [pos], nu)
    return logp


def normalized_bigram_arpa(rng, ids):
    """ARPA text for a properly normalized back-off bigram over ``ids``.

    Unigram probabilities sum to one; for each history a random subset of
    successors gets explicit bigram probabilities and the backoff weight
    is solved so the full conditional distribution still sums to one.
    """
    ids = list(ids)
    uni = rng.dirichlet(np.ones(len(ids))) * 0.98 + 0.02 / len(ids)
    uni = uni / uni.sum()
    lines = ["\\data\\", f"ngram 1={len(ids)}", f"ngram 2={len(ids) * len(ids)}", "",
             "\\1-grams:"]
    bigram_lines = []
    backoffs = {}
    for h, hid in enumerate(ids):
        keep = [w for w in range(len(ids)) if rng.random() < 0.5]
        if len(keep) == len(ids):
            keep = keep[:-1]
        cond = rng.dirichlet(np.ones(len(ids)))
        explicit = sum(cond[w] for w in keep)
        rest_uni = sum(uni[w] for w in range(len(ids)) if w not in keep)
        backoffs[h] = (1.0 - explicit) / rest_uni
        for w in keep:
            bigram_lines.append(f"{math.log10(cond[w])!r} {hid} {ids[w]}")
    for h, hid in enumerate(ids):
        lines.append(f"{math.log10(uni[h])!r} {hid} {math.log10(backoffs[h])!r}")
    lines += ["", "\\2-grams:"] + bigram_lines + ["", "\\end\\", ""]
    return "\n".join(lines)


class HookFailed(Exception):
    """What :class:`RaiseOnce` raises."""


class RaiseOnce:
    """A search hook that raises :class:`HookFailed` on its ``call``-th
    call at frame ``at``, once, and otherwise answers as ``inner``."""

    def __init__(self, inner, at, call=1):
        self.inner, self.at, self.call = inner, at, call
        self.calls = 0
        self.raised = False

    def __call__(self, pre, view, frame, row):
        if frame == self.at and not self.raised:
            self.calls += 1
            if self.calls == self.call:
                self.raised = True
                raise HookFailed(f"hook failed at frame {frame}")
        return self.inner(pre, view, frame, row)
