#!/usr/bin/env python3
"""Print what set-up costs: each loader's time and a streaming session's build.

Writes a random mid-size model archive (the benchmark's dimensions: 123
tensors in 1.85 MB), a 30-token vocabulary and a random back-off bigram
ARPA file (28 unigrams, about 400 bigrams) to a temporary directory,
then times ``load_model``, ``load_vocab``, ``ngram_load`` (through the
vocabulary) and the build of one joint ``StreamingSession`` on what
they loaded.  Rounds repeat for ``--seconds``; each call's printed time
is the best of its rounds, and a full garbage collection runs before
each call, as the benchmark runs one before each set-up.  The script
exits 1 if any loaded tensor differs from the saved one bit for bit,
any token from the written vocabulary, or any LM entry from the written
text.

``--baseline SRC_DIR`` also imports a second copy of the package from
SRC_DIR (another checkout's ``src``) under another name and times its
loaders on the same files in the same rounds, alternating which copy
goes first from one call and one round to the next.  Each two rounds,
in which each copy makes each call once first and once second, give
each call one paired ratio: this copy's time over the baseline's, each
summed over the two rounds.  The script prints the median and the
quartiles of those ratios per call and for the whole set-up, whose time
is the sum of its calls'.  Pairs taken moments apart share the
machine's state, so their ratio holds still where the best of each
side's rounds, taken in different rounds, does not.  A call can run
faster first than second, and faster where memory was just freed, so
the two rounds cancel the order, and each round starts with both
copies' earlier loads freed.  It exits 1 if any tensor, token or LM
entry the two copies load differs.

    python3 scripts/setup_cost.py              # 4 s of rounds
    python3 scripts/setup_cost.py --seconds 1  # quick smoke run
    python3 scripts/setup_cost.py --seconds 8 --baseline ../parent/src
"""

from lockstep import MID_MODEL, import_baseline  # first: one BLAS thread, before numpy loads

import argparse
import gc
import math
import os
import sys
import tempfile
from time import perf_counter

import numpy as np

import streamasr

SEARCH = dict(k_size=16, p_size=8, eps_dec=4)
EPS_ENC = 1
MIN_ROUNDS = 5
SEED = 0
LOADERS = ("load_model", "load_vocab", "ngram_load", "session")


def write_inputs(d, seed):
    """The archive, vocabulary and ARPA file in directory d -> (paths, the
    saved model, the tokens, the LM entries the ARPA text holds in
    natural log, keyed by token tuples)."""
    rng = np.random.default_rng(seed)
    model = streamasr.random_model(seed, **MID_MODEL)
    tokens = ["<sos>", "<eos>"] + [f"w{i:02d}" for i in range(MID_MODEL["vocab_size"] - 2)]
    labels = tokens[2:]
    paths = {k: os.path.join(d, name) for k, name in
             (("model", "mid.model"), ("vocab", "mid.vocab"), ("lm", "bigram.arpa"))}
    streamasr.save_model(paths["model"], model)
    streamasr.save_vocab(paths["vocab"], streamasr.Vocab(tokens))
    # every label has a unigram and a back-off weight; about half of the
    # label pairs have a bigram, so scoring takes both paths
    uni = [f"{v:.6f}" for v in np.log10(rng.dirichlet(np.ones(len(labels))))]
    back = [f"{v:.6f}" for v in rng.uniform(-1.0, 0.0, len(labels))]
    pairs = [(a, b, f"{math.log10(rng.uniform(0.01, 1.0)):.6f}")
             for a in labels for b in labels if rng.random() < 0.5]
    entries = {(t,): (float(lp) * streamasr.lm.LN10, float(bo) * streamasr.lm.LN10)
               for t, lp, bo in zip(labels, uni, back)}
    entries.update({(a, b): (float(lp) * streamasr.lm.LN10, 0.0) for a, b, lp in pairs})
    with open(paths["lm"], "w", encoding="utf-8") as f:
        f.write(f"\\data\\\nngram 1={len(labels)}\nngram 2={len(pairs)}\n\n\\1-grams:\n")
        f.writelines(f"{lp} {t} {bo}\n" for t, lp, bo in zip(labels, uni, back))
        f.write("\n\\2-grams:\n")
        f.writelines(f"{lp} {a} {b}\n" for a, b, lp in pairs)
        f.write("\n\\end\\\n")
    return paths, model, tokens, entries


class Side:
    """One package copy's set-up calls on the input files, run in LOADERS
    order; ``loaded`` holds each call's result of the current round, and
    is cleared at the start of each round."""

    def __init__(self, pkg, paths):
        self.pkg, self.paths = pkg, paths
        self.loaded = {}

    def load_model(self):
        return self.pkg.load_model(self.paths["model"])

    def load_vocab(self):
        return self.pkg.load_vocab(self.paths["vocab"])

    def ngram_load(self):
        return self.pkg.ngram_load(self.paths["lm"],
                                   token_to_id=self.loaded["load_vocab"].token_to_id)

    def session(self):
        pkg = self.pkg
        params = pkg.DecodeParams(**SEARCH)
        config = pkg.StreamConfig(eps_enc=EPS_ENC, eps_dec=SEARCH["eps_dec"], frame_shift_ms=10.0)
        return pkg.StreamingSession(self.loaded["load_model"], self.loaded["ngram_load"],
                                    params, config)


def archive(pkg, model, d, tag):
    """The bytes of ``model``'s archive as ``pkg`` saves it: equal archives
    hold equal tensors, bit for bit."""
    path = os.path.join(d, f"{tag}.model")
    pkg.save_model(path, model)
    with open(path, "rb") as f:
        return f.read()


def check(sides, want_model, tokens, entries, d):
    """The mismatches of each side's last loads against the written files
    (an empty list if all agree, and so if the sides agree)."""
    bad = []
    want = archive(streamasr, want_model, d, "want")
    for i, side in enumerate(sides):
        name = "this copy" if i == 0 else "baseline"
        if archive(side.pkg, side.loaded["load_model"], d, f"side{i}") != want:
            bad.append(f"{name}: a loaded tensor differs from the saved one")
        vocab = side.loaded["load_vocab"]
        if vocab.tokens != tokens:
            bad.append(f"{name}: the loaded tokens differ from the written ones")
        ids = {v: k for k, v in vocab.token_to_id.items()}
        got = {tuple(ids[j] for j in k): v for k, v in side.loaded["ngram_load"]._entries.items()}
        if got != entries:
            bad.append(f"{name}: the loaded LM entries differ from the written ones")
    return bad


def rounds(sides, seconds):
    """Time every set-up call of each side, rounds repeated for ``seconds``
    (at least MIN_ROUNDS, and an even number) -> the seconds of each,
    (rounds, sides, calls)."""
    times = []
    t_end = perf_counter() + seconds
    while len(times) < MIN_ROUNDS or perf_counter() < t_end or len(times) % 2:
        r = len(times)
        times.append(np.empty((len(sides), len(LOADERS))))
        for side in sides:  # free both sides' earlier loads alike
            side.loaded.clear()
        for j, name in enumerate(LOADERS):
            for k in range(len(sides)):
                i = (k + r + j) % len(sides)
                gc.collect()
                t0 = perf_counter()
                out = getattr(sides[i], name)()
                times[r][i, j] = perf_counter() - t0
                sides[i].loaded[name] = out
    return np.array(times)


def spread(ratios):
    """The median of ``ratios`` and its quartiles, as text."""
    q1, med, q3 = np.percentile(ratios, [25, 50, 75])
    return f"{med:.3f} [{q1:.3f}, {q3:.3f}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=4.0, help="time to spend on rounds")
    ap.add_argument("--baseline", metavar="SRC_DIR",
                    help="another copy's src directory, timed against this one call by call")
    args = ap.parse_args()
    base = None if args.baseline is None else import_baseline(args.baseline)

    with tempfile.TemporaryDirectory() as d:
        paths, model, tokens, entries = write_inputs(d, SEED)
        sides = [Side(streamasr, paths)] + ([] if base is None else [Side(base, paths)])
        times = rounds(sides, args.seconds)
        bad = check(sides, model, tokens, entries, d)
        size = os.path.getsize(paths["model"])
    if bad:
        sys.exit("; ".join(bad))

    best = times.min(axis=0)
    print(f"mid model archive {size / 1e6:.2f} MB, {len(tokens)} tokens, "
          f"{sum(len(k) == 1 for k in entries)} unigrams and "
          f"{sum(len(k) == 2 for k in entries)} bigrams; best of {len(times)} rounds")
    print("this copy: " + ", ".join(f"{name} {best[0, j] * 1e6:.0f} us"
                                    for j, name in enumerate(LOADERS)))
    if base is not None:
        print("baseline:  " + ", ".join(f"{name} {best[1, j] * 1e6:.0f} us"
                                        for j, name in enumerate(LOADERS)))
        pairs = times.reshape(-1, 2, *times.shape[1:]).sum(axis=1)  # two rounds each
        ratios = pairs[:, 0] / pairs[:, 1]  # (pairs of rounds, calls)
        print(f"lockstep against {args.baseline}: paired ratio (this/baseline), median "
              f"[quartiles]: " + ", ".join(f"{name} {spread(ratios[:, j])}"
                                            for j, name in enumerate(LOADERS)))
        print(f"whole set-up: {spread(pairs[:, 0].sum(axis=1) / pairs[:, 1].sum(axis=1))}")


if __name__ == "__main__":
    main()
