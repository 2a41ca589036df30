#!/usr/bin/env python3
"""Print what set-up costs: each loader's time and a streaming session's build.

Writes the cost scripts' one input set (``lockstep.write_inputs``: a
random mid-size model archive, the benchmark's dimensions, 123 tensors
in 1.85 MB; a 30-token vocabulary; a random back-off bigram ARPA file,
28 unigrams and about 400 bigrams) to a temporary directory, then times
``load_model``, ``load_vocab``, ``ngram_load`` (through the vocabulary)
and the build of one joint ``StreamingSession`` on what they loaded.
Rounds (``lockstep.rounds``) repeat for ``--seconds``; each call's
printed time is the best of its rounds, and a full garbage collection
runs before each call, untimed, as the benchmark runs one before each
set-up.  The script exits 1 if any loaded tensor differs from the saved
one bit for bit, any token from the written vocabulary, or any LM entry
from the written text.

``--baseline SRC_DIR`` also imports a second copy of the package from
SRC_DIR (another checkout's ``src``) under another name and times its
loaders on the same files in the same rounds, alternating which copy
goes first from one call and one round to the next.  The script prints
the median and the quartiles of the paired ratios (``lockstep.paired``:
this copy's time over the baseline's, each summed over two rounds in
which each copy makes the call once first and once second) per call and
for the whole set-up, whose time is the sum of its calls'.  A call can
run faster first than second, and faster where memory was just freed,
so the two rounds cancel the order, and each round starts with both
copies' earlier loads freed.  It exits 1 if any tensor, token or LM
entry the two copies load differs from what was written.

    python3 scripts/setup_cost.py              # 4 s of rounds
    python3 scripts/setup_cost.py --seconds 1  # quick smoke run
    python3 scripts/setup_cost.py --seconds 8 --baseline ../parent/src
"""

# first: one BLAS thread, before numpy loads
from lockstep import import_baseline, paired, rounds, spread, write_inputs

import argparse
import functools
import gc
import os
import sys
import tempfile

import streamasr

SEARCH = dict(k_size=16, p_size=8, eps_dec=4)
EPS_ENC = 1
MIN_ROUNDS = 5
SEED = 0
LOADERS = ("load_model", "load_vocab", "ngram_load", "session")


class Side:
    """One package copy's set-up calls on the input files, one step each
    in LOADERS order; a call reads what the round's earlier calls
    loaded, ``loaded``."""

    def __init__(self, pkg, paths):
        self.pkg, self.paths = pkg, paths

    def prepare(self, j, loaded):
        """Step j's call, after a full collection."""
        gc.collect()
        return functools.partial(getattr(self, LOADERS[j]), loaded)

    def load_model(self, loaded):
        return self.pkg.load_model(self.paths["model"])

    def load_vocab(self, loaded):
        return self.pkg.load_vocab(self.paths["vocab"])

    def ngram_load(self, loaded):
        return self.pkg.ngram_load(self.paths["lm"], token_to_id=loaded[1].token_to_id)

    def session(self, loaded):
        pkg = self.pkg
        params = pkg.DecodeParams(**SEARCH)
        config = pkg.StreamConfig(eps_enc=EPS_ENC, eps_dec=SEARCH["eps_dec"], frame_shift_ms=10.0)
        return pkg.StreamingSession(loaded[0], loaded[2], params, config)


def archive(pkg, model, d, tag):
    """The bytes of ``model``'s archive as ``pkg`` saves it: equal archives
    hold equal tensors, bit for bit."""
    path = os.path.join(d, f"{tag}.model")
    pkg.save_model(path, model)
    with open(path, "rb") as f:
        return f.read()


def check(sides, loads, want_model, tokens, entries, d):
    """The mismatches of each side's last loads against the written files
    (an empty list if all agree, and so if the sides agree)."""
    bad = []
    want = archive(streamasr, want_model, d, "want")
    for i, (side, (model, vocab, lm, _)) in enumerate(zip(sides, loads)):
        name = "this copy" if i == 0 else "baseline"
        if archive(side.pkg, model, d, f"side{i}") != want:
            bad.append(f"{name}: a loaded tensor differs from the saved one")
        if vocab.tokens != tokens:
            bad.append(f"{name}: the loaded tokens differ from the written ones")
        ids = {v: k for k, v in vocab.token_to_id.items()}
        got = {tuple(ids[j] for j in k): v for k, v in lm._entries.items()}
        if got != entries:
            bad.append(f"{name}: the loaded LM entries differ from the written ones")
    return bad


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
        times, loads = rounds(sides, len(LOADERS), MIN_ROUNDS, args.seconds)
        bad = check(sides, loads, model, tokens, entries, d)
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
        ratios = paired(times)  # (pairs of rounds, calls)
        print(f"lockstep against {args.baseline}: paired ratio (this/baseline), median "
              f"[quartiles]: " + ", ".join(f"{name} {spread(ratios[:, j])}"
                                            for j, name in enumerate(LOADERS)))
        print(f"whole set-up: {spread(paired(times.sum(axis=2, keepdims=True)))}")


if __name__ == "__main__":
    main()
