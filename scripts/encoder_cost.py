#!/usr/bin/env python3
"""Print the streaming encoder's cost per audio second against offline's.

Loads the random mid-size model (the benchmark's dimensions) that
``lockstep.write_inputs`` writes, builds one random utterance, then
times the encoder alone, eps_enc 1: offline ``encode`` (one final push)
and ``IncrementalEncoder.push`` fed 40 ms chunks plus the final flush.
Each is the best of ``REPEATS`` runs, in seconds per audio second; the
ratio streaming/offline is the fixed per-push cost the streaming path
pays on top of the rows it computes.  It also prints the
median cost of one streaming push in the first and the last quarter of
the utterance (each push timed as the best of its ``REPEATS`` runs), so
a cost that grows with stream length shows, and the median cost of the
conv front end and projection alone (``IncrementalEncoder.front_end``)
per push, so its share of a push shows.  Both paths must return the
same bits, and the script exits 1 if they do not.

``--baseline SRC_DIR`` also imports a second copy of the package from
SRC_DIR (another checkout's ``src``) under another name; each copy
loads the archive, and ``lockstep.rounds`` steps both streaming
encoders through the utterance in ``REPEATS`` rounds.  A round's steps
are the pushes, then ``FLUSHES`` final flushes
(``push(None, final=True)``, where the encoder scores
look-ahead-limited rows), each on a copy of the pushed encoder made
untimed, then ``ENCODES`` offline ``encode`` calls of the whole
utterance; which copy goes first alternates from one step and one round
to the next.  The script prints the paired per-push, flush and offline
encode ratios (``lockstep.paired``, this copy over the baseline) as
median [quartiles], the per-push median by quarter, and each side's
best times.  It exits 1 if any encoder row of the two differs.

    python3 scripts/encoder_cost.py              # 4 s utterance, best of 6
    python3 scripts/encoder_cost.py --seconds 1  # quick smoke run
    python3 scripts/encoder_cost.py --seconds 8 --baseline ../parent/src
"""

# first: one BLAS thread, before numpy loads
from lockstep import MID_MODEL, import_baseline, paired, rounds, spread, write_inputs

import argparse
import copy
import functools
import sys
import tempfile
from time import perf_counter

import numpy as np

import streamasr
from streamasr import encode, random_features
from streamasr.encoder import IncrementalEncoder

EPS_ENC = 1
CHUNK_FRAMES = 4  # 40 ms of 10 ms feature frames
REPEATS = 6  # runs per path, and lockstep rounds (an even number); the best is kept
FLUSHES = 20  # final flushes timed per lockstep round, each on a copy of the pushed encoder
ENCODES = 4  # offline encodes of the utterance timed per lockstep round
SEED = 0


def best_of(fn):
    """The fastest of REPEATS runs of fn, in seconds, and every run's result."""
    best, outs = float("inf"), []
    for _ in range(REPEATS):
        t0 = perf_counter()
        outs.append(fn())
        best = min(best, perf_counter() - t0)
    return best, outs


class Side:
    """One package copy's encoder on its own load of the archive: step j
    pushes chunk j, each of the ``FLUSHES`` steps after the last chunk is
    a final flush of a copy of the pushed encoder, and each step after
    those an offline ``encode`` of the whole utterance."""

    def __init__(self, pkg, path, chunks):
        self.pkg, self.params = pkg, pkg.load_model(path).encoder
        self.chunks = chunks
        self.frames = np.concatenate(chunks)

    def prepare(self, j, outs):
        if j == 0:
            self.live = self.pkg.encoder.IncrementalEncoder(self.params, EPS_ENC)
        if j < len(self.chunks):
            return functools.partial(self.live.push, self.chunks[j])
        if j < len(self.chunks) + FLUSHES:
            return functools.partial(copy.deepcopy(self.live).push, None, final=True)
        return functools.partial(self.pkg.encode, self.frames, self.params, EPS_ENC)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=4.0, help="utterance length")
    ap.add_argument("--seed", type=int, default=SEED, help="model and utterance seed")
    ap.add_argument("--baseline", metavar="SRC_DIR",
                    help="another copy's src directory, timed against this one push by push")
    args = ap.parse_args()
    base = None if args.baseline is None else import_baseline(args.baseline)

    feats = random_features(args.seed + 1, max(1, int(args.seconds * 100)), MID_MODEL["d_feat"])
    frames = feats.frames
    audio_s = frames.shape[0] * feats.frame_shift_ms / 1000.0
    chunks = [frames[t:t + CHUNK_FRAMES] for t in range(0, frames.shape[0], CHUNK_FRAMES)]
    with tempfile.TemporaryDirectory() as d:
        path = write_inputs(d, args.seed)[0]["model"]
        model = streamasr.load_model(path)
        sides = [] if base is None else [Side(pkg, path, chunks) for pkg in (streamasr, base)]

    def offline():
        return encode(feats, model.encoder, EPS_ENC)

    def streaming():
        """The encoder rows, and the seconds each chunk's push took."""
        enc = IncrementalEncoder(model.encoder, EPS_ENC)
        rows, pushes = [], []
        for chunk in chunks:
            t0 = perf_counter()
            rows.append(enc.push(chunk))
            pushes.append(perf_counter() - t0)
        rows.append(enc.push(None, final=True))
        return np.concatenate(rows), pushes

    def front_end():
        """The seconds each chunk's front end took."""
        enc = IncrementalEncoder(model.encoder, EPS_ENC)
        pushes = []
        for chunk in chunks:
            t0 = perf_counter()
            enc.front_end(chunk, False)
            pushes.append(perf_counter() - t0)
        return pushes

    off_s, off_runs = best_of(offline)
    str_s, str_runs = best_of(streaming)
    _, front_runs = best_of(front_end)
    off_rows, str_rows = off_runs[-1], str_runs[-1][0]
    if not np.array_equal(off_rows, str_rows):
        sys.exit("streaming and offline encoder rows differ")
    pushes = np.min([run[1] for run in str_runs], axis=0)  # each push's best run
    quarter = max(1, len(pushes) // 4)
    first_us = float(np.median(pushes[:quarter])) * 1e6
    last_us = float(np.median(pushes[-quarter:])) * 1e6
    push_us = float(np.median(pushes)) * 1e6
    front_us = float(np.median(np.min(front_runs, axis=0))) * 1e6

    print(f"{audio_s:g} s utterance, {off_rows.shape[0]} encoder rows, eps_enc {EPS_ENC}, "
          f"{CHUNK_FRAMES * 10} ms chunks, best of {REPEATS}")
    print(f"offline   encode: {off_s / audio_s:.4f} s per audio s")
    print(f"streaming push:   {str_s / audio_s:.4f} s per audio s")
    print(f"streaming/offline: {str_s / off_s:.2f}x")
    print(f"streaming push, median per push: first quarter {first_us:.0f} us, "
          f"last quarter {last_us:.0f} us ({last_us / first_us:.2f}x)")
    print(f"front end (conv stack and projection), median per push: {front_us:.0f} us "
          f"of {push_us:.0f} us ({front_us / push_us:.0%})")

    if base is not None:
        times, _ = rounds(sides, len(chunks) + FLUSHES + ENCODES, REPEATS,
                          same=lambda j, a, b: np.array_equal(a, b))
        ratio, best, n, m = paired(times), times.min(axis=0), len(chunks), len(chunks) + FLUSHES
        quarters = " ".join(f"{float(np.median(q)):.3f}"
                            for q in np.array_split(ratio[:, :n], 4, axis=1))
        print(f"lockstep against {args.baseline}: paired per-push ratio (this/baseline), "
              f"median [quartiles] {spread(ratio[:, :n])}, by quarter {quarters}; "
              f"median best push {float(np.median(best[0, :n])) * 1e6:.0f} us against "
              f"{float(np.median(best[1, :n])) * 1e6:.0f} us")
        print(f"lockstep final flush (push(None, final=True)): paired ratio "
              f"{spread(ratio[:, n:m])}; best {best[0, n:m].min() * 1e6:.0f} us against "
              f"{best[1, n:m].min() * 1e6:.0f} us")
        print(f"lockstep offline encode: paired ratio {spread(ratio[:, m:])}; "
              f"best {best[0, m:].min() * 1e3:.2f} ms against {best[1, m:].min() * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
