#!/usr/bin/env python3
"""Print the streaming encoder's cost per audio second against offline's.

Builds a random mid-size model (the benchmark's dimensions) and one random
utterance, then times the encoder alone, eps_enc 1: offline ``encode``
(one final push) and ``IncrementalEncoder.push`` fed 40 ms chunks plus the
final flush.  Each is the best of ``REPEATS`` runs, in seconds per
audio second; the ratio streaming/offline is the fixed per-push cost the
streaming path pays on top of the rows it computes.  It also prints the
median cost of one streaming push in the first and the last quarter of
the utterance (each push timed as the best of its ``REPEATS`` runs), so
a cost that grows with stream length shows, and the median cost of the
conv front end and projection alone (``IncrementalEncoder.front_end``)
per push, so its share of a push shows.  Both paths must return the
same bits, and the script exits 1 if they do not.

``--baseline SRC_DIR`` also imports a second copy of the package from
SRC_DIR (another checkout's ``src``) under another name, builds the same
model and utterance with it, and steps both streaming encoders push by
push in one process, alternating which of the two goes first from one
push and one run to the next.  Each push is timed as the best of its
``REPEATS`` runs on each side; the script prints the median per-push
ratio (this copy / baseline) over the whole utterance and in each
quarter.  Each run ends with ``FLUSHES`` final flushes
(``push(None, final=True)``) of each side, alternating which goes
first, each on a copy of the pushed encoder; the script prints the
ratio of the two best flushes.  The flush is where the encoder scores
look-ahead-limited rows in a streaming session.  The script exits 1 if
any encoder row of the two differs.

    python3 scripts/encoder_cost.py              # 4 s utterance, best of 5
    python3 scripts/encoder_cost.py --seconds 1  # quick smoke run
    python3 scripts/encoder_cost.py --seconds 8 --baseline ../parent/src
"""

from lockstep import MID_MODEL, import_baseline  # first: one BLAS thread, before numpy loads

import argparse
import copy
import sys
from time import perf_counter

import numpy as np

import streamasr
from streamasr import encode, random_features, random_model
from streamasr.encoder import IncrementalEncoder

EPS_ENC = 1
CHUNK_FRAMES = 4  # 40 ms of 10 ms feature frames
REPEATS = 5  # runs per path; the best is kept
FLUSHES = 20  # final flushes timed per lockstep run, each on a copy of the pushed encoder
SEED = 0


def best_of(fn):
    """The fastest of REPEATS runs of fn, in seconds, and every run's result."""
    best, outs = float("inf"), []
    for _ in range(REPEATS):
        t0 = perf_counter()
        outs.append(fn())
        best = min(best, perf_counter() - t0)
    return best, outs


def lockstep(base, frames, seed):
    """Both streaming encoders pushed chunk by chunk in turn, REPEATS
    times, each run ending with FLUSHES final flushes of each side, each
    on a copy of the pushed encoder -> each push's best time on this
    copy and on ``base``, (2, pushes + 1) with the flush's last, or None
    if any encoder row differs."""
    encoders = [(pkg.encoder.IncrementalEncoder, pkg.random_model(seed, **MID_MODEL).encoder)
                for pkg in (streamasr, base)]
    starts = range(0, frames.shape[0], CHUNK_FRAMES)
    best = np.full((2, len(starts) + 1), np.inf)

    def step(i, first, encs, chunk):
        """One push of each side's encoder in ``encs``, side ``first``
        first -> whether their rows agree; a flush (``chunk`` None) runs
        on a copy made just before it."""
        rows = [None, None]
        for side in (first, 1 - first):
            enc = encs[side] if chunk is not None else copy.deepcopy(encs[side])
            t0 = perf_counter()
            rows[side] = enc.push(chunk, final=chunk is None)
            best[side, i] = min(best[side, i], perf_counter() - t0)
        return np.array_equal(rows[0], rows[1])

    for r in range(REPEATS):
        live = [cls(params, EPS_ENC) for cls, params in encoders]
        for i, t in enumerate(starts):
            if not step(i, (i + r) % 2, live, frames[t:t + CHUNK_FRAMES]):
                return None
        for j in range(FLUSHES):
            if not step(-1, (j + r) % 2, live, None):
                return None
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=4.0, help="utterance length")
    ap.add_argument("--seed", type=int, default=SEED, help="model and utterance seed")
    ap.add_argument("--baseline", metavar="SRC_DIR",
                    help="another copy's src directory, timed against this one push by push")
    args = ap.parse_args()
    base = None if args.baseline is None else import_baseline(args.baseline)

    model = random_model(args.seed, **MID_MODEL)
    feats = random_features(args.seed + 1, max(1, int(args.seconds * 100)), MID_MODEL["d_feat"])
    frames = feats.frames
    audio_s = frames.shape[0] * feats.frame_shift_ms / 1000.0

    def offline():
        return encode(feats, model.encoder, EPS_ENC)

    def streaming():
        """The encoder rows, and the seconds each chunk's push took."""
        enc = IncrementalEncoder(model.encoder, EPS_ENC)
        rows, pushes = [], []
        for t in range(0, frames.shape[0], CHUNK_FRAMES):
            t0 = perf_counter()
            rows.append(enc.push(frames[t:t + CHUNK_FRAMES]))
            pushes.append(perf_counter() - t0)
        rows.append(enc.push(None, final=True))
        return np.concatenate(rows), pushes

    def front_end():
        """The seconds each chunk's front end took."""
        enc = IncrementalEncoder(model.encoder, EPS_ENC)
        pushes = []
        for t in range(0, frames.shape[0], CHUNK_FRAMES):
            t0 = perf_counter()
            enc.front_end(frames[t:t + CHUNK_FRAMES], False)
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
        best = lockstep(base, frames, args.seed)
        if best is None:
            sys.exit(f"encoder rows differ from the baseline in {args.baseline}")
        ratio = best[0, :-1] / best[1, :-1]
        quarters = " ".join(f"{float(np.median(q)):.3f}" for q in np.array_split(ratio, 4))
        print(f"lockstep against {args.baseline}: median per-push ratio (this/baseline) "
              f"{float(np.median(ratio)):.3f}, by quarter {quarters}; "
              f"median push {float(np.median(best[0, :-1])) * 1e6:.0f} us against "
              f"{float(np.median(best[1, :-1])) * 1e6:.0f} us")
        print(f"lockstep final flush (push(None, final=True)): ratio (this/baseline) "
              f"{best[0, -1] / best[1, -1]:.3f}; {best[0, -1] * 1e6:.0f} us against "
              f"{best[1, -1] * 1e6:.0f} us")


if __name__ == "__main__":
    main()
