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

    python3 scripts/encoder_cost.py              # 4 s utterance, best of 5
    python3 scripts/encoder_cost.py --seconds 1  # quick smoke run
"""

import os

# One BLAS thread, as in the benchmark; it must be set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from streamasr import encode, random_features, random_model  # noqa: E402
from streamasr.encoder import IncrementalEncoder  # noqa: E402

MID_MODEL = dict(d_feat=40, d_model=64, d_ff=256, heads=4, e_layers=6, d_layers=2, vocab_size=30)
EPS_ENC = 1
CHUNK_FRAMES = 4  # 40 ms of 10 ms feature frames
REPEATS = 5  # runs per path; the best is kept
SEED = 0


def best_of(fn):
    """The fastest of REPEATS runs of fn, in seconds, and every run's result."""
    best, outs = float("inf"), []
    for _ in range(REPEATS):
        t0 = perf_counter()
        outs.append(fn())
        best = min(best, perf_counter() - t0)
    return best, outs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=4.0, help="utterance length")
    args = ap.parse_args()

    model = random_model(SEED, **MID_MODEL)
    feats = random_features(SEED + 1, max(1, int(args.seconds * 100)), MID_MODEL["d_feat"])
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


if __name__ == "__main__":
    main()
