#!/usr/bin/env python3
"""Print the cost of the decoder step, ``advance_positions``, call by call.

Builds a random mid-size model (the benchmark's dimensions) and one random
utterance, encodes it, and runs one offline joint decode (k 16, p 8,
eps_dec 4, uniform LM), recording every ``decoder.advance_positions``
call the search makes: which earlier call's row each history and stem
came from, the tokens, the positions and the truncation.  It then
replays the recorded calls in order, each call ``REPEATS`` times, and
prints the calls, the rows per call and the share of rows that bring a
stem, the summed best time of the calls and the median call.

``--baseline SRC_DIR`` also imports a second copy of the package from
SRC_DIR (another checkout's ``src``) under another name and replays the
same calls through both copies in lockstep, alternating which of the two
goes first from one call and one repeat to the next.  Each side builds
its own model and cross-attention cache from the same encoder rows, and
feeds each call the histories and stems its own earlier calls returned,
so each side runs its own formats.  The script prints the ratio (this
copy / baseline) of the summed best times and the median per-call
ratio, overall and by the rows a call carries.  It exits 1 if any
history or log posterior of the two copies differs.

    python3 scripts/decoder_cost.py              # 4 s utterance, best of 5
    python3 scripts/decoder_cost.py --seconds 1  # quick smoke run
    python3 scripts/decoder_cost.py --seconds 4 --baseline ../parent/src
"""

from lockstep import MID_MODEL, import_baseline  # first: one BLAS thread, before numpy loads

import argparse
import sys
from time import perf_counter

import numpy as np

import streamasr
from streamasr import decoder as dec_mod

EPS_ENC = 1
SEARCH = dict(k_size=16, p_size=8, eps_dec=4)
REPEATS = 5  # runs per call and side; the best is kept
SEED = 0


def record(enc, post, dec):
    """One offline joint decode with every ``advance_positions`` call
    recorded -> a list of (sources, tokens, positions, nu), where
    ``sources[i]`` is ((call, row), (call, row)): the earlier call and
    row that returned row i's history and its stem, None for an empty
    history and for a row handed no stem."""
    calls, made, outputs = [], {}, []
    real = dec_mod.advance_positions

    def recording(params, cache, hists, token_ids, pos_indices, nu, stems=None):
        stems = [None] * len(hists) if stems is None else stems
        sources = []
        for hist, stem in zip(hists, stems):
            source = (made.get(id(hist)), None if stem is None else made[id(stem)])
            if source[0] is None and hist.shape[3]:
                raise RuntimeError("a history that no recorded call returned")
            sources.append(source)
        out = real(params, cache, hists, token_ids, pos_indices, nu, stems)
        for row, (hist, _, stem) in enumerate(out):
            made[id(hist)] = made[id(stem)] = (len(calls), row)
        outputs.append(out)  # keeps each id unique while recording
        calls.append((sources, list(token_ids), list(pos_indices), nu))
        return out

    dec_mod.advance_positions = recording
    try:
        lm = streamasr.UniformLM(dec.vocab_size - len(dec.reserved_ids))
        streamasr.decode(enc, post, lm, dec, streamasr.DecodeParams(**SEARCH))
    finally:
        dec_mod.advance_positions = real
    return calls


class Side:
    """One package copy replaying the recorded calls on its own model and
    cache, each call fed the histories and stems its own earlier calls
    returned."""

    def __init__(self, pkg, enc, seed):
        self.dec = pkg.random_model(seed, **MID_MODEL).decoder
        self.step = pkg.decoder.advance_positions
        self.cache = pkg.decoder.CrossAttentionCache(self.dec, enc)
        self.empty = pkg.decoder.empty_history(self.dec)
        self.outputs = []

    def arguments(self, call):
        sources, tokens, positions, nu = call
        hists, stems = [], []
        for hist, stem in sources:
            hists.append(self.empty if hist is None else self.outputs[hist[0]][hist[1]][0])
            stems.append(None if stem is None else self.outputs[stem[0]][stem[1]][2])
        return self.dec, self.cache, hists, tokens, positions, nu, stems


def replay(sides, calls):
    """Every recorded call run REPEATS times on each side, alternating
    which side goes first -> (sides, calls) best seconds, or None if the
    sides' histories or log posteriors differ on some row."""
    best = np.full((len(sides), len(calls)), np.inf)
    for i, call in enumerate(calls):
        args = [side.arguments(call) for side in sides]
        outs = [None] * len(sides)
        for r in range(REPEATS):
            for j in range(len(sides)):
                s = (j + i + r) % len(sides)
                t0 = perf_counter()
                outs[s] = sides[s].step(*args[s])
                best[s, i] = min(best[s, i], perf_counter() - t0)
        for side, out in zip(sides, outs):
            side.outputs.append(out)
        if len(outs[0]) != len(outs[-1]):
            return None
        for row, other in zip(outs[0], outs[-1]):
            if not (np.array_equal(row[0], other[0]) and np.array_equal(row[1], other[1])):
                return None
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=4.0, help="utterance length")
    ap.add_argument("--seed", type=int, default=SEED, help="model and utterance seed")
    ap.add_argument("--baseline", metavar="SRC_DIR",
                    help="another copy's src directory, timed against this one call by call")
    args = ap.parse_args()
    base = None if args.baseline is None else import_baseline(args.baseline)

    model = streamasr.random_model(args.seed, **MID_MODEL)
    feats = streamasr.random_features(args.seed + 1, max(4, int(args.seconds * 100)),
                                      MID_MODEL["d_feat"])
    enc = streamasr.encode(feats, model.encoder, EPS_ENC)
    post = streamasr.posteriorgram_from_states(enc, model.ctc_w, model.ctc_b)
    calls = record(enc, post, model.decoder)
    if not calls:
        sys.exit("the decode made no decoder call")

    sides = [Side(streamasr, enc, args.seed)]
    if base is not None:
        sides.append(Side(base, enc, args.seed))
    best = replay(sides, calls)
    if best is None:
        sys.exit(f"a history or log posterior differs from the baseline in {args.baseline}")

    rows = np.array([len(call[1]) for call in calls])
    stems = sum(stem is not None for call in calls for _, stem in call[0])
    audio_s = feats.frames.shape[0] * feats.frame_shift_ms / 1000.0
    print(f"{audio_s:g} s utterance, {enc.shape[0]} encoder rows, "
          f"{len(calls)} advance_positions calls, {rows.mean():.2f} rows per call, "
          f"{stems / rows.sum():.0%} of rows with a stem, best of {REPEATS}")
    print(f"this copy: summed {best[0].sum() * 1e3:.2f} ms, "
          f"median call {float(np.median(best[0])) * 1e6:.0f} us")
    if base is not None:
        ratio = best[0] / best[1]
        by_rows = " ".join(f"{b}:{float(np.median(ratio[rows == b])):.3f}"
                           for b in sorted(set(rows.tolist())))
        print(f"baseline:  summed {best[1].sum() * 1e3:.2f} ms, "
              f"median call {float(np.median(best[1])) * 1e6:.0f} us")
        print(f"lockstep against {args.baseline}: summed ratio (this/baseline) "
              f"{best[0].sum() / best[1].sum():.3f}, median per-call ratio "
              f"{float(np.median(ratio)):.3f}; by rows per call {by_rows}")


if __name__ == "__main__":
    main()
