#!/usr/bin/env python3
"""Print the cost of the decoder step, ``advance_positions``, call by call.

Loads the mid-size model archive (the benchmark's dimensions) that
``lockstep.write_inputs`` writes, encodes one random utterance, and runs
one offline joint decode (k 16, p 8, eps_dec 4, uniform LM), recording
every ``decoder.advance_positions`` call the search makes.  It replays
them in order, in ``REPEATS`` rounds of ``lockstep.rounds``, each round
stepping its own decoder states, so stems carry over as in the decode,
and prints the calls, the rows per call and the share of rows whose
state brings a stem, the summed best time and the median call.

``--baseline SRC_DIR`` also imports a second copy of the package from
SRC_DIR (another checkout's ``src``) under another name and replays the
same calls through both copies in the same rounds, alternating which
goes first from one call and one round to the next.  Each side loads
the archive, builds its own cross-attention cache from the same encoder
rows, and makes its own states from its own calls' histories, so each
side runs its own formats.  The script prints the paired ratios
(``lockstep.paired``, this copy over the baseline) of the summed calls
and per call as median [quartiles], and the median per-call ratio by
the rows a call carries.  It exits 1 if any history or log posterior of
the two copies differs.

    python3 scripts/decoder_cost.py              # 4 s utterance, best of 6
    python3 scripts/decoder_cost.py --seconds 1  # quick smoke run
    python3 scripts/decoder_cost.py --seconds 4 --baseline ../parent/src
"""

# first: one BLAS thread, before numpy loads
from lockstep import MID_MODEL, import_baseline, paired, rounds, spread, write_inputs

import argparse
import functools
import sys
import tempfile

import numpy as np

import streamasr
from streamasr import decoder as dec_mod

EPS_ENC = 1
SEARCH = dict(k_size=16, p_size=8, eps_dec=4)
REPEATS = 6  # rounds of calls (an even number); each call's best is kept
SEED = 0


def record(enc, post, dec):
    """One offline joint decode with every ``advance_positions`` call
    recorded -> a list of (rows, nu), one (history, token, first) per
    row: the call and row that returned the state's history (None if
    empty), its token, and the call and row that first stepped it."""
    calls, made, first, kept = [], {}, {}, []
    real = dec_mod.advance_positions

    def recording(cache, states, nu):
        rows = []
        for i, state in enumerate(states):
            hist = made.get(id(state.hist))
            if hist is None and state.hist.shape[3]:
                raise RuntimeError("a history that no recorded call returned")
            rows.append((hist, state.token, first.setdefault(id(state), (len(calls), i))))
        out = real(cache, states, nu)
        for i, (hist, _) in enumerate(out):
            made[id(hist)] = (len(calls), i)
        kept.append((states, out))  # keeps each id unique while recording
        calls.append((rows, nu))
        return out

    dec_mod.advance_positions = recording
    try:
        lm = streamasr.UniformLM(dec.vocab_size - len(dec.reserved_ids))
        streamasr.decode(enc, post, lm, dec, streamasr.DecodeParams(**SEARCH))
    finally:
        dec_mod.advance_positions = real
    return calls


class Side:
    """One package copy replaying the recorded calls on its own load of
    the archive and its own cache, each round making a state at its first
    step, from the history its own earlier call of the round returned."""

    def __init__(self, pkg, path, enc, calls):
        dec = pkg.load_model(path).decoder
        self.step = pkg.decoder.advance_positions
        self.state = pkg.decoder.DecoderState
        self.cache = pkg.decoder.CrossAttentionCache(dec, enc)
        self.empty = pkg.decoder.empty_history(dec)
        self.calls = calls

    def prepare(self, j, outputs):
        rows, nu = self.calls[j]
        if j == 0:
            self.states = {}  # a round starts with no state stepped
        for i, (hist, token, first) in enumerate(rows):
            if first == (j, i):
                self.states[first] = self.state(
                    self.empty if hist is None else outputs[hist[0]][hist[1]][0], token)
        return functools.partial(self.step, self.cache,
                                 [self.states[first] for _, _, first in rows], nu)


def same(j, outs, others):
    """Whether two sides' rows of one call agree in history and log posterior."""
    return len(outs) == len(others) and all(
        np.array_equal(row[0], other[0]) and np.array_equal(row[1], other[1])
        for row, other in zip(outs, others))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=4.0, help="utterance length")
    ap.add_argument("--seed", type=int, default=SEED, help="model and utterance seed")
    ap.add_argument("--baseline", metavar="SRC_DIR",
                    help="another copy's src directory, timed against this one call by call")
    args = ap.parse_args()
    base = None if args.baseline is None else import_baseline(args.baseline)

    feats = streamasr.random_features(args.seed + 1, max(4, int(args.seconds * 100)),
                                      MID_MODEL["d_feat"])
    with tempfile.TemporaryDirectory() as d:
        path = write_inputs(d, args.seed)[0]["model"]
        model = streamasr.load_model(path)
        enc = streamasr.encode(feats, model.encoder, EPS_ENC)
        post = streamasr.posteriorgram_from_states(enc, model.ctc_w, model.ctc_b)
        calls = record(enc, post, model.decoder)
        if not calls:
            sys.exit("the decode made no decoder call")
        sides = [Side(pkg, path, enc, calls) for pkg in (streamasr, base) if pkg is not None]
    times, _ = rounds(sides, len(calls), REPEATS, same=same)

    best = times.min(axis=0)
    rows = np.array([len(call[0]) for call in calls])
    stems = sum(first[0] < j for j, (states, _) in enumerate(calls) for _, _, first in states)
    audio_s = feats.frames.shape[0] * feats.frame_shift_ms / 1000.0
    print(f"{audio_s:g} s utterance, {enc.shape[0]} encoder rows, "
          f"{len(calls)} advance_positions calls, {rows.mean():.2f} rows per call, "
          f"{stems / rows.sum():.0%} of rows with a stem, best of {REPEATS}")
    print(f"this copy: summed {best[0].sum() * 1e3:.2f} ms, "
          f"median call {float(np.median(best[0])) * 1e6:.0f} us")
    if base is not None:
        ratio = paired(times)
        by_rows = " ".join(f"{b}:{float(np.median(ratio[:, rows == b])):.3f}"
                           for b in sorted(set(rows.tolist())))
        print(f"baseline:  summed {best[1].sum() * 1e3:.2f} ms, "
              f"median call {float(np.median(best[1])) * 1e6:.0f} us")
        print(f"lockstep against {args.baseline}: paired ratio (this/baseline), median "
              f"[quartiles]: summed {spread(paired(times.sum(axis=2, keepdims=True)))}, "
              f"per call {spread(ratio)}; median by rows per call {by_rows}")


if __name__ == "__main__":
    main()
