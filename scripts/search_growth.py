#!/usr/bin/env python3
"""Print how the pure-CTC search's per-frame cost grows along one utterance.

Loads the cost scripts' one input set (``lockstep.write_inputs``: a
random mid-size model archive, the benchmark's dimensions, its
vocabulary and a random back-off bigram ARPA file), encodes a random
utterance, then runs ``CtcPrefixSearch`` (the one search loop,
``JointSearch``, without a decoder; k 300, p 30, the loaded bigram LM)
over its posteriorgram, timing every frame.  Prints the mean
per-frame cost in each quarter of the utterance, the mean number of
nodes interned in the search's prefix table, of LM memo rows in use
(the carried states') and of spare memo rows held (states that left the
beam, steps kept) after a frame, the mean ``lm.extend`` calls per frame,
the best prefix's length at the end of each quarter, and the
last-quarter/first-quarter ratio.  A search whose frame cost does not
depend on how long the prefixes have grown prints a ratio near 1.

    python3 scripts/search_growth.py              # 16 s utterance
    python3 scripts/search_growth.py --seconds 1  # quick smoke run
"""

from lockstep import MID_MODEL, write_inputs  # first: one BLAS thread, before numpy loads

import argparse
import sys
import tempfile
from time import perf_counter

import numpy as np

from streamasr import (
    CtcPrefixSearch,
    DecodeParams,
    LanguageModel,
    encode,
    load_model,
    load_vocab,
    ngram_load,
    posteriorgram_from_states,
    random_features,
)


class CountingLM(LanguageModel):
    """Counts the steps the search asks of ``inner``."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def start_state(self):
        return self.inner.start_state()

    def extend(self, state, label):
        self.calls += 1
        return self.inner.extend(state, label)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=16.0, help="utterance length")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as d:
        paths = write_inputs(d, args.seed)[0]
        model = load_model(paths["model"])
        bigram = ngram_load(paths["lm"], token_to_id=load_vocab(paths["vocab"]).token_to_id)
    frames = int(args.seconds * 100)  # 10 ms feature frames
    feats = random_features(args.seed + 1, frames, MID_MODEL["d_feat"])
    logp = posteriorgram_from_states(encode(feats, model.encoder, 1), model.ctc_w, model.ctc_b)
    n = logp.shape[0]
    if n < 4:
        sys.exit(f"{n} encoder frames: need at least 4, one per quarter")

    # label ids 0 and 1 are the decoder's start and end tokens
    banned = (model.sos_id, model.eos_id)
    lm = CountingLM(bigram)
    search = CtcPrefixSearch(lm, DecodeParams(k_size=300, p_size=30), logp.shape[1], banned)
    table = search.prefixes
    cost, lengths, nodes, rows, spare, calls = [], [], [], [], [], []
    for row in logp:
        before = lm.calls
        t0 = perf_counter()
        search.advance(row)
        cost.append(perf_counter() - t0)
        calls.append(lm.calls - before)
        lengths.append(len(search.best_ctc_partial))
        nodes.append(sum(1 for _ in table))
        rows.append(len(table._rows))  # the carried LM states that hold a memo row
        spare.append(len(table._spare))

    print(f"{args.seconds:g} s utterance, {n} encoder frames, k 300, p 30, bigram LM")
    quarters = np.array_split(np.arange(n), 4)
    means = []
    for q, idx in enumerate(quarters, start=1):
        means.append(1000.0 * float(np.mean([cost[i] for i in idx])))
        print(f"quarter {q}: frames {idx[0] + 1:4d}-{idx[-1] + 1:4d}  "
              f"{means[-1]:7.2f} ms/frame  {np.mean([nodes[i] for i in idx]):6.1f} nodes  "
              f"{np.mean([rows[i] for i in idx]):5.1f} memo rows  "
              f"{np.mean([spare[i] for i in idx]):5.1f} spare  "
              f"{np.mean([calls[i] for i in idx]):6.2f} lm.extend/frame  "
              f"best prefix {lengths[idx[-1]]:4d} labels")
    print(f"last/first quarter: {means[-1] / means[0]:.2f}")


if __name__ == "__main__":
    main()
