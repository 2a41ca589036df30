#!/usr/bin/env python3
"""Print how the pure-CTC search's per-frame cost grows along one utterance.

Encodes a random utterance with a random mid-size model (the benchmark's
dimensions), then runs ``CtcPrefixSearch`` (the one search loop,
``JointSearch``, without a decoder; k 300, p 30, a random back-off
bigram LM) over its posteriorgram, timing every frame.  Prints the mean
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

from lockstep import MID_MODEL  # first: one BLAS thread, before numpy loads

import argparse
import math
import sys
from time import perf_counter

import numpy as np

from streamasr import (
    CtcPrefixSearch,
    DecodeParams,
    LanguageModel,
    NgramLM,
    encode,
    posteriorgram_from_states,
    random_features,
    random_model,
)


def random_bigram(rng, n_labels):
    """Every label has a unigram and a backoff weight; about half of the
    label pairs have a bigram, so scoring takes both paths."""
    uni = np.log(rng.dirichlet(np.ones(n_labels)))
    entries = {(a,): (float(uni[a]), math.log(10.0) * rng.uniform(-1.0, 0.0))
               for a in range(n_labels)}
    for a in range(n_labels):
        for b in range(n_labels):
            if rng.random() < 0.5:
                entries[(a, b)] = (math.log(rng.uniform(0.01, 1.0)), 0.0)
    return NgramLM(entries, 2)


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

    model = random_model(args.seed, **MID_MODEL)
    frames = int(args.seconds * 100)  # 10 ms feature frames
    feats = random_features(args.seed + 1, frames, MID_MODEL["d_feat"])
    logp = posteriorgram_from_states(encode(feats, model.encoder, 1), model.ctc_w, model.ctc_b)
    n = logp.shape[0]
    if n < 4:
        sys.exit(f"{n} encoder frames: need at least 4, one per quarter")

    # label ids 0 and 1 are the decoder's start and end tokens
    banned = (model.sos_id, model.eos_id)
    lm = CountingLM(random_bigram(np.random.default_rng(args.seed + 2), model.vocab_size))
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
