#!/usr/bin/env python3
"""Stream a random utterance through an incremental session and show how the
partial hypothesis evolves, then check the result against the offline path.
With --ctc-only the session runs the decoder-less prefix search, which
eps_dec does not delay, and is checked against offline ctc_prefix_search.
Exits 1 if the streamed and offline results (labels, score and trace) are
not bit-identical.
"""

import argparse
import os
import sys
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from streamasr import (
    DecodeParams,
    StreamConfig,
    StreamingSession,
    UniformLM,
    ctc_prefix_search,
    decode,
    encode,
    posteriorgram_from_states,
    random_features,
    random_model,
    theoretical_latency_ms,
    toy_vocab,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--frames", type=int, default=80)
    ap.add_argument("--chunk", type=int, default=4)
    ap.add_argument("--eps-enc", type=int, default=1)
    ap.add_argument("--eps-dec", type=int, default=2)
    ap.add_argument("--ctc-only", action="store_true",
                    help="stream the CTC prefix search alone; eps_dec then adds no latency")
    args = ap.parse_args()

    vocab = toy_vocab(3)
    model = random_model(args.seed, vocab_size=len(vocab))
    lm = UniformLM(len(vocab) - len(vocab.reserved_ids()))
    params = DecodeParams(k_size=8, p_size=4, eps_dec=args.eps_dec)
    cfg = StreamConfig(eps_enc=args.eps_enc, eps_dec=args.eps_dec)
    feats = random_features(args.seed + 1, args.frames, model.d_feat)

    budget = replace(cfg, eps_dec=0) if args.ctc_only else cfg
    print(f"latency budget: {theoretical_latency_ms(budget, model.e_layers):.0f} ms "
          f"({model.e_layers} layers, eps_enc={args.eps_enc}, eps_dec={args.eps_dec}"
          f"{', CTC only: eps_dec waits for nothing' if args.ctc_only else ''})")
    session = StreamingSession(model, lm, params, cfg, ctc_only=args.ctc_only)
    for start in range(0, args.frames, args.chunk):
        partial = session.push(feats.frames[start : start + args.chunk])
        if partial is not None:
            ms = min(start + args.chunk, args.frames) * cfg.frame_shift_ms
            print(f"  t={ms:6.0f} ms  partial: {vocab.detokenize(partial)!r}")
    result = session.finalize()
    print(f"final: {vocab.detokenize(result.labels)!r}  score {result.score:.4f}")

    enc = encode(feats, model.encoder, args.eps_enc)
    post = posteriorgram_from_states(enc, model.ctc_w, model.ctc_b)
    if args.ctc_only:
        offline = ctc_prefix_search(post, lm, params, banned_ids=model.decoder.reserved_ids)
    else:
        offline = decode(enc, post, lm, model.decoder, params)
    same = (offline.labels, offline.score, offline.trace) == (result.labels, result.score,
                                                              result.trace)
    print(f"offline agreement (bit-exact): {same}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
