"""Command line decoder: model + vocab + feature files in, transcripts out.

One transcript line is printed per --features argument.  Every file is
decoded by a streaming session: without --streaming the whole utterance
is pushed as one chunk (look-ahead still applies through the attention
masks); with --streaming N it is pushed N frames at a time, which by
construction prints the same transcript.  The encoder checks each file's
feature width against the model; an error met while decoding a file
names it.  --ctc-only drops the attention decoder and runs pure prefix
beam search.  --trace appends per-frame search diagnostics to a file.
"""

import argparse
import math
import sys

from .encoder import check_eps_enc
from .lm import UniformLM, ngram_load
from .modelio import load_features, load_model, load_vocab
from .search import DecodeParams
from .streaming import StreamConfig, StreamingSession


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _eps_enc(text):
    if text.lower() in ("inf", "infinity"):
        return math.inf
    return int(text)


def build_parser():
    p = _Parser(prog="streamasr", description="Streaming CTC/attention speech decoder")
    p.add_argument("--model", required=True, help="model archive path")
    p.add_argument("--vocab", required=True, help="vocabulary file path")
    p.add_argument("--features", required=True, action="append", default=None,
                   metavar="PATH", help="feature file; repeat for more utterances")
    p.add_argument("--lm", default=None, help="n-gram language model file (natural default: uniform)")
    p.add_argument("--eps-enc", type=_eps_enc, default=math.inf,
                   help="encoder look-ahead per layer in encoder frames, or 'inf' (default inf)")
    p.add_argument("--eps-dec", type=int, default=18,
                   help="decoder look-ahead in encoder frames (default 18); it does not "
                        "delay --ctc-only, whose latency is (3 + 4*E*eps_enc) input frames")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5,
                   help="CTC weight in the joint score (default 0.5)")
    p.add_argument("--alpha0", type=float, default=0.7, help="LM weight in the CTC ranking (default 0.7)")
    p.add_argument("--alpha", type=float, default=0.5, help="LM weight in the joint score (default 0.5)")
    p.add_argument("--beta", type=float, default=2.0, help="label insertion bonus (default 2.0)")
    p.add_argument("--k", type=int, default=300, help="CTC candidate beam size (default 300)")
    p.add_argument("--p", type=int, default=30, help="carried beam size (default 30)")
    p.add_argument("--theta1", type=float, default=16.0, help="CTC beam width (default 16)")
    p.add_argument("--theta2", type=float, default=6.0, help="carried beam width (default 6)")
    p.add_argument("--streaming", type=int, default=None, metavar="CHUNK",
                   help="decode incrementally, pushing CHUNK frames at a time")
    p.add_argument("--ctc-only", action="store_true",
                   help="pure CTC prefix beam search; each frame is decoded as soon as its "
                        "posterior row exists, so --eps-dec adds no latency")
    p.add_argument("--trace", default=None, metavar="PATH", help="write per-frame search trace here")
    return p


def _decode_one(path, model, lm, params, args):
    feats = load_features(path)  # its errors name the file already
    try:
        cfg = StreamConfig(eps_enc=args.eps_enc, eps_dec=args.eps_dec,
                           frame_shift_ms=feats.frame_shift_ms)
        session = StreamingSession(model, lm, params, cfg, ctc_only=args.ctc_only)
        frames = feats.frames
        chunk = frames.shape[0] if args.streaming is None else args.streaming
        for start in range(0, frames.shape[0], chunk):
            session.push(frames[start : start + chunk])
        return session.finalize()
    except (ValueError, RuntimeError) as e:
        raise type(e)(f"{path}: {e}") from e


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # options are checked before anything loads, so no error names a file
        if args.streaming is not None and args.streaming < 1:
            raise ValueError(f"--streaming chunk must be >= 1, got {args.streaming}")
        check_eps_enc(args.eps_enc)
        params = DecodeParams(lam=args.lam, alpha0=args.alpha0, alpha=args.alpha,
                              beta=args.beta, k_size=args.k, p_size=args.p,
                              theta1=args.theta1, theta2=args.theta2, eps_dec=args.eps_dec)
        model = load_model(args.model)
        vocab = load_vocab(args.vocab)
        if len(vocab) != model.vocab_size:
            raise ValueError(
                f"vocabulary has {len(vocab)} tokens but the model expects {model.vocab_size}"
            )
        if vocab.sos_id != model.sos_id or vocab.eos_id != model.eos_id:
            raise ValueError("vocabulary reserved ids disagree with the model archive")
        if args.lm is not None:
            lm = ngram_load(args.lm, token_to_id=vocab.token_to_id)
        else:
            lm = UniformLM(len(vocab) - len(vocab.reserved_ids()))
        trace_f = open(args.trace, "w", encoding="utf-8") if args.trace else None
        try:
            for i, path in enumerate(args.features):
                result = _decode_one(path, model, lm, params, args)
                print(vocab.detokenize(result.labels))
                if trace_f:
                    trace_f.write(f"utt {i} {path}\n")
                    for line in result.trace:
                        trace_f.write(line + "\n")
        finally:
            if trace_f:
                trace_f.close()
    except (OSError, ValueError, RuntimeError) as e:
        print(f"streamasr: error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
