"""What the cost scripts share: one BLAS thread, this checkout's package on
the import path, the benchmark's mid model, the one set of input files
every copy loads, a second copy of the package, and the one loop that
times two copies in lockstep with its paired ratio.

Import it before NumPy: OpenBLAS reads its thread count when NumPy loads.
"""

import importlib.util
import math
import os
import sys
from time import perf_counter

# One BLAS thread, as in the benchmark.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402  (after the thread count)

import streamasr  # noqa: E402


def _load(name, path, package=False):
    """The module at ``path``, imported under ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=[os.path.dirname(path)] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# The benchmark's mid model, as perfbench/workloads.py defines it.
MID_MODEL = dict(_load("perfbench_workloads",
                       os.path.join(ROOT, "perfbench", "workloads.py")).MID_MODEL)


def import_baseline(src_dir):
    """The streamasr package found in ``src_dir``, imported as
    ``streamasr_baseline`` so that it lives beside this copy."""
    init = os.path.join(src_dir, "streamasr", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"no streamasr package in {src_dir}")
    return _load("streamasr_baseline", init, package=True)


def write_inputs(d, seed):
    """The archive, vocabulary and ARPA file in directory d -> (paths, the
    saved model, the tokens, the LM entries the ARPA text holds in
    natural log, keyed by token tuples)."""
    rng = np.random.default_rng(seed)
    model = streamasr.random_model(seed, **MID_MODEL)
    tokens = ["<sos>", "<eos>"] + [f"w{i:02d}" for i in range(MID_MODEL["vocab_size"] - 2)]
    labels = tokens[2:]
    paths = {k: os.path.join(d, name) for k, name in
             (("model", "mid.model"), ("vocab", "mid.vocab"), ("lm", "bigram.arpa"))}
    streamasr.save_model(paths["model"], model)
    streamasr.save_vocab(paths["vocab"], streamasr.Vocab(tokens))
    # every label has a unigram and a back-off weight; about half of the
    # label pairs have a bigram, so scoring takes both paths
    uni = [f"{v:.6f}" for v in np.log10(rng.dirichlet(np.ones(len(labels))))]
    back = [f"{v:.6f}" for v in rng.uniform(-1.0, 0.0, len(labels))]
    pairs = [(a, b, f"{math.log10(rng.uniform(0.01, 1.0)):.6f}")
             for a in labels for b in labels if rng.random() < 0.5]
    entries = {(t,): (float(lp) * streamasr.lm.LN10, float(bo) * streamasr.lm.LN10)
               for t, lp, bo in zip(labels, uni, back)}
    entries.update({(a, b): (float(lp) * streamasr.lm.LN10, 0.0) for a, b, lp in pairs})
    with open(paths["lm"], "w", encoding="utf-8") as f:
        f.write(f"\\data\\\nngram 1={len(labels)}\nngram 2={len(pairs)}\n\n\\1-grams:\n")
        f.writelines(f"{lp} {t} {bo}\n" for t, lp, bo in zip(labels, uni, back))
        f.write("\n\\2-grams:\n")
        f.writelines(f"{lp} {a} {b}\n" for a, b, lp in pairs)
        f.write("\n\\end\\\n")
    return paths, model, tokens, entries


class Differ(SystemExit):
    """Two sides' outputs of one step differ: uncaught, it ends the script
    with exit status 1 and the message, which names the step."""


def rounds(sides, steps, min_rounds, seconds=0.0, same=None):
    """Time ``steps`` steps of each side in lockstep, in rounds until there
    are at least ``min_rounds``, ``seconds`` have passed and the count is
    even -> the seconds of each, (rounds, sides, steps), and each side's
    outputs of the last round.

    ``side.prepare(j, outs)`` readies step j untimed, given the side's
    own outputs of the round's earlier steps, and returns the call to
    time.  Every side runs step j before any runs step j + 1, and the
    side that goes first moves on by one from one step and one round to
    the next.  Each round starts with the last round's outputs freed.
    With ``same(j, a, b)``, the loop raises :class:`Differ` at the first
    step whose outputs on the first two sides are not the same."""
    times = []
    t_end = perf_counter() + seconds
    while len(times) < min_rounds or perf_counter() < t_end or len(times) % 2:
        r = len(times)
        times.append(np.empty((len(sides), steps)))
        outs = [[] for _ in sides]
        for j in range(steps):
            for k in range(len(sides)):
                i = (k + r + j) % len(sides)
                call = sides[i].prepare(j, outs[i])
                t0 = perf_counter()
                out = call()
                times[r][i, j] = perf_counter() - t0
                outs[i].append(out)
            if same is not None and len(sides) > 1 and not same(j, outs[0][j], outs[1][j]):
                raise Differ(f"this copy's and the baseline's outputs differ at step {j} "
                             f"of round {r}")
    return np.array(times), outs


def paired(times):
    """Each step's paired ratio, the first side's time over the second's,
    each summed over two rounds in which each went first once -> (pairs,
    steps).  Pairs taken moments apart share the machine's state, so
    their ratio holds still where the best of each side's rounds does
    not.  A whole's ratio is ``paired(times.sum(axis=2, keepdims=True))``."""
    pairs = times.reshape(-1, 2, *times.shape[1:]).sum(axis=1)
    return pairs[:, 0] / pairs[:, 1]


def spread(ratios):
    """The median of ``ratios`` and its quartiles, as text."""
    q1, med, q3 = np.percentile(ratios, [25, 50, 75])
    return f"{med:.3f} [{q1:.3f}, {q3:.3f}]"
