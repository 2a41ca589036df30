#!/usr/bin/env python3
"""streamasr benchmark: real-time factor, chunk and final latency and
set-up time of the public decoding API, with an outside-in per-layer trace
and a decode memory pass.

    python3 perfbench/run.py --workload stream-joint --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-expected

Run from the repository root (or anywhere: paths resolve from this file).
One process, one thread, one session at a time, closed loop.  Each run
generates its model archive, vocabulary, LM and feature files from the
seed, then:

1. sets up ``SETUPS`` times (load files, build objects) -> ``setup_s``;
2. warms up on a short utterance through both the workload's path and
   the other path (offline vs streaming), which must agree bit for bit;
3. trace 0: decodes distinct utterances until ``--seconds`` have passed
   (at least ``MIN_UTTERANCES``);
   trace 1: decodes a fixed utterance set untraced, then again traced,
   then utterance 0 once more under tracemalloc (the memory pass, whose
   timings are discarded);
4. checks every output hash (labels and trace lines, sha256) against the
   kept hashes for the default seed, or against an offline decode made in
   the same run for any other seed, and against every other decode of the
   same utterance in the run.

Set-up and decode calls are timed in reference-host seconds (see
``hostclock``): the host this runs on changes speed by up to 2x from one
minute to the next.  The raw real-time factor stays in the run record
(``rtf_raw``, with the probe's quartiles for untraced runs).

The last line of standard output is the JSON result; the run record and,
for traced runs, every span are written under ``.perfbench_out/``.
"""

import os

# One BLAS thread: the benchmark measures a single-threaded decoder, and
# the setting must be in place before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import ctypes
import gc
import hashlib
import json
import platform
import shutil
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0
SETUPS = 21
MIN_UTTERANCES = 3
EXPECTED_PATH = HERE / "expected.json"
OUT_DIR = ROOT / ".perfbench_out"
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)

# Layer times that do not overlap, for the printed breakdown of a traced
# decode: a span that has other layers' spans inside it counts its self time.
SHARES = (
    "encoder.encode.s", "ctc.posterior.s", "ctc.prefix_step.s", "lm.extend.s",
    "search.prune.s", "search.advance.self_s", "decoder.advance_position.s",
    "decoder.append_history.s", "streaming.push.self_s", "streaming.finalize.self_s",
)

END_TO_END = [
    ("setup_s", "s"),
    ("rtf", "s/s"),
    ("chunk_ms_p50", "ms"),
    ("chunk_ms_tail", "ms"),
    ("final_ms", "ms"),
]


def _import_package():
    if not (SRC / "streamasr" / "__init__.py").is_file():
        sys.exit(f"perfbench: no streamasr package under {SRC}")
    sys.path.insert(0, str(SRC))
    import streamasr

    if Path(streamasr.__file__).resolve().parent != (SRC / "streamasr").resolve():
        sys.exit(f"perfbench: imported streamasr from {streamasr.__file__}, not {SRC}")


_import_package()

import numpy as np  # noqa: E402

import hostclock  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads as wl  # noqa: E402
from streamasr import encoder, modelio  # noqa: E402


# ------------------------------------------------------------------ stats


def tail(samples, n_min):
    """The tail percentile of ``samples`` and its rung.

    The rung is the highest ladder percentile with at least ten samples
    beyond it when a run has its minimum sample count ``n_min``, so that a
    faster build, which fits more samples into a run, is still read at the
    same percentile.  Without such a rung the tail is the maximum.
    Returns (value, percentile, samples beyond it in this run).
    """
    xs = sorted(samples)
    for q in reversed(TAIL_LADDER):
        if int(round(n_min * (100.0 - q) / 100.0, 6)) >= 10:
            return float(np.percentile(xs, q)), q, int(round(len(xs) * (100.0 - q) / 100.0, 6))
    return xs[-1], 100.0, 0


def growth(chunks):
    """Mean push time over the last quarter of chunks / the first quarter."""
    q = len(chunks) // 4
    if q == 0:
        return 1.0
    return float(np.mean(chunks[-q:]) / np.mean(chunks[:q]))


# ------------------------------------------------------------ run record


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def _src_sha256():
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _blas():
    info = {"build": None, "runtime": None, "threads": None,
            "env_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        info["build"] = np.__config__.CONFIG["Build Dependencies"]["blas"].get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line and "/" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            info["threads"] = threads()
            info["runtime"] = config().decode()
            return info
    return info


def run_record(seed, w, warmups, seconds, traced):
    return {
        "workload": w.name,
        "seed": seed,
        "trace": int(traced),
        "run_seconds": seconds,
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "warmup_decodes": warmups,
    }


# ---------------------------------------------------------------- checks


class Checker:
    """Counts workload-path decodes and the ones that failed.

    A decode fails when it raised, when its output hash differs from the
    kept hash or the in-run reference for its utterance, or when it differs
    from an earlier decode of the same utterance in this run.
    """

    def __init__(self, expected):
        self.expected = expected or {}
        self.reference = {}
        self.hashes = {}
        self.attempted = 0
        self.errors = []

    def check(self, utt, result, frames):
        self.attempted += 1
        h = wl.output_hash(result)
        why = None
        want = self.expected.get(utt, self.reference.get(utt))
        if want is not None and h != want:
            why = "hash differs from the expected output"
        elif h != self.hashes.setdefault(utt, h):
            why = "hash differs from an earlier decode of the same utterance"
        elif len(result.trace) != encoder.cnn_frame_count(frames):
            why = f"{len(result.trace)} trace lines for {encoder.cnn_frame_count(frames)} frames"
        if why is not None:
            self.errors.append(f"utterance {utt}: {why}")
        return why is None

    def raised(self, utt, exc):
        self.attempted += 1
        self.errors.append(f"utterance {utt}: {type(exc).__name__}: {exc}")

    @property
    def failed(self):
        return len(self.errors)


def _decode_checked(w, checker, utt, ctx_feats, before_finalize=None):
    ctx, feats = ctx_feats
    try:
        d = wl.decode(w, ctx, feats, before_finalize)
    except Exception as exc:  # a failed decode is counted, and the run goes on
        checker.raised(utt, exc)
        return None
    checker.check(utt, d.result, feats.frames.shape[0])
    return d


# ------------------------------------------------------------------- run


def run_workload(w, seed, seconds, traced, expected, work_dir):
    """One benchmark run; returns (correct, attempted, failed, metrics, record)."""
    inputs = wl.generate_inputs(w, seed, work_dir)
    checker = Checker(expected)
    tr = tracer_mod.Tracer() if traced else None

    # Calls are timed inside a HostClock and reported in reference-host
    # seconds.  Spans keep their own seconds, which include the clock's
    # probes (about 2%, spread in proportion to time).
    clock = hostclock.HostClock()

    def raw(t0, t1):
        return t1 - t0

    setup_calls = []
    ctxs = {}
    with clock:
        if tr is not None:
            tr.install()
        try:
            for r in range(SETUPS):
                gc.collect()
                t0 = perf_counter()
                ctxs[r % wl.MODELS] = wl.setup(w, inputs, r % wl.MODELS)
                setup_calls.append((t0, perf_counter()))
        finally:
            if tr is not None:
                tr.uninstall()

    # Warm-up, excluded from every metric: the workload's path and the
    # other path on a short utterance, which must agree.
    warm = modelio.load_features(inputs.warmup)
    try:
        checker.reference["warmup"] = wl.output_hash(
            wl.decode_reference(w, ctxs[0], warm).result)
    except Exception as exc:
        checker.raised("warmup", exc)
    _decode_checked(w, checker, "warmup", (ctxs[0], warm))
    warmups = 2

    def utterance(u):
        """Pool utterance u: its context (model u % MODELS) and features."""
        feats = modelio.load_features(inputs.utts[u % w.pool])
        gc.collect()
        return ctxs[u % w.pool % wl.MODELS], feats

    timed = []
    if tr is None:
        # Closed loop over distinct utterances for --seconds, and at least
        # MIN_UTTERANCES so the finalize median has a middle.
        with clock:
            start = perf_counter()
            i = 0
            while i < MIN_UTTERANCES or perf_counter() - start < seconds:
                d = _decode_checked(w, checker, i % w.pool, utterance(i))
                if d is not None:
                    timed.append(d)
                i += 1
    else:
        traced_runs = []
        with clock:
            for u in range(w.trace_utts):
                d = _decode_checked(w, checker, u, utterance(u))
                if d is not None:
                    timed.append(d)
            tr.install()
            try:
                for u in range(w.trace_utts):
                    tr.utterance = u
                    d = _decode_checked(w, checker, u, utterance(u))
                    if d is not None:
                        traced_runs.append(d)
            finally:
                tr.uninstall()
                tr.utterance = -1

        # Memory pass over utterance 0; only its memory figures are used.
        held = []
        first = utterance(0)
        tracemalloc.start()
        try:
            _decode_checked(w, checker, 0, first,
                            lambda: held.append(tracemalloc.get_traced_memory()[0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Without kept hashes, a streaming workload's first utterance is checked
    # against the offline decode of the same audio, made in this run.
    if w.streaming and 0 not in checker.expected:
        try:
            want = wl.output_hash(wl.decode_reference(w, *utterance(0)).result)
        except Exception as exc:  # the oracle failing fails the check it serves
            checker.raised(0, exc)
        else:
            if want != checker.hashes.get(0):
                checker.errors.append("utterance 0: hash differs from the offline decode")

    if not timed:
        raise RuntimeError("no utterance decoded: " + "; ".join(checker.errors))

    def rtf(decs, seconds):
        return sum(d.timings(seconds)[0] for d in decs) / (w.utt_seconds * len(decs))

    record = run_record(seed, w, warmups, seconds, traced)
    record.update({
        "utterances": len(timed),
        "rtf_raw": rtf(timed, raw),
        "fail_rate": checker.failed / checker.attempted,
        "errors": checker.errors,
        "hashes": {str(k): v for k, v in checker.hashes.items()},
    })
    if tr is None:
        timings = [d.timings(clock.seconds) for d in timed]
        chunks = [c for _, cs, _ in timings for c in cs]
        tail_value, tail_q, tail_beyond = tail(chunks, MIN_UTTERANCES * len(timings[0][1]))
        metrics = {
            "setup_s": statistics.median(clock.seconds(a, b) for a, b in setup_calls),
            "rtf": rtf(timed, clock.seconds),
            "chunk_ms_p50": statistics.median(chunks) * 1e3,
            "chunk_ms_tail": tail_value * 1e3,
            "final_ms": statistics.median(f for _, _, f in timings) * 1e3,
        }
        record.update({
            "chunk_samples": len(chunks),
            "chunk_tail_percentile": tail_q,
            "chunk_tail_beyond": tail_beyond,
            "probe_ref_us": hostclock.PROBE_REF_S * 1e6,
            "probe_us_quartiles": [q * 1e6 for q in statistics.quantiles(clock.durations, n=4)]
            if len(clock.durations) > 1 else clock.durations,
        })
    else:
        if not traced_runs:
            raise RuntimeError("no traced utterance decoded: " + "; ".join(checker.errors))
        metrics = tr.summary(SETUPS)
        metrics["streaming.push.growth"] = (
            float(np.mean([growth(d.timings(raw)[1]) for d in timed])) if w.streaming else 0.0)
        metrics["peak_mem_mb"] = peak / 1e6
        metrics["streaming.retained_kb_per_audio_s"] = (
            held[0] / 1000.0 / w.utt_seconds if held else 0.0)
        metrics["trace.overhead"] = rtf(traced_runs, clock.seconds) / rtf(timed, clock.seconds)
        record["traced_decode_s"] = sum(d.timings(raw)[0] for d in traced_runs)
        record["spans"] = len(tr.start)
        OUT_DIR.mkdir(exist_ok=True)
        tr.save(OUT_DIR / f"spans-{w.name}-seed{seed}.npz")
    return checker.failed == 0, checker.attempted, checker.failed, metrics, record


def units(traced):
    if traced:
        return {n: u for n, u, _ in tracer_mod.PER_LAYER}
    return dict(END_TO_END)


def load_expected(seed):
    if seed != DEFAULT_SEED or not EXPECTED_PATH.is_file():
        return {}
    data = json.loads(EXPECTED_PATH.read_text())
    return {name: dict(enumerate(hs)) for name, hs in data["workloads"].items()}


def benchmark(w, seed, seconds, traced, expected):
    work = OUT_DIR / f"work-{w.name}-seed{seed}-{os.getpid()}"
    try:
        return run_workload(w, seed, seconds, traced, expected, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run every workload's path on a tiny model and check the report")
    ap.add_argument("--write-expected", action="store_true",
                    help=f"recompute the kept output hashes for seed {DEFAULT_SEED}")
    args = ap.parse_args(argv)
    if args.self_test:
        import selftest

        return selftest.main(benchmark, units, ROOT / "BENCHMARK.json")
    if args.write_expected:
        return write_expected()
    if args.workload is None:
        ap.error("--workload is required")
    w = wl.WORKLOADS[args.workload]
    traced = bool(args.trace)
    expected = load_expected(args.seed).get(w.name, {})
    correct, attempted, failed, metrics, record = benchmark(w, args.seed, args.seconds, traced,
                                                            expected)
    u = units(traced)
    for name, unit in u.items():
        print(f"{w.name:16s} {name:40s} {metrics[name]:14.6g} {unit}")
    if traced:
        for name in SHARES:
            print(f"{w.name:16s} share of traced decode time: {name:34s} "
                  f"{metrics[name] / record['traced_decode_s']:7.1%}")
    print(f"{w.name:16s} {'fail_rate':40s} {record['fail_rate']:14.6g} ratio "
          f"({failed} of {attempted} decodes)")
    if not traced:
        print(f"{w.name:16s} chunk_ms_tail is p{record['chunk_tail_percentile']:g} of "
              f"{record['chunk_samples']} samples ({record['chunk_tail_beyond']} beyond)")
    for err in record["errors"]:
        print(f"{w.name:16s} FAILED {err}")
    print("record " + json.dumps(record, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in u.items()},
    }
    (OUT_DIR / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "record": record}, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


def write_expected():
    """Kept hashes for the default seed: for every workload, the offline
    decode of each pool utterance, so a streaming/offline split fails.
    Workloads that decode the same audio the same way share one list."""
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    done = {}
    for w in wl.WORKLOADS.values():
        key = (w.utt_frames, w.pool, w.bigram, w.ctc_only, w.k_size, w.p_size,
               w.eps_enc, w.eps_dec)
        if key not in done:
            work = OUT_DIR / f"expected-{w.name}-{os.getpid()}"
            try:
                inputs = wl.generate_inputs(w, DEFAULT_SEED, work)
                ctxs = [wl.setup(w, inputs, m) for m in range(wl.MODELS)]
                hashes = []
                for u, path in enumerate(inputs.utts):
                    feats = modelio.load_features(path)
                    result = wl.decode_offline(w, ctxs[u % wl.MODELS], feats).result
                    hashes.append(wl.output_hash(result))
                    print(w.name, len(hashes), hashes[-1], flush=True)
                done[key] = hashes
            finally:
                shutil.rmtree(work, ignore_errors=True)
        out["workloads"][w.name] = done[key]
    EXPECTED_PATH.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
