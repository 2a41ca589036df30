"""Fast self-test of the benchmark itself (``run.py --self-test``).

Runs every workload's code path on random_model defaults and short
utterances, untraced and traced, and checks that:

* each run is correct and reports exactly the metrics BENCHMARK.json
  names, each with the unit it declares;
* the traced run's hashes equal the untraced run's;
* a corrupted expected hash is reported as a failed decode.
"""

import json
import sys

import workloads as wl


def _check(cond, msg, problems):
    if not cond:
        problems.append(msg)


def _report(benchmark, units, w, seed, traced, expected):
    correct, attempted, failed, metrics, record = benchmark(w, seed, 0.2, traced, expected)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics.get(n), "unit": u}
                          for n, u in units(traced).items()}}
    return result, record


def main(benchmark, units, spec_path):
    """Returns the exit status; benchmark and units are run.py's."""
    spec = json.loads(spec_path.read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    _check(sorted(names) == sorted(wl.WORKLOADS), f"BENCHMARK.json workloads {names}", problems)
    for name in names:
        w = wl.tiny(wl.WORKLOADS[name])
        hashes = {}
        for traced in (0, 1):
            result, record = _report(benchmark, units, w, 1, traced, {})
            got = {n: m["unit"] for n, m in result["metrics"].items()
                   if isinstance(m["value"], (int, float)) and m["value"] == m["value"]}
            _check(got == want[traced], f"{name} trace {traced}: metrics/units {got}", problems)
            _check(result["correct"] and result["failed"] == 0,
                   f"{name} trace {traced}: failed {record['errors']}", problems)
            hashes[traced] = record["hashes"]
        _check(hashes[0]["0"] == hashes[1]["0"],
               f"{name}: traced hash differs from untraced", problems)
        good = hashes[0]["0"]
        bad = good[:-1] + ("0" if good[-1] != "0" else "1")
        result, _ = _report(benchmark, units, w, 1, 0, {0: bad})
        _check(not result["correct"] and result["failed"] >= 1,
               f"{name}: corrupted expected hash was not reported as a failure", problems)
        print(f"self-test {name}: {'FAILED' if problems else 'ok'}")
    for p in problems:
        print("self-test problem:", p, file=sys.stderr)
    return 1 if problems else 0
