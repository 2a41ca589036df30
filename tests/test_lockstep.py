"""The cost scripts' shared lockstep loop, its paired ratio, and the
scripts' comparison of two package copies on one written model."""

import importlib.util
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def lockstep():
    """scripts/lockstep.py, imported from its file; the thread count, the
    import path and the module registry it changes are restored
    afterwards."""
    with pytest.MonkeyPatch.context() as mp:
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            mp.setenv(name, "1")
        mp.setattr(sys, "path", list(sys.path))
        mp.setitem(sys.modules, "perfbench_workloads", None)
        spec = importlib.util.spec_from_file_location("lockstep", ROOT / "scripts" / "lockstep.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module


class Recorder:
    """A side whose step j returns (side, j), or (side, -1) at step
    ``differ_at``, logging each call it makes and checking that it is
    handed its own outputs of the round so far."""

    def __init__(self, name, log, differ_at=None):
        self.name, self.log, self.differ_at = name, log, differ_at

    def prepare(self, j, outs):
        assert outs == [(self.name, i) for i in range(j)]

        def call():
            self.log.append((self.name, j))
            return (self.name, -1 if j == self.differ_at else j)
        return call


def rounds_of(log, steps, n_sides=2):
    """The log cut into rounds of ``steps`` steps of every side."""
    per = steps * n_sides
    assert len(log) % per == 0
    return [log[i:i + per] for i in range(0, len(log), per)]


@pytest.mark.parametrize("min_rounds", [1, 5, 6])
def test_each_copy_goes_first_in_half_the_rounds_of_each_step(lockstep, min_rounds):
    log, steps = [], 7
    sides = [Recorder("a", log), Recorder("b", log)]
    times, outs = lockstep.rounds(sides, steps, min_rounds)
    n = times.shape[0]
    assert times.shape == (n, 2, steps) and (times >= 0).all()
    assert n % 2 == 0 and n >= min_rounds
    assert outs == [[("a", j) for j in range(steps)], [("b", j) for j in range(steps)]]
    done = rounds_of(log, steps)
    assert len(done) == n
    for j in range(steps):
        firsts = []
        for calls in done:
            assert sorted(calls[2 * j:2 * j + 2]) == [("a", j), ("b", j)]
            firsts.append(calls[2 * j][0])
        assert firsts.count("a") == firsts.count("b") == n // 2


def test_rounds_run_on_for_the_seconds_asked_to_an_even_count(lockstep):
    log = []
    times, _ = lockstep.rounds([Recorder("a", log)], 3, 1, seconds=0.02)
    assert times.shape[0] % 2 == 0 and times.shape[0] >= 2 and times.shape[1:] == (1, 3)
    assert len(log) == 3 * times.shape[0]


def test_the_loop_stops_at_the_first_step_whose_outputs_differ(lockstep):
    log = []
    sides = [Recorder("a", log), Recorder("b", log, differ_at=3)]
    with pytest.raises(lockstep.Differ, match="step 3 of round 0"):
        lockstep.rounds(sides, 7, 6, same=lambda j, x, y: x[1] == y[1])
    assert sorted(log) == sorted((s, j) for s in "ab" for j in range(4))


def test_paired_ratio_sums_each_side_over_two_rounds(lockstep):
    times = np.array([[[1.0, 2.0], [2.0, 2.0]],
                      [[3.0, 2.0], [2.0, 6.0]],
                      [[1.0, 1.0], [1.0, 1.0]],
                      [[1.0, 5.0], [3.0, 2.0]]])
    np.testing.assert_allclose(lockstep.paired(times), [[1.0, 0.5], [0.5, 2.0]])
    np.testing.assert_allclose(lockstep.paired(times.sum(axis=2, keepdims=True)),
                               [[8.0 / 12.0], [8.0 / 7.0]])
    assert lockstep.spread([1.0, 2.0, 3.0]) == "2.000 [1.500, 2.500]"


@pytest.fixture(scope="module")
def swapped_src(tmp_path_factory):
    """A copy of src/ whose only change lists each attention block's w_k
    before its w_q: its random_model draws other weights from a seed,
    and its archives load the same tensors."""
    src = tmp_path_factory.mktemp("swapped") / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "streamasr" / "modelio.py"
    text = path.read_text()
    q = '    ("w_q", "w_q", ("heads", "d_model", "d_k"), "w"),\n'
    k = '    ("w_k", "w_k", ("heads", "d_model", "d_k"), "w"),\n'
    assert text.count(q + k) == 1
    path.write_text(text.replace(q + k, k + q))
    assert path.read_text().count(k + q) == 1
    return src


@pytest.mark.parametrize("script", ["encoder_cost.py", "decoder_cost.py"])
def test_the_cost_scripts_load_one_model_into_both_copies(script, swapped_src):
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--seconds", "1",
                          "--baseline", str(swapped_src)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert f"lockstep against {swapped_src}" in run.stdout
