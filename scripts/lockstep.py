"""What the cost scripts share: one BLAS thread, this checkout's package on
the import path, the benchmark's mid model, and a second copy of the
package to time against in lockstep.

Import it before NumPy: OpenBLAS reads its thread count when NumPy loads.
"""

import importlib.util
import os
import sys

# One BLAS thread, as in the benchmark.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


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
