"""E22 and E23 run in tier-1, and a run writes only into its ``out_dir``.

Both experiments print wall-clock rates beside figures that repeat
exactly for a seed (recovery ratios, cache sizes, route resolutions per
message, simulated-time throughput and fairness, two trace or
failure-set equalities).  Each bench's ``check`` asserts those figures
and its ``run`` calls it; the perf gate is ``BUDGET.json``
(``tests/test_call_budget.py``), which counts work instead of timing it.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"
#: What tests, caches and bytecode leave in the tree.
SCRATCH = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}


def bench(name: str):
    if str(BENCHMARKS) not in sys.path:
        sys.path.insert(0, str(BENCHMARKS))
    return importlib.import_module(name)


def tree() -> dict:
    """Every file of the repository but scratch, with its size and mtime."""
    found = {}
    for directory, subdirectories, files in os.walk(ROOT):
        subdirectories[:] = [name for name in subdirectories
                             if name not in SCRATCH]
        for name in files:
            status = os.stat(os.path.join(directory, name))
            found[os.path.join(directory, name)] = (
                status.st_size, status.st_mtime_ns)
    return found


def test_a_run_with_an_out_dir_writes_nothing_outside_it(tmp_path):
    before = tree()
    for name in ("bench_e22_scaleout", "bench_e23_meshtransport"):
        bench(name).run(out_dir=str(tmp_path))
    assert tree() == before
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "e22_scaleout.metrics.json", "e22_scaleout.txt",
        "e23_meshtransport.metrics.json", "e23_meshtransport.txt",
    ]
