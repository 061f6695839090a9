"""E22's and E23's exact checks.

Both experiments print wall-clock rates beside figures that repeat
exactly for a seed: recovery ratios, cache sizes, route resolutions per
message, simulated-time throughput and fairness, and two trace or
failure-set equalities.  The exact figures are held here; the perf gate
is ``BUDGET.json`` (``tests/test_call_budget.py``), which counts work
instead of timing it.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"
#: What tests, caches and bytecode leave in the tree.
SCRATCH = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"}


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


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """E22 and E23, each run once through ``run(out_dir=...)`` as its
    module builds it (``common.make_run(name, run_experiment, render)``)
    with the experiment's result kept; the tree before and after; the
    output directory."""
    out_dir = tmp_path_factory.mktemp("mesh")
    results = {}
    before = tree()
    for tag, name in (("e22", "bench_e22_scaleout"),
                      ("e23", "bench_e23_meshtransport")):
        module = bench(name)

        def experiment(module=module, tag=tag):
            results[tag] = module.run_experiment()
            return results[tag]

        bench("common").make_run(module.run.experiment, experiment,
                                 module.render)(out_dir=str(out_dir))
    return results, before, tree(), out_dir


@pytest.fixture(scope="module")
def e22(runs):
    return runs[0]["e22"]


@pytest.fixture(scope="module")
def e23(runs):
    return runs[0]["e23"]


def test_a_run_with_an_out_dir_writes_nothing_outside_it(runs):
    _results, before, after, out_dir = runs
    assert after == before
    assert sorted(path.name for path in out_dir.iterdir()) == [
        "e22_scaleout.metrics.json", "e22_scaleout.txt",
        "e23_meshtransport.metrics.json", "e23_meshtransport.txt",
    ]


def test_e22_resolves_less_than_once_per_ten_messages_under_churn(e22):
    assert e22["resolutions_per_msg"] < 0.1
    assert e22["static_resolutions_per_msg"] == 0.0


def test_e22_every_pair_recovers_after_churn_and_soak(e22):
    assert e22["churn_recovery_ratio"] == 1.0
    assert e22["soak"]["recovery_ratio"] == 1.0


def test_e22_soak_caches_at_most_a_table_per_host(e22):
    assert e22["soak"]["cached_tables"] <= e22["hosts"]


def test_e23_ecmp_is_a_no_op_without_cost_ties(e23):
    assert e23["tiefree_trace_identical"]
    assert e23["trace_deliveries"] > 0


def test_e23_a_flap_fails_exactly_the_streams_pinned_through_it(e23):
    flap = e23["flap"]
    assert flap["failed_match_pinned"]
    assert 0 < flap["pinned_through"] < flap["streams"]
    assert flap["survivors_delivering"] == flap["survivors"]


def test_e23_ecmp_spreads_the_core_and_delivers_more(e23):
    assert e23["jain_ecmp"] > e23["jain_single"]
    assert e23["ecmp_speedup"] >= 1.2
