"""The paper's claims as a gate: E1-E17 regenerate their committed results.

Simulated time is exact, so the reproduction can be gated exactly: every
``benchmarks/bench_eNN_*.py`` is run at its committed size and its
regenerated ``eNN_*.txt`` must be byte-equal to the file committed under
``benchmarks/results/`` (and the ``tables`` / ``metrics`` / ``spans``
sections of its ``.metrics.json`` equal; ``extra.elapsed_s`` is wall clock).

Order and process matter.  Stream ids travel as JSON text on the control
channel, so a control message's length -- and with it a handful of
simulated microseconds -- depends on how many streams the process made
before (run alone, E7 prints 0.6896 / 0.3448 ms where the committed table
has 0.6912 / 0.3458).  The committed files were written by one process
running the experiments in filename order; the gate does the same, in one
fresh subprocess, so the tests that ran before it cannot move it either.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
BENCHMARKS = REPO / "benchmarks"
RESULTS = BENCHMARKS / "results"

#: E1-E15 are the paper's claims, E16 / E17 the two later experiments
#: whose output is simulated; E18+ report wall clock.
MODULES = sorted(
    path.stem for path in BENCHMARKS.glob("bench_e*.py")
    if "bench_e01" <= path.stem[:9] <= "bench_e17"
)
EXPERIMENTS = [name[len("bench_"):] for name in MODULES]

_DRIVER = """
import importlib, sys
sys.path.insert(0, sys.argv[1])
for name in sys.argv[3:]:
    importlib.import_module(name).run(out_dir=sys.argv[2])
"""


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory) -> Path:
    out_dir = tmp_path_factory.mktemp("paper_claims")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", _DRIVER, str(BENCHMARKS), str(out_dir), *MODULES],
        capture_output=True, text=True, timeout=240, env=env,
    )
    assert result.returncode == 0, result.stderr
    return out_dir


def _payload(directory: Path, experiment: str) -> dict:
    return json.loads((directory / f"{experiment}.metrics.json").read_text())


def test_the_gate_covers_every_experiment():
    assert len(EXPERIMENTS) == 17
    assert EXPERIMENTS[0].startswith("e01") and EXPERIMENTS[-1].startswith("e17")


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_experiment_regenerates_its_committed_result(regenerated, experiment):
    fresh = _payload(regenerated, experiment)
    committed = _payload(RESULTS, experiment)
    assert fresh.get("metrics") == committed.get("metrics")
    assert fresh.get("spans") == committed.get("spans")
    if experiment.startswith("e16"):
        # E16 carries wall clock in its table: gate the simulated columns.
        (table,), (pinned,) = fresh["tables"], committed["tables"]
        column = table["headers"].index("wall clock (s)")
        simulated = [row[:column] + row[column + 1:] for row in table["rows"]]
        assert simulated == [
            row[:column] + row[column + 1:] for row in pinned["rows"]
        ]
        off, on = simulated
        assert off[1] == on[1]  # observing moves no goodput
        return
    assert fresh["tables"] == committed["tables"]
    name = f"{experiment}.txt"
    assert (regenerated / name).read_bytes() == (RESULTS / name).read_bytes()
