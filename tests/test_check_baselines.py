"""The perf-smoke gate (`benchmarks/check_baselines.py`) run the way CI
runs it: against a directory of committed baselines, once with a run
that holds and once with regressed ones."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "check_baselines.py"


def run_check(baseline_dir, current_dir):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(baseline_dir), str(current_dir)],
        capture_output=True, text=True,
    )


def fixture_dirs(tmp_path, **edits):
    """Baselines = the committed files; current = the same with
    ``edits`` (``eNN__key=value``) applied."""
    base, current = tmp_path / "base", tmp_path / "current"
    for directory in (base, current):
        directory.mkdir()
        for path in ROOT.glob("BENCH_e*.json"):
            shutil.copy(path, directory / path.name)
    for edit, value in edits.items():
        tag, key = edit.split("__")
        path = current / f"BENCH_{tag}.json"
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
    return base, current


def test_committed_files_pass_against_themselves(tmp_path):
    result = run_check(*fixture_dirs(tmp_path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("(ratio 1.00)") == 4
    assert "churn_msgs_per_sec: committed" in result.stdout


def test_a_faster_run_passes(tmp_path):
    result = run_check(*fixture_dirs(tmp_path, e22__churn_msgs_per_sec=3e4))
    assert result.returncode == 0, result.stderr


def test_regressed_ratio_floor_and_flag_each_fail(tmp_path):
    base, current = fixture_dirs(
        tmp_path,
        e22__churn_msgs_per_sec=1500.0,    # < 0.8 x committed
        e22__churn_recovery_ratio=0.99,    # simulation-exact
        e22__soak_cached_tables=217,       # key-vs-key bound (216 hosts)
        e19__loop_events_per_msg=25.0,     # simulation-exact ceiling
        e23__jain_ecmp=0.1,                # key-vs-key check
    )
    result = run_check(base, current)
    assert result.returncode == 1
    errors = result.stderr
    committed = json.loads((base / "BENCH_e22.json").read_text())
    share = 1500.0 / committed["churn_msgs_per_sec"]
    assert (f"scale-out routing regression: churn msgs/sec fell to {share:.0%}"
            " of the committed baseline") in errors
    assert "BENCH_e22.json: churn_recovery_ratio == 1.0 does not hold" in errors
    assert "BENCH_e22.json: soak_cached_tables <= hosts" in errors
    assert "BENCH_e19.json: loop_events_per_msg <= 20.0" in errors
    assert "BENCH_e23.json: jain_ecmp > jain_single" in errors
    assert errors.count("FAIL ") == 5


def test_schema_drift_fails(tmp_path):
    result = run_check(*fixture_dirs(tmp_path, e18__schema="dash-bench-e18/9"))
    assert result.returncode == 1
    assert "this run schema is 'dash-bench-e18/9'" in result.stderr
