"""Compare two sets of benchmark results.

    python3 benchmarks/e2e/compare.py A/ B/

``A`` is the base (the parent commit), ``B`` the change.  Each directory
holds the ``<workload>.trace0.json`` files that ``run.py --out`` writes,
at any depth: one file per workload compares single runs, several (one
sub-directory per run, say ``A/run01/`` ... ``A/run10/``) compare the
medians over runs.

One row per (workload, end-to-end metric): base value, ratio B/A, the
metric's bound, both spreads and a verdict.  With four or more runs a
side's spread is the distance between the quartiles of its runs over
their median; with fewer it is the widest spread over reps that the runs
recorded.  ``setup_s`` may also move by :data:`ABSOLUTE_FLOOR` seconds: its
bound is max(25%, 0.05 s), and ``BENCHMARK.json`` has room for the share
only.  The exit code is non-zero when any row is ``worse``.
"""

from __future__ import annotations

import glob
import json
import os
import sys
from collections import defaultdict
from statistics import median, quantiles

SUFFIX = ".trace0.json"
#: The metric names, directions and bounds come from the contract file.
MANIFEST = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "BENCHMARK.json"
)
#: Metric -> a move, in the metric's unit, too small to be a verdict.  The
#: LAN set-ups take 3 to 15 ms; a quarter of that is scheduler jitter.
ABSOLUTE_FLOOR = {"setup_s": 0.05}


def manifest() -> dict:
    with open(MANIFEST) as handle:
        return json.load(handle)


def verdict(base: float, value: float, better: str, bound: float,
            spread: float, floor: float = 0.0) -> str:
    """Classify one cell.

    ``worse`` / ``better``: the value moved against / with ``better`` by
    more than ``bound`` of the base.  Where the spread is wider than the
    bound a move smaller than the spread cannot be told from noise, so
    the cell is ``unresolved`` rather than ``same``.  A move smaller than
    ``floor`` is ``same`` whatever share of the base it is.
    """
    if abs(value - base) < floor:
        return "same"
    if not base:
        return "same" if not value else "unresolved"
    change = (value - base) / abs(base)
    if better == "higher":
        change = -change
    # ``change`` > 0 now means the metric got worse.
    resolution = max(bound, spread)
    if change > resolution:
        return "worse"
    if change < -resolution:
        return "better"
    return "unresolved" if spread > bound else "same"


def load(directory: str) -> dict:
    """``{workload: [record, ...]}`` for every result file under
    ``directory``."""
    runs = defaultdict(list)
    pattern = os.path.join(directory, "**", "*" + SUFFIX)
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path) as handle:
            record = json.load(handle)
        runs[record["workload"]].append(record)
    return runs


def cell(records: list, name: str):
    """(value, spread) of one metric over one side's runs."""
    values = [record["metrics"][name]["value"] for record in records]
    middle = median(values)
    if len(values) >= 4 and middle:
        low, _, high = quantiles(values, n=4)
        return middle, (high - low) / abs(middle)
    recorded = [record["spreads"].get(name, 0.0) for record in records]
    return middle, max(recorded)


def compare(base_dir: str, change_dir: str):
    """Rows ``(workload, metric, base, ratio, bound, spread_a, spread_b,
    verdict)`` plus notes on mismatched digests or missing workloads."""
    base_runs, change_runs = load(base_dir), load(change_dir)
    declared = manifest()
    order = [workload["name"] for workload in declared["workloads"]]
    rows, notes = [], []
    for workload in sorted(
        base_runs, key=lambda name: order.index(name) if name in order else 99
    ):
        base = base_runs[workload]
        change = change_runs.get(workload)
        if not change:
            notes.append(f"{workload}: no result under {change_dir}")
            continue
        for metric in declared["end_to_end"]:
            name, better, bound = (
                metric["name"], metric["better"], metric["bound"])
            a, spread_a = cell(base, name)
            b, spread_b = cell(change, name)
            rows.append((
                workload, name, a, b / a if a else float("nan"), bound,
                spread_a, spread_b,
                verdict(a, b, better, bound, max(spread_a, spread_b),
                        ABSOLUTE_FLOOR.get(name, 0.0)),
            ))
        digests = {
            (record["seed"], record["sim_digest"]) for record in base
        } ^ {(record["seed"], record["sim_digest"]) for record in change}
        seeds = sorted({seed for seed, _ in digests})
        if seeds:
            notes.append(
                f"{workload}: sim_digest differs or is unpaired at seed(s) "
                + ", ".join(map(str, seeds))
            )
    for workload in change_runs:
        if workload not in base_runs:
            notes.append(f"{workload}: no result under {base_dir}")
    return rows, notes


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    rows, notes = compare(*argv)
    if not rows:
        sys.exit(f"compare.py: no *{SUFFIX} files to compare")
    print(f"{'workload':<20} {'metric':<26} {'base':>12} {'ratio':>8} "
          f"{'bound':>6} {'spread A':>9} {'spread B':>9}  verdict")
    for workload, name, base, ratio, bound, spread_a, spread_b, text in rows:
        print(f"{workload:<20} {name:<26} {base:>12.6g} {ratio:>8.4f} "
              f"{bound:>6.3f} {spread_a:>9.4f} {spread_b:>9.4f}  {text}")
    for note in notes:
        print(f"# {note}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
