"""Compare the ``BENCH_*.json`` files a perf-smoke run just wrote against
the committed ones.

    python benchmarks/check_baselines.py BASELINE_DIR [CURRENT_DIR]

``BASELINE_DIR`` holds copies of the committed files taken before the
benches overwrote them; ``CURRENT_DIR`` (default: the repository root)
holds the fresh ones.  One row of ``BENCHES`` per file says what is
checked: the schema, one figure that may not fall below ``TOLERANCE``
of the committed value (a ratio of two arms run on one box where the
bench has two, else an absolute rate, which is machine-dependent), and
the floors and simulation-exact flags that hold on any machine.  Exit
status 1 and one line per failure if anything is off.
"""

from __future__ import annotations

import json
import operator
import sys
from pathlib import Path
from typing import List, NamedTuple, Tuple, Union

TOLERANCE = 0.8

OPS = {
    ">=": operator.ge, "<=": operator.le, ">": operator.gt,
    "<": operator.lt, "==": operator.eq, "is": operator.is_,
}

#: ``(key, op, bound)``; a string bound names another key of the same file.
Check = Tuple[str, str, Union[str, float, bool]]


class Bench(NamedTuple):
    file: str
    schema: str
    ratio_key: str
    #: "<what> regression: <which number>", as the failure line starts.
    regression: str
    checks: Tuple[Check, ...] = ()
    #: How the ratio key's two values are printed.
    show: str = "{:.2f}x"


BENCHES = (
    # Both event loops run on the same box.
    Bench("BENCH_e18.json", "dash-bench-e18/1", "speedup_vs_legacy",
          "fast-path regression: speedup"),
    # Loop events per delivered message are simulation-exact.
    Bench("BENCH_e19.json", "dash-bench-e19/2", "msgs_per_sec",
          "message-path regression: msgs/sec",
          (("loop_events_per_msg", "<=", 20.0),), show="{:.0f}"),
    # One resolver, so an absolute rate; the search count, recovery and
    # the soak's cache bound are simulation-exact.
    Bench("BENCH_e22.json", "dash-bench-e22/2", "churn_msgs_per_sec",
          "scale-out routing regression: churn msgs/sec",
          (("resolutions_per_msg", "<", 0.1),
           ("churn_recovery_ratio", "==", 1.0),
           ("soak_recovery_ratio", "==", 1.0),
           ("soak_cached_tables", "<=", "hosts")), show="{:.0f}"),
    # A ratio of simulated-time rates: deterministic, so the tolerance
    # only guards a workload edit that forgot to refresh the baseline.
    Bench("BENCH_e23.json", "dash-bench-e23/1", "ecmp_speedup",
          "mesh-transport regression: ECMP speedup",
          (("ecmp_speedup", ">=", 1.2),
           ("jain_ecmp", ">", "jain_single"),
           ("tiefree_trace_identical", "is", True),
           ("flap_failed_match_pinned", "is", True),
           ("flap_full_invalidations", "==", 0))),
)


def check_bench(bench: Bench, base: dict, current: dict) -> List[str]:
    """The failure lines for one bench file (empty: it holds)."""
    failures = []
    for name, payload in (("committed", base), ("this run", current)):
        if payload.get("schema") != bench.schema:
            failures.append(
                f"{bench.file}: {name} schema is {payload.get('schema')!r},"
                f" expected {bench.schema!r}"
            )
    if failures:
        return failures
    key, show = bench.ratio_key, bench.show.format
    ratio = current[key] / base[key]
    print(f"{key}: committed {show(base[key])},"
          f" this run {show(current[key])} (ratio {ratio:.2f})")
    if not ratio >= TOLERANCE:
        failures.append(
            f"{bench.regression} fell to {ratio:.0%} of the committed baseline"
        )
    for key, op, bound in bench.checks:
        value = current[bound] if isinstance(bound, str) else bound
        if not OPS[op](current[key], value):
            failures.append(
                f"{bench.file}: {key} {op} {bound} does not hold: {current}"
            )
    return failures


def check(baseline_dir: Path, current_dir: Path) -> List[str]:
    failures = []
    for bench in BENCHES:
        with open(baseline_dir / bench.file) as handle:
            base = json.load(handle)
        with open(current_dir / bench.file) as handle:
            current = json.load(handle)
        failures.extend(check_bench(bench, base, current))
    return failures


def main(argv: List[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    current_dir = Path(argv[1]) if len(argv) == 2 else Path(__file__).parent.parent
    failures = check(Path(argv[0]), current_dir)
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
