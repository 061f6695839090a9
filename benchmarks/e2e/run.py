"""One command for the end-to-end benchmark of the DASH stack.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1

measures one workload in this process and prints every metric by name
with its unit; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ledger (see README.md).  Without ``--workload`` every workload
runs, untraced and traced, each in a fresh subprocess.  The exit code is
non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")


def bootstrap() -> None:
    """Make ``repro`` (from this checkout) and the ``e2e`` package
    importable.  The script's own directory leaves ``sys.path`` so that
    ``trace.py`` here cannot shadow the standard library's ``trace``."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"run.py: no repro package under {SRC}; nothing to measure")
    sys.path[0] = os.path.dirname(HERE)
    sys.path.insert(0, SRC)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="host seconds of timed regions per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer ledger, with one traced rep")
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes: one short rep, a short prefix")
    parser.add_argument("--out", help="directory for result JSON and spans")
    return parser.parse_args(argv)


def print_table(record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} sim_digest={record['sim_digest']}")
    width = max(len(name) for name in record["metrics"])
    spreads = record["spreads"]
    for name, cell in record["metrics"].items():
        value = cell["value"]
        shown = "null" if value == record["missing"] else f"{value:.6g}"
        spread = f"  rep spread {spreads[name]:.3f}" if spreads.get(name) else ""
        print(f"{name:<{width}}  {shown:>12}  {cell['unit']}{spread}")
    for key, value in record["notes"].items():
        print(f"# {key}: {value}")
    for text in record["errors"]:
        print(f"FAILED: {text}")


def run_one(args: argparse.Namespace) -> int:
    from e2e import harness, ledger, metrics
    from e2e.workloads import WORKLOADS

    try:
        workload_cls = WORKLOADS[args.workload]
    except KeyError:
        sys.exit(f"run.py: unknown workload {args.workload!r}; "
                 f"one of {', '.join(WORKLOADS)}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    seconds = args.seconds if args.seconds is not None else metrics.RUN_SECONDS
    reps = args.reps or metrics.REPS
    if args.quick:
        seconds, reps = min(seconds, 0.3), 1
    if args.trace:
        spans_path = None
        if args.out:
            spans_path = os.path.join(args.out, f"{args.workload}.spans.jsonl")
        result = ledger.per_layer(workload_cls, args.seed, quick=args.quick,
                                  spans_path=spans_path)
        declared = metrics.PER_LAYER
    else:
        result = harness.end_to_end(workload_cls, args.seed, seconds, reps,
                                    quick=args.quick)
        declared = [entry[:3] for entry in metrics.END_TO_END]
    values = result["values"]
    errors = list(result["errors"])
    for name, _unit, _better in declared:
        if not metrics.finite(values.get(name)):
            errors.append(f"metric {name} is {values.get(name)!r}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "sim_digest": result["sim_digest"],
        "missing": metrics.MISSING,
        "metrics": {
            name: {"value": values.get(name), "unit": unit}
            for name, unit, _better in declared
        },
        "spreads": result.get("spreads", {}),
        "notes": result["notes"],
        "errors": errors,
        "correct": not errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
    }
    print_table(record)
    if args.out:
        path = os.path.join(args.out, f"{args.workload}.trace{args.trace}.json")
        with open(path, "w") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    print(json.dumps({
        key: record[key]
        for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0 if record["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    from e2e.workloads import WORKLOADS

    failed = []
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--trace", str(trace)]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.reps:
                command += ["--reps", str(args.reps)]
            if args.quick:
                command.append("--quick")
            if args.out:
                command += ["--out", args.out]
            sys.stdout.flush()
            if subprocess.run(command).returncode:
                failed.append(f"{name} trace={trace}")
    for text in failed:
        print(f"FAILED: {text}")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
