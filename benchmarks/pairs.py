"""Alternating parent/change pairs of the end-to-end benchmark.

    python3 benchmarks/pairs.py PARENT_TREE CHANGE_TREE --out DIR \\
        [--seeds 1 2 ... 10] [--workloads W ...] \\
        [--claim WORKLOAD:METRIC ...] [--summary FILE] [--note TEXT]
    python3 benchmarks/pairs.py --out DIR --summary FILE   # summarize only

Each tree is a checkout holding ``benchmarks/e2e/run.py`` and ``src/``;
every run is at ``BENCHMARK.json``'s run length.  Pair ``i`` runs every
workload at ``--seeds[i]`` (a seed may repeat), the two sides of one
workload back to back: odd pairs parent first, even pairs change first,
so drift in the host does not favour one side.
Runs go one at a time, each in a fresh process, into
``DIR/<side>/pairNN_seedS/<workload>.trace0.json`` (``compare.py
DIR/parent DIR/change`` reads that layout); ``DIR/runs.jsonl`` lists
them in the order made with their exit codes.  A run whose result file
is already there is not made again, so an interrupted sweep resumes; a
run made again counts by its last line only.

The summary (``--summary``, else standard output) has, per pair, whether
``sim_digest`` and every ``sim_`` metric are identical; per (workload,
metric) cell, the pairs the change wins, the median of the pair ratios
change / parent and each side's median and quartiles; a line per
``--claim`` saying whether it holds (the change better in at least nine
pairs of ten, and the medians further apart than the parent's quartiles
are); ``compare.py``'s table; and every run with its ``host_speed``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
COMPARE = os.path.join(HERE, "e2e", "compare.py")
SIDES = ("parent", "change")
#: A claim holds when the change wins this share of the pairs.
CLAIM_SHARE = 0.9


def load_manifest() -> dict:
    with open(MANIFEST) as handle:
        return json.load(handle)


def pair_dir(index: int, seed: int) -> str:
    return f"pair{index:02d}_seed{seed}"


def order(index: int) -> tuple:
    """The sides of pair ``index`` (1-based) in the order they run."""
    return SIDES if index % 2 else SIDES[::-1]


def quartiles(values: List[float]) -> tuple:
    """``(q1, q3)`` as ``compare.py`` takes them; one value is both."""
    if len(values) < 2:
        return values[0], values[0]
    low, _, high = quantiles(values, n=4)
    return low, high


def wins(parent: float, change: float, better: str) -> bool:
    return change > parent if better == "higher" else change < parent


def cell(parent: List[float], change: List[float], better: str) -> dict:
    """The statistics of one (workload, metric) cell over paired runs:
    ``parent[i]`` and ``change[i]`` are pair ``i``'s two sides."""
    ratios = [c / p if p else float("nan") for p, c in zip(parent, change)]
    p_low, p_high = quartiles(parent)
    c_low, c_high = quartiles(change)
    p_mid, c_mid = median(parent), median(change)
    return {
        "pairs": len(parent),
        "wins": sum(wins(p, c, better) for p, c in zip(parent, change)),
        "ratio": median(ratios),
        "ratios": ratios,
        "parent": (p_low, p_mid, p_high),
        "change": (c_low, c_mid, c_high),
        "apart": abs(c_mid - p_mid) > p_high - p_low,
    }


def claim_holds(stats: dict, better: str) -> bool:
    """At least :data:`CLAIM_SHARE` of the pairs won, and the medians in
    the better direction and further apart than the parent's quartiles."""
    p_mid, c_mid = stats["parent"][1], stats["change"][1]
    return (stats["wins"] >= CLAIM_SHARE * stats["pairs"] and stats["apart"]
            and wins(p_mid, c_mid, better))


def read_runs(out: str) -> List[dict]:
    """The runs of ``out`` in the order made, each with its result.  A run
    made again (a resumed sweep retries a failed one) is its last line."""
    with open(os.path.join(out, "runs.jsonl")) as handle:
        lines = [json.loads(line) for line in handle]
    last = {(run["pair"], run["workload"], run["side"]): run for run in lines}
    runs = [run for run in lines
            if last[(run["pair"], run["workload"], run["side"])] is run]
    for run in runs:
        result = os.path.join(out, run["side"], pair_dir(run["pair"], run["seed"]),
                              f"{run['workload']}.trace0.json")
        run["record"] = None
        if os.path.exists(result):
            with open(result) as record:
                run["record"] = json.load(record)
    return runs


def _value(record: Optional[dict], name: str):
    if record is None:
        return None
    return record["metrics"].get(name, {}).get("value")


def _sim_identical(a: Optional[dict], b: Optional[dict]) -> bool:
    if a is None or b is None or a["sim_digest"] != b["sim_digest"]:
        return False
    return all(_value(a, name) == _value(b, name)
               for name in a["metrics"] if name.startswith("sim_"))


def _fmt(value: float) -> str:
    return f"{value:,.1f}" if abs(value) >= 1000 else f"{value:.4g}"


def summarize(runs: List[dict], manifest: dict, claims=()) -> List[str]:
    """The summary's lines up to the run list (:func:`run_lines`)."""
    metrics = {entry["name"]: entry["better"] for entry in manifest["end_to_end"]}
    by_key: Dict[tuple, dict] = {}
    for run in runs:
        by_key[(run["pair"], run["workload"], run["side"])] = run
    workloads = [w["name"] for w in manifest["workloads"]
                 if any(run["workload"] == w["name"] for run in runs)]
    pairs = sorted({run["pair"] for run in runs})
    complete = [(pair, workload) for pair in pairs for workload in workloads
                if all((by_key.get((pair, workload, side)) or {}).get("record")
                       for side in SIDES)]
    identical = sum(
        _sim_identical(by_key[(p, w, "parent")]["record"],
                       by_key[(p, w, "change")]["record"])
        for p, w in complete)
    made = [run for run in runs if run["record"] is not None]
    delivered = sum(_value(run["record"], "delivered_share") == 1.0 for run in made)
    failed_ops = sum(run["record"]["failed"] for run in made)
    bad = [f"pair{run['pair']} {run['side']} {run['workload']} exit={run['exit']}"
           for run in runs if run["exit"] != 0 or run["record"] is None]
    lines = [
        f"pairs {len(complete)} (workload x pair); sim_digest and every sim_ "
        f"metric identical in {identical}/{len(complete)}; delivered_share "
        f"1.0 in {delivered}/{len(made)} runs; failed operations "
        f"{failed_ops}; bad runs: {bad or 'none'}",
        "",
    ]
    table = {}
    for workload in workloads:
        done = [p for p, w in complete if w == workload]
        for name, better in metrics.items():
            values = {
                side: [_value(by_key[(p, workload, side)]["record"], name)
                       for p in done]
                for side in SIDES
            }
            if done and None not in values["parent"] + values["change"]:
                table[(workload, name)] = cell(values["parent"], values["change"],
                                               better)
    for spec in claims:
        workload, name = spec.split(":")
        stats = table.get((workload, name))
        if stats is None:
            lines.append(f"claim {workload} {name}: no complete pairs")
            continue
        p_low, p_mid, p_high = stats["parent"]
        c_mid = stats["change"][1]
        holds = claim_holds(stats, metrics[name])
        ratios = " ".join(f"{r:.3f}" for r in stats["ratios"])
        lines += [
            f"claim {workload} {name} ({metrics[name]} is better): change "
            f"better in {stats['wins']}/{stats['pairs']} pairs; median pair "
            f"ratio {stats['ratio']:.3f}; medians {_fmt(p_mid)} -> "
            f"{_fmt(c_mid)}; parent quartiles {_fmt(p_low)}-{_fmt(p_high)} "
            f"(IQR {_fmt(p_high - p_low)}); "
            f"{'HOLDS' if holds else 'does NOT hold'}",
            f"  pair ratios: {ratios}",
        ]
    if claims:
        lines.append("")
    lines.append("== per cell: pairs the change wins, median pair ratio "
                 "change/parent, quartiles q1 median q3 per side ==")
    lines.append(f"{'workload':<20} {'metric':<26} {'wins':>6} {'ratio':>7}  "
                 f"{'parent q1 / median / q3':>32}  "
                 f"{'change q1 / median / q3':>32}  apart")
    for (workload, name), stats in table.items():
        sides = ["/".join(_fmt(v) for v in stats[side]) for side in SIDES]
        lines.append(
            f"{workload:<20} {name:<26} {stats['wins']:>3}/{stats['pairs']:<2} "
            f"{stats['ratio']:>7.4f}  {sides[0]:>32}  {sides[1]:>32}  "
            f"{'yes' if stats['apart'] else 'no'}")
    return lines


def run_lines(runs: List[dict], manifest: dict) -> List[str]:
    """Every run in the order made, with its ``host_speed``."""
    metrics = [entry["name"] for entry in manifest["end_to_end"]]
    header = (f"{'pair':<6} {'seed':>4} {'side':<7} {'workload':<20} "
              f"{'sim_digest':<10} {'host_speed':>10} "
              + " ".join(f"{name:>12}" for name in metrics) + "  exit")
    lines = ["== every run, in the order made ==", header]
    for run in runs:
        record = run["record"]
        digest = record["sim_digest"] if record else "-"
        speed = record["notes"].get("host_speed", "-") if record else "-"
        values = " ".join(
            f"{_fmt(v) if v is not None else '-':>12}"
            for v in (_value(record, name) for name in metrics))
        lines.append(f"pair{run['pair']:<2} {run['seed']:>4} {run['side']:<7} "
                     f"{run['workload']:<20} {digest:<10} {speed:>10} "
                     f"{values}  exit={run['exit']}")
    return lines


def sweep(trees: Dict[str, str], out: str, seeds: List[int],
          workloads: List[str]) -> None:
    """Make every run not made yet, appending each to ``runs.jsonl``."""
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "runs.jsonl")
    made = set()
    if os.path.exists(log):
        made = {(r["pair"], r["workload"], r["side"]) for r in read_runs(out)
                if r["record"] is not None}
    for index, seed in enumerate(seeds, start=1):
        for workload in workloads:
            for side in order(index):
                if (index, workload, side) in made:
                    continue
                target = os.path.join(out, side, pair_dir(index, seed))
                command = [sys.executable,
                           os.path.join(trees[side], "benchmarks", "e2e", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--trace", "0", "--out", target]
                code = subprocess.run(command, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.DEVNULL).returncode
                with open(log, "a") as handle:
                    handle.write(json.dumps({"pair": index, "seed": seed,
                                             "side": side, "workload": workload,
                                             "exit": code}) + "\n")
                print(f"pair {index} seed {seed} {workload} {side}: exit {code}",
                      flush=True)


def compare_table(out: str) -> List[str]:
    result = subprocess.run(
        [sys.executable, COMPARE, os.path.join(out, "parent"),
         os.path.join(out, "change")],
        capture_output=True, text=True)
    return (["== compare.py parent change (medians over the runs of a side) =="]
            + result.stdout.splitlines()
            + [f"compare.py exit code {result.returncode}", ""])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", metavar="TREE",
                        help="the parent's tree, then the change's")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC")
    parser.add_argument("--summary", help="write the summary here")
    parser.add_argument("--note", default="", help="text to open the summary")
    args = parser.parse_args(argv)
    manifest = load_manifest()
    if args.trees:
        if len(args.trees) != 2:
            parser.error("give two trees: the parent's, then the change's")
        workloads = args.workloads or [w["name"] for w in manifest["workloads"]]
        sweep(dict(zip(SIDES, map(os.path.abspath, args.trees))), args.out,
              args.seeds, workloads)
    runs = read_runs(args.out)
    lines = [args.note, ""] if args.note else []
    lines += summarize(runs, manifest, args.claim) + [""]
    lines += compare_table(args.out) + run_lines(runs, manifest)
    text = "\n".join(lines)
    if args.summary:
        with open(args.summary, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
