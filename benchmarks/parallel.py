#!/usr/bin/env python
"""Parallel multi-seed bench runner.

Shards (experiment, seed) pairs across worker processes, each invoking
the bench module's uniform ``run(seed, out_dir)`` entry point, then
merges the per-seed summaries into one JSON report; a seed whose result
breaks the claim is a failed shard.

Usage::

    python benchmarks/parallel.py --seeds 1 2 3 --experiments e04 e05
    python benchmarks/parallel.py --seeds 1..8 --workers 4

Per-seed artifacts land under ``<out-dir>/seed<N>/`` so the committed
single-seed snapshots in ``benchmarks/results/`` are never clobbered;
the merged summary is written to ``<out-dir>/summary.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUT = os.path.join(BENCH_DIR, "results", "parallel")

sys.path.insert(0, BENCH_DIR)

from run_all import EXPERIMENTS, failed_claim  # noqa: E402


def _run_one(job: Tuple[str, int, str]) -> Dict[str, Any]:
    """Worker entry point: one (experiment module, seed) shard."""
    module_name, seed, out_dir = job
    # Workers started with the "spawn" method re-import this module, so
    # re-assert the import paths before touching bench modules.
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    module = importlib.import_module(module_name)
    started = time.time()
    try:
        summary = module.run(seed=seed, out_dir=out_dir)
        summary["ok"] = True
    except Exception as error:  # noqa: BLE001 - reported in the summary
        summary = {
            "experiment": module_name[len("bench_"):],
            "seed": seed,
            "ok": False,
            "error": failed_claim(error),
        }
    summary["wall_s"] = time.time() - started
    return summary


def _parse_seeds(tokens: List[str]) -> List[int]:
    seeds: List[int] = []
    for token in tokens:
        if ".." in token:
            lo, hi = token.split("..", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(token))
    return seeds


def _select_experiments(tags: List[str]) -> List[str]:
    if not tags:
        return list(EXPERIMENTS)
    wanted = {tag.lower() for tag in tags}
    chosen = [name for name in EXPERIMENTS if name.split("_")[1] in wanted]
    missing = wanted - {name.split("_")[1] for name in chosen}
    if missing:
        raise SystemExit(f"unknown experiments: {sorted(missing)}")
    return chosen


def _shard_key(summary: Dict[str, Any]) -> Tuple[str, int]:
    seed = summary.get("seed")
    return (summary["experiment"], -1 if seed is None else seed)


def _merge(summaries: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-(experiment, seed) summaries into one report: per-seed
    runtimes plus cross-seed aggregates.

    Shards are sorted by (experiment, seed) before merging, so the
    report is byte-identical no matter which worker finished first.
    """
    merged: Dict[str, Any] = {}
    for summary in sorted(summaries, key=_shard_key):
        entry = merged.setdefault(
            summary["experiment"], {"seeds": {}, "failures": 0}
        )
        key = str(summary.get("seed"))
        if summary.get("ok"):
            entry["seeds"][key] = {
                "elapsed_s": round(summary.get("elapsed_s", 0.0), 3),
                "tables": summary.get("tables", []),
            }
        else:
            entry["failures"] += 1
            entry["seeds"][key] = {"error": summary.get("error")}
    for entry in merged.values():
        elapsed = [
            seed_data["elapsed_s"]
            for seed_data in entry["seeds"].values()
            if "elapsed_s" in seed_data
        ]
        if elapsed:
            entry["elapsed_mean_s"] = round(sum(elapsed) / len(elapsed), 3)
            entry["elapsed_max_s"] = round(max(elapsed), 3)
    return merged


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", default=["1"],
                        help="seed list; ranges like 1..8 are expanded")
    parser.add_argument("--experiments", nargs="*", default=[],
                        help="experiment tags (e01 e22 ...); default: all")
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 2)
    parser.add_argument("--out-dir", default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    seeds = _parse_seeds(args.seeds)
    experiments = _select_experiments(args.experiments)
    jobs = [
        (name, seed, os.path.join(args.out_dir, f"seed{seed}"))
        for seed in seeds
        for name in experiments
    ]
    workers = max(1, min(args.workers, len(jobs)))
    print(f"running {len(jobs)} shards ({len(experiments)} experiments x "
          f"{len(seeds)} seeds) on {workers} workers", flush=True)

    summaries: List[Dict[str, Any]] = []
    started = time.time()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(_run_one, job): job for job in jobs}
        for completed, future in enumerate(as_completed(futures), start=1):
            summary = future.result()
            summaries.append(summary)
            status = "ok" if summary.get("ok") else "FAILED"
            print(f"  [{completed}/{len(jobs)}] [{status}] "
                  f"{summary['experiment']} seed={summary.get('seed')} "
                  f"{summary['wall_s']:.1f}s", flush=True)

    merged = _merge(summaries)
    os.makedirs(args.out_dir, exist_ok=True)
    summary_path = os.path.join(args.out_dir, "summary.json")
    with open(summary_path, "w") as handle:
        json.dump(
            {
                "seeds": seeds,
                "experiments": [n[len("bench_"):] for n in experiments],
                "wall_s": round(time.time() - started, 1),
                "results": merged,
            },
            handle, indent=2, default=str,
        )
        handle.write("\n")
    failures = sum(entry["failures"] for entry in merged.values())
    print(f"merged summary -> {summary_path} "
          f"({len(jobs) - failures}/{len(jobs)} shards ok)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
