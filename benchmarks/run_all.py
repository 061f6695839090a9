#!/usr/bin/env python
"""Run every experiment, print its table and check its claim.

Usage:  python benchmarks/run_all.py [e01 e05 ...]

With no arguments, runs every experiment in order.  The experiment
list is *discovered*, not maintained by hand: every ``bench_e*.py``
module in this directory is an experiment (sorted by filename, so the
``eNN`` tag ordering holds), and each exposes the uniform
``run(seed, out_dir)`` entry point built by ``common.make_run``, which
also checks the claim: a failed one is printed with its source line and
the exit status is 1.  A new bench is picked up by this runner and
``benchmarks/parallel.py`` the moment the file lands.  For multi-seed sweeps across worker
processes use ``benchmarks/parallel.py``.
"""

from __future__ import annotations

import glob
import importlib
import os
import sys
import time
import traceback

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _BENCH_DIR)


def discover_experiments() -> list:
    """Every ``bench_e*.py`` module name in this directory, sorted."""
    return sorted(
        os.path.splitext(os.path.basename(path))[0]
        for path in glob.glob(os.path.join(_BENCH_DIR, "bench_e*.py"))
    )


EXPERIMENTS = discover_experiments()


def failed_claim(error: BaseException) -> str:
    """What a failed run says: for a failed ``assert`` (whose message is
    empty) the source line of the claim that failed, else the error."""
    if not isinstance(error, AssertionError):
        return f"{type(error).__name__}: {error}"
    frame = traceback.extract_tb(error.__traceback__)[-1]
    return f"{os.path.basename(frame.filename)}:{frame.lineno}: {frame.line}"


def main(argv) -> int:
    wanted = [arg.lower() for arg in argv[1:]]
    failures = 0
    for name in EXPERIMENTS:
        tag = name.split("_")[1]  # e01, e02, ...
        if wanted and tag not in wanted:
            continue
        module = importlib.import_module(name)
        started = time.time()
        try:
            module.run(echo=True)
        except Exception as error:  # noqa: BLE001 - report and continue
            print(f"!! {name} failed: {failed_claim(error)}")
            failures += 1
            continue
        print(f"[{tag}: {time.time() - started:.1f}s]\n")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
