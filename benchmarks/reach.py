"""Which functions of ``src/repro`` the experiments, examples and workloads run.

ROADMAP aim 2's rule for code: a public name in ``src/`` earns its place
when an experiment, an example or an end-to-end workload reaches it.
This script regenerates the list of what none of them reaches, so the
list is measured, not remembered.  In one process, under
``sys.setprofile`` (standard library only), it runs

* every ``bench_e*.py``'s ``run(out_dir=<temporary directory>)`` in
  filename order;
* the five examples, as ``__main__``;
* the six e2e workloads of ``benchmarks/e2e/workloads.py``, one rep each
  through ``harness.run_rep`` with a zero budget, which stops at the
  workload's quick prefix: the amount of work, and so the reached set,
  does not depend on host speed.

A function counts as reached when its body is entered once (a ``call``
event on its code object).  Every ``def`` in the package is a function,
methods and nested functions included; lambdas and comprehensions are
not.  A function's *body lines* are the lines of its ``def`` statement,
signature and docstring included, decorators not.

The report, ``benchmarks/results/reach.txt``, is a header with the
reached / total functions and the unreached body lines, then the
unreached functions as ``module:qualname``, sorted, without line
numbers (an edit elsewhere in a file does not change the list).

Usage::

    python benchmarks/reach.py            # rewrite benchmarks/results/reach.txt
    python benchmarks/reach.py --check    # exit 1 if a fresh run differs from it
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import difflib
import glob
import importlib
import io
import os
import runpy
import sys
import tempfile
from typing import Callable, Dict, NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REPORT = os.path.join(HERE, "results", "reach.txt")
E2E_SEED = 1
TITLE = ("# Functions of src/repro that E1-E17, E22, E23, the five examples and\n"
         "# the six e2e workloads (quick prefix) never enter.\n"
         "# Regenerate: python benchmarks/reach.py\n")


class Function(NamedTuple):
    name: str  # "package.module:Qualified.name"
    body_lines: int


def functions(src: str, package: str) -> Dict[tuple, Function]:
    """Every ``def`` under ``src/<package>``, keyed by the (file, first
    line) its code object reports; a decorated function's code starts at
    its first decorator."""
    found = {}
    for path in sorted(glob.glob(os.path.join(src, package, "**", "*.py"),
                                 recursive=True)):
        path = os.path.abspath(path)
        module = os.path.relpath(path, src)[:-len(".py")].replace(os.sep, ".")
        if module.endswith(".__init__"):
            module = module[:-len(".__init__")]
        with open(path) as handle:
            tree = ast.parse(handle.read(), path)
        _collect(tree, module, path, "", found)
    return found


def _collect(node, module: str, path: str, prefix: str, found: dict) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            found[(path, first)] = Function(
                f"{module}:{qualname}", child.end_lineno - child.lineno + 1)
            _collect(child, module, path, qualname + ".<locals>.", found)
        elif isinstance(child, ast.ClassDef):
            _collect(child, module, path, prefix + child.name + ".", found)
        else:
            _collect(child, module, path, prefix, found)


def survey(src: str, package: str, drive: Callable[[], None]) -> str:
    """Run ``drive`` under the profiler and render the report for every
    function under ``src/<package>``.  Start it before ``package`` is
    imported, so that what runs at import time counts as reached."""
    entered = {}

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            entered[id(code)] = code

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        drive()
    finally:
        sys.setprofile(previous)
    reached = {(os.path.abspath(code.co_filename), code.co_firstlineno)
               for code in entered.values()}
    every = functions(src, package)
    missed = sorted(fn for key, fn in every.items() if key not in reached)
    lines = sum(fn.body_lines for fn in missed)
    header = (f"# reached {len(every) - len(missed)} / {len(every)} functions"
              f" of {package}; {len(missed)} unreached hold {lines} body lines")
    return "\n".join([header] + [fn.name for fn in missed]) + "\n"


def drive_everything() -> None:
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    with tempfile.TemporaryDirectory() as out_dir, \
            contextlib.redirect_stdout(io.StringIO()):
        _drive(out_dir)


def _drive(out_dir: str) -> None:
    for path in sorted(glob.glob(os.path.join(HERE, "bench_e*.py"))):
        importlib.import_module(os.path.basename(path)[:-len(".py")]).run(
            out_dir=out_dir)
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
        runpy.run_path(path, run_name="__main__")
    from e2e import harness
    from e2e.workloads import WORKLOADS

    for workload_cls in WORKLOADS.values():
        rep = harness.run_rep(workload_cls, E2E_SEED, budget_s=0,
                              prefix_rounds=workload_cls.quick_prefix_rounds)
        if rep.errors:
            raise RuntimeError(f"{workload_cls.name}: {rep.errors}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare a fresh run with the committed report")
    args = parser.parse_args(argv)
    report = survey(SRC, "repro", drive_everything)
    summary = report.split("\n", 1)[0][2:]
    text = TITLE + report
    if not args.check:
        with open(REPORT, "w") as handle:
            handle.write(text)
        print(summary)
        return 0
    with open(REPORT) as handle:
        committed = handle.read()
    if text == committed:
        print("reach.txt is current: " + summary)
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        committed.splitlines(True), text.splitlines(True),
        "benchmarks/results/reach.txt (committed)", "fresh run"))
    print("reach.txt is stale: run python benchmarks/reach.py and commit it")
    return 1


if __name__ == "__main__":
    sys.exit(main())
