"""Which functions of ``src/repro`` the experiments, examples and workloads
run, and which statements inside them never run.

ROADMAP aim 2's rule for code: a public name in ``src/`` earns its place
when an experiment, an example or an end-to-end workload reaches it.
This script regenerates the list of what none of them reaches, so the
list is measured, not remembered.  In one process, under
``sys.settrace`` (standard library only), it runs

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
signature and docstring included, decorators not.  An unreached function
is a *repr* (``__repr__`` / ``__str__``), a *hook* (its body only raises
``NotImplementedError``) or *other*.

Line events are traced in package code only.  A statement of a reached
function has run when any line of its own header ran: for a compound
statement that is its first line (decorators included) through the line
before its body, for any other statement all of its lines.  Docstrings
do not count, and the bodies of nested ``def``, ``class`` and ``lambda``
belong to their own function (a ``def`` or ``class`` statement's header
is a statement of the function that runs it).  ``raise`` statements are
counted apart from the rest.

The report, ``benchmarks/results/reach.txt``, is a header with the
reached / total functions, the unreached body lines, the unreached
functions by kind and the statements never run; then the unreached
functions as ``module:qualname``, sorted; then one row per reached
function with statements that never ran, ``module:qualname <non-raise>
<raise>``, sorted.  No row carries a line number, so an edit elsewhere in
a file does not change the report.

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
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REPORT = os.path.join(HERE, "results", "reach.txt")
E2E_SEED = 1
TITLE = ("# Functions of src/repro that E1-E17, E22, E23, the five examples and\n"
         "# the six e2e workloads (quick prefix) never enter, and the statements\n"
         "# never run in the functions they do enter.\n"
         "# Regenerate: python benchmarks/reach.py\n")
LINE_SECTION = "# module:qualname <non-raise> <raise> statements never run"


class Function(NamedTuple):
    name: str  # "package.module:Qualified.name"
    body_lines: int
    kind: str  # "repr", "hook" or "other"
    #: (header lines, is a raise) for each statement the function runs.
    statements: List[Tuple[range, bool]]


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
            body = child.body
            if _is_docstring(body[0]):
                body = body[1:]
            found[(path, _first_line(child))] = Function(
                f"{module}:{qualname}", child.end_lineno - child.lineno + 1,
                _kind(child.name, body), list(_statements(body)))
            _collect(child, module, path, qualname + ".<locals>.", found)
        elif isinstance(child, ast.ClassDef):
            _collect(child, module, path, prefix + child.name + ".", found)
        else:
            _collect(child, module, path, prefix, found)


def _first_line(node) -> int:
    return min([node.lineno] + [d.lineno for d in
                                getattr(node, "decorator_list", ())])


def _is_docstring(statement) -> bool:
    return (isinstance(statement, ast.Expr)
            and isinstance(statement.value, ast.Constant)
            and isinstance(statement.value.value, str))


def _kind(name: str, body: list) -> str:
    if name in ("__repr__", "__str__"):
        return "repr"
    if len(body) == 1 and isinstance(body[0], ast.Raise):
        raised = body[0].exc
        if isinstance(raised, ast.Call):
            raised = raised.func
        if isinstance(raised, ast.Name) and raised.id == "NotImplementedError":
            return "hook"
    return "other"


def _statements(body: list):
    """(header lines, is a raise) for each statement of ``body`` and of
    the compound statements in it, nested functions and classes aside."""
    for statement in body:
        inner = [block for block in (
            getattr(statement, name, None)
            for name in ("body", "orelse", "finalbody"))
            if isinstance(block, list) and block]
        inner += [handler.body for handler in getattr(statement, "handlers", ())]
        inner += [case.body for case in getattr(statement, "cases", ())]
        first = _first_line(statement)
        if inner:
            last = max(first, min(block[0].lineno for block in inner) - 1)
        else:
            last = statement.end_lineno
        yield range(first, last + 1), isinstance(statement, ast.Raise)
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
            continue  # its body runs as its own code
        for block in inner:
            yield from _statements(block)


def survey(src: str, package: str, drive: Callable[[], None]) -> str:
    """Run ``drive`` under the tracer and render the report for every
    function under ``src/<package>``.  Start it before ``package`` is
    imported, so that what runs at import time counts as reached."""
    root = os.path.join(os.path.abspath(src), package) + os.sep
    entered: Dict[int, tuple] = {}  # id(code) -> (code, its line tracer)
    ran: Dict[str, Set[int]] = defaultdict(set)  # file -> lines run

    def line_tracer(lines: Set[int]):
        def local(frame, event, _arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def trace(frame, _event, _arg):
        code = frame.f_code
        known = entered.get(id(code))
        if known is None:
            path = os.path.abspath(code.co_filename)
            known = entered[id(code)] = (
                code, line_tracer(ran[path]) if path.startswith(root) else None)
        return known[1]

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        drive()
    finally:
        sys.settrace(previous)
    reached = {(os.path.abspath(code.co_filename), code.co_firstlineno)
               for code, _tracer in entered.values()}
    every = functions(src, package)
    missed = sorted(fn for key, fn in every.items() if key not in reached)
    rows, unrun = [], [0, 0]
    for (path, _first), fn in every.items():
        if (path, _first) not in reached:
            continue
        counts = [0, 0]
        for header, is_raise in fn.statements:
            if ran[path].isdisjoint(header):
                counts[is_raise] += 1
        if any(counts):
            rows.append(f"{fn.name} {counts[0]} {counts[1]}")
            unrun[0] += counts[0]
            unrun[1] += counts[1]
    kinds = {kind: sum(fn.kind == kind for fn in missed)
             for kind in ("repr", "hook", "other")}
    lines = sum(fn.body_lines for fn in missed)
    header = [
        f"# reached {len(every) - len(missed)} / {len(every)} functions"
        f" of {package}; {len(missed)} unreached hold {lines} body lines",
        f"# unreached: {kinds['repr']} reprs, {kinds['hook']} hooks,"
        f" {kinds['other']} other",
        f"# never run in {len(rows)} reached functions: {unrun[0]} statements"
        f" and {unrun[1]} raise statements",
    ]
    return "\n".join(header + [fn.name for fn in missed]
                     + [LINE_SECTION] + sorted(rows)) + "\n"


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
    summary = "; ".join(line[2:] for line in report.splitlines()[:3])
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
