"""The reach probe (`benchmarks/reach.py`) on a toy package.

The committed ``benchmarks/results/reach.txt`` is held by its own CI job
(``python benchmarks/reach.py --check``, about a minute under the
line tracer); here the probe itself is checked: a called function is
reached, an uncalled one is listed by kind, a statement that never runs
in a reached function is counted, a ``raise`` apart, and two runs agree
exactly.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "reach.py"
spec = importlib.util.spec_from_file_location("reach", SCRIPT)
reach = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reach)

TOY = '''\
def called():
    return helper()


def helper():
    return 1


def uncalled():
    """Never run."""
    return 2


class Box:
    @property
    def size(self):
        return 3

    def unused(self):
        pass

    def hook(self):
        raise NotImplementedError

    def __repr__(self):
        return "<Box>"
'''

ARMS = '''\
def check(value):
    """A docstring is no statement."""
    if (value is None
            or value < 0):
        note = "bad"
        raise ValueError(note)
    for _ in range(value):
        pass
    else:
        done = True

    def nested():
        return 1
    return value
'''


def survey_toy(src: Path, package: str, drive) -> str:
    sys.path.insert(0, str(src))
    try:
        return reach.survey(str(src), package, drive)
    finally:
        sys.path.remove(str(src))
        sys.modules.pop(package, None)


def test_called_is_reached_and_uncalled_is_listed(tmp_path):
    (tmp_path / "reach_toy").mkdir()
    (tmp_path / "reach_toy" / "__init__.py").write_text(TOY)

    def drive():
        toy = importlib.import_module("reach_toy")
        toy.called()
        assert toy.Box().size == 3

    first = survey_toy(tmp_path, "reach_toy", drive)
    assert first.splitlines() == [
        "# reached 3 / 7 functions of reach_toy; 4 unreached hold 9 body lines",
        "# unreached: 1 reprs, 1 hooks, 2 other",
        "# never run in 0 reached functions: 0 statements and 0 raise statements",
        "reach_toy:Box.__repr__",
        "reach_toy:Box.hook",
        "reach_toy:Box.unused",
        "reach_toy:uncalled",
        reach.LINE_SECTION,
    ]
    assert survey_toy(tmp_path, "reach_toy", drive) == first


def test_an_arm_that_never_runs_is_counted_and_a_raise_apart(tmp_path):
    # check(2) passes the two-line condition and runs the loop and its
    # else; the arm under the condition (an assignment and a raise) never
    # runs, and neither does the nested function's body -- it is its own
    # function, unreached, while its ``def`` statement ran.
    (tmp_path / "reach_arms").mkdir()
    (tmp_path / "reach_arms" / "__init__.py").write_text(ARMS)

    def drive():
        assert importlib.import_module("reach_arms").check(2) == 2

    report = survey_toy(tmp_path, "reach_arms", drive)
    assert report.splitlines() == [
        "# reached 1 / 2 functions of reach_arms; 1 unreached hold 2 body lines",
        "# unreached: 0 reprs, 0 hooks, 1 other",
        "# never run in 1 reached functions: 1 statements and 1 raise statements",
        "reach_arms:check.<locals>.nested",
        reach.LINE_SECTION,
        "reach_arms:check 1 1",
    ]
