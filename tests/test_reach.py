"""The reach probe (`benchmarks/reach.py`) on a toy package.

The committed ``benchmarks/results/reach.txt`` is held by its own CI job
(``python benchmarks/reach.py --check``, about a minute under the
profiler); here the probe itself is checked: a called function is
reached, an uncalled one is listed, and two runs agree exactly.
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
'''


def survey_toy(src: Path) -> str:
    def drive():
        toy = importlib.import_module("reach_toy")
        toy.called()
        assert toy.Box().size == 3

    sys.path.insert(0, str(src))
    try:
        return reach.survey(str(src), "reach_toy", drive)
    finally:
        sys.path.remove(str(src))
        sys.modules.pop("reach_toy", None)


def test_called_is_reached_and_uncalled_is_listed(tmp_path):
    (tmp_path / "reach_toy").mkdir()
    (tmp_path / "reach_toy" / "__init__.py").write_text(TOY)
    first = survey_toy(tmp_path)
    assert first.splitlines() == [
        "# reached 3 / 5 functions of reach_toy; 2 unreached hold 5 body lines",
        "reach_toy:Box.unused",
        "reach_toy:uncalled",
    ]
    assert survey_toy(tmp_path) == first
