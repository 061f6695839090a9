"""``common.make_run``: ``run()`` writes both result files, then checks the
claim on the experiment's own result; a failed claim raises out of
``run()``, and ``run_all.py`` prints the line that failed."""

from __future__ import annotations

import contextlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import common  # noqa: E402
import run_all  # noqa: E402

FILES = ["e99_toy.metrics.json", "e99_toy.txt"]


def toy(limit: int, out_dir: Path, seen: dict):
    """A toy experiment whose claim is that every row is below ``limit``."""

    def run_experiment():
        seen["returned"] = {"rows": [3, 4]}
        return seen["returned"]

    def render(result):
        table = common.Table("E99: toy", ["n"])
        for n in result["rows"]:
            table.add_row(n)
        return table

    def check(result):
        seen["checked"] = result
        seen["files"] = sorted(path.name for path in out_dir.iterdir())
        assert max(result["rows"]) < limit

    return common.make_run("e99_toy", run_experiment, render, check)


@pytest.mark.parametrize("limit, outcome", [
    (10, contextlib.nullcontext()), (4, pytest.raises(AssertionError))])
def test_check_gets_the_result_after_both_files_are_written(tmp_path, limit,
                                                            outcome):
    seen = {}
    with outcome:
        toy(limit, tmp_path, seen)(out_dir=str(tmp_path))
    assert seen["checked"] is seen["returned"]
    assert seen["files"] == FILES
    assert "extra" not in (tmp_path / FILES[0]).read_text()


def test_run_all_prints_the_line_of_the_failed_claim(tmp_path, monkeypatch,
                                                     capsys):
    module = type(sys)("bench_e99_toy")
    module.run = lambda echo: toy(4, tmp_path, {})(out_dir=str(tmp_path))
    monkeypatch.setitem(sys.modules, "bench_e99_toy", module)
    monkeypatch.setattr(run_all, "EXPERIMENTS", ["bench_e99_toy"])
    assert run_all.main(["run_all.py"]) == 1
    printed = capsys.readouterr().out.rstrip()
    assert "!! bench_e99_toy failed: test_make_run.py:" in printed
    assert printed.endswith('assert max(result["rows"]) < limit')
