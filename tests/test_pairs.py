"""The statistics of `benchmarks/pairs.py` on canned runs.

No benchmark runs here: the runs are hand-made records in the shape
`benchmarks/e2e/run.py --out` writes, and every figure the summary
states is worked out by hand below.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", SCRIPT)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

MANIFEST = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "msgs_per_s", "better": "higher"},
        {"name": "peak_rss_mb", "better": "lower"},
        {"name": "delivered_share", "better": "higher"},
        {"name": "sim_delay_ms_p50", "better": "lower"},
    ],
}


def record(msgs, rss, digest="d1", sim=7.0, delivered=1.0, failed=0):
    values = {"msgs_per_s": msgs, "peak_rss_mb": rss,
              "delivered_share": delivered, "sim_delay_ms_p50": sim}
    return {"sim_digest": digest, "failed": failed,
            "notes": {"host_speed": 1.25},
            "metrics": {k: {"value": v} for k, v in values.items()}}


def canned(parent_rss, change_rss, **change):
    """One run per side per pair, in alternating order."""
    runs = []
    for index, (p_rss, c_rss) in enumerate(zip(parent_rss, change_rss), 1):
        made = {"parent": record(100.0, p_rss),
                "change": record(100.0 + index, c_rss, **change)}
        for side in pairs.order(index):
            runs.append({"pair": index, "seed": index, "side": side,
                         "workload": "w", "exit": 0, "record": made[side]})
    return runs


class TestCell:
    def test_order_alternates_parent_first_on_odd_pairs(self):
        assert [pairs.order(i) for i in (1, 2, 3)] == [
            ("parent", "change"), ("change", "parent"), ("parent", "change")]

    def test_quartiles_are_compare_pys(self):
        # statistics.quantiles, 'exclusive': positions (n + 1) p.
        assert pairs.quartiles([1, 2, 3, 4, 5, 6, 7, 8]) == (2.25, 6.75)
        assert pairs.quartiles([5.0]) == (5.0, 5.0)

    def test_wins_ratio_quartiles_and_apart(self):
        parent = [10.0, 12.0, 11.0, 13.0, 14.0]
        change = [9.0, 12.0, 9.9, 11.7, 12.6]
        stats = pairs.cell(parent, change, "lower")
        # Pair 2 ties: not a win.
        assert stats["wins"] == 4 and stats["pairs"] == 5
        assert stats["ratios"] == pytest.approx([0.9, 1.0, 0.9, 0.9, 0.9])
        assert stats["ratio"] == pytest.approx(0.9)
        assert stats["parent"] == pytest.approx((10.5, 12.0, 13.5))
        assert stats["change"] == pytest.approx((9.45, 11.7, 12.3))
        # |11.7 - 12.0| = 0.3 is inside the parent's IQR of 3.0.
        assert not stats["apart"]
        assert not pairs.claim_holds(stats, "lower")

    @pytest.mark.parametrize("better, won", [("lower", 10), ("higher", 0)])
    def test_claim_needs_nine_in_ten_and_the_better_side(self, better, won):
        parent = [34.6 + 0.03 * i for i in range(10)]
        change = [31.2 + 0.02 * i for i in range(10)]
        stats = pairs.cell(parent, change, better)
        assert stats["wins"] == won and stats["apart"]
        assert pairs.claim_holds(stats, better) is (better == "lower")
        # One pair more lost (8/10) and the claim fails however far apart.
        change[0] = change[1] = 40.0
        stats = pairs.cell(parent, change, "lower")
        assert stats["wins"] == 8 and not pairs.claim_holds(stats, "lower")


class TestSummary:
    def test_summary_states_identity_wins_and_the_claim(self):
        runs = canned([34.8, 34.7, 34.9, 34.8], [31.2, 31.1, 31.3, 31.2])
        lines = pairs.summarize(runs, MANIFEST, ["w:peak_rss_mb"])
        assert lines[0].startswith(
            "pairs 4 (workload x pair); sim_digest and every sim_ metric "
            "identical in 4/4; delivered_share 1.0 in 8/8 runs; failed "
            "operations 0; bad runs: none")
        (claim,) = [line for line in lines if line.startswith("claim")]
        assert "change better in 4/4 pairs" in claim
        assert "medians 34.8 -> 31.2" in claim and claim.endswith("HOLDS")
        (row,) = [line for line in lines if line.startswith("w ")
                  and "msgs_per_s" in line]
        assert row.split()[2:4] == ["4/4", "1.0250"]

    def test_a_moved_sim_metric_or_digest_is_not_identical(self):
        runs = canned([1.0] * 3, [1.0] * 3)
        runs[1]["record"]["metrics"]["sim_delay_ms_p50"]["value"] = 7.5
        runs[4]["record"]["sim_digest"] = "d2"
        line = pairs.summarize(runs, MANIFEST)[0]
        assert "identical in 1/3" in line

    def test_failed_runs_and_short_deliveries_are_named(self):
        runs = canned([1.0] * 2, [1.0] * 2, delivered=0.5, failed=3)
        runs[3]["exit"], runs[3]["record"] = 1, None
        line = pairs.summarize(runs, MANIFEST)[0]
        assert "pairs 1 " in line
        # Made: both sides of pair 1, pair 2's change (short twice).
        assert "delivered_share 1.0 in 1/3 runs" in line
        assert "failed operations 6" in line
        assert "bad runs: ['pair2 parent w exit=1']" in line

    def test_every_run_is_listed_with_its_host_speed(self):
        runs = canned([34.8, 34.7], [31.2, 31.1])
        lines = pairs.run_lines(runs, MANIFEST)
        assert len(lines) == 2 + 4
        assert [line.split()[:3] for line in lines[2:]] == [
            ["pair1", "1", "parent"], ["pair1", "1", "change"],
            ["pair2", "2", "change"], ["pair2", "2", "parent"]]
        assert all(line.split()[5] == "1.25" for line in lines[2:])

    def test_read_runs_finds_each_result_in_its_pair_directory(self, tmp_path):
        runs = canned([34.8], [31.2])
        with open(tmp_path / "runs.jsonl", "w") as log:
            for run in runs:
                target = tmp_path / run["side"] / pairs.pair_dir(1, 1)
                target.mkdir(parents=True)
                (target / "w.trace0.json").write_text(json.dumps(run["record"]))
                log.write(json.dumps({k: run[k] for k in (
                    "pair", "seed", "side", "workload", "exit")}) + "\n")
        assert pairs.read_runs(str(tmp_path)) == runs

    def test_a_run_made_again_counts_by_its_last_line(self, tmp_path):
        # Pair 1's change failed and wrote nothing; a resumed sweep made it
        # again, appending a second line, and this time it succeeded.
        runs = canned([34.8], [31.2])
        lines = [{k: run[k] for k in ("pair", "seed", "side", "workload", "exit")}
                 for run in runs]
        failed = dict(lines[1], exit=1)
        with open(tmp_path / "runs.jsonl", "w") as log:
            for line in (lines[0], failed, lines[1]):
                log.write(json.dumps(line) + "\n")
        for run in runs:
            target = tmp_path / run["side"] / pairs.pair_dir(1, 1)
            target.mkdir(parents=True)
            (target / "w.trace0.json").write_text(json.dumps(run["record"]))
        read = pairs.read_runs(str(tmp_path))
        assert read == runs
        line = pairs.summarize(read, MANIFEST)[0]
        assert "delivered_share 1.0 in 2/2 runs" in line
        assert line.endswith("bad runs: none")
        assert len(pairs.run_lines(read, MANIFEST)) == 2 + 2
