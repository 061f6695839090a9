"""Tests for the plain-text table renderer."""

from __future__ import annotations

from repro.obs.report import Table, format_table


class TestFormatTable:
    def test_float_rendering(self):
        text = format_table(
            ["value"],
            [[0.0], [0.12345], [1.5], [12345.6]],
        )
        lines = text.splitlines()
        assert lines[2].strip() == "0"
        assert lines[3].strip() == "0.1235"  # 4 decimals below 1
        assert lines[4].strip() == "1.50"  # 2 decimals in [1, 1000)
        assert lines[5].strip() == "12,346"  # thousands separator above

    def test_none_renders_as_text(self):
        text = format_table(["a", "b"], [[None, 1]])
        assert "None" in text

    def test_alignment_and_rule(self):
        text = format_table(
            ["name", "count"],
            [["long-name-here", 1], ["x", 22]],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        header, rule = lines[1], lines[2]
        # The rule under the header matches each column's width.
        assert len(rule) == len(header.rstrip()) or len(rule) >= len("name")
        widths = [len(part) for part in rule.split("  ")]
        assert widths[0] == len("long-name-here")
        assert widths[1] == len("count")
        # Cells are left-justified to the column width.
        assert lines[3].startswith("long-name-here  1")
        assert lines[4].startswith("x" + " " * (widths[0] - 1) + "  22")

    def test_row_wider_than_headers_tolerated(self):
        text = format_table(["only"], [["a", "extra"]])
        assert "a" in text


class TestTable:
    def test_incremental_build_and_str(self):
        table = Table("title", ["a", "b"])
        table.add_row(1, 2.5)
        table.add_row("x", None)
        text = str(table)
        assert text.splitlines()[0] == "title"
        assert "2.50" in text
        assert "None" in text

    def test_to_payload_round_trip(self):
        table = Table("t", ["h1", "h2"])
        table.add_row(1, 0.5)
        payload = table.to_payload()
        assert payload == {
            "title": "t",
            "headers": ["h1", "h2"],
            "rows": [[1, 0.5]],
        }

