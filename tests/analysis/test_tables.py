"""Tests for table formatting and CSV emission."""

import csv

from repro.analysis.tables import (
    format_markdown,
    format_table,
    write_csv,
)

HEADERS = ("name", "value")
ROWS = [("alpha", 1.25), ("b", 10.5)]


class TestFormatTable:
    def test_alignment_and_floats(self):
        text = format_table(HEADERS, ROWS, floatfmt=".2f")
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.25" in text and "10.50" in text
        # all lines equal width padding
        assert len({len(l) for l in lines[:2]}) == 1

    def test_non_float_cells(self):
        text = format_table(("a",), [(True,), ("xyz",), (7,)])
        assert "True" in text and "xyz" in text and "7" in text


class TestMarkdown:
    def test_structure(self):
        text = format_markdown(HEADERS, ROWS)
        lines = text.splitlines()
        assert lines[0] == "| name | value |"
        assert lines[1] == "|---|---|"
        assert len(lines) == 4


class TestCsv:
    def test_write_and_read_back(self, tmp_path):
        path = tmp_path / "sub" / "out.csv"
        write_csv(path, HEADERS, ROWS)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(HEADERS)
        assert rows[1] == ["alpha", "1.25"]
