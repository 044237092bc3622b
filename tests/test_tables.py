"""Tests of the one aligned-text table renderer, :mod:`repro.tables`."""

from __future__ import annotations

from repro.tables import format_table


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            ["name", "value"], [["alpha", 1], ["b", 23456]], title="demo"
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[2] and "value" in lines[2]
        assert "alpha" in text and "23456" in text
        # All data lines have the same width structure (aligned columns).
        assert lines[3].startswith("-")

    def test_float_and_bool_rendering(self):
        text = format_table(["a", "b", "c"], [[1.23456, True, 0.000001]])
        assert "1.235" in text
        assert "yes" in text
        assert "1e-06" in text

    def test_rows_wider_than_headers(self):
        text = format_table(["x"], [["only", "extra"]])
        assert "extra" in text

