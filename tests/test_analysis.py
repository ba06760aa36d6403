"""Tests for analysis helpers (efficiency, report formatting)."""

import numpy as np
import pytest

from repro.analysis import efficiency, speedup
from repro.telemetry import ascii_series, format_table


class TestSpeedupEfficiency:
    def test_linear_speedup(self):
        assert speedup(100.0, 25.0) == pytest.approx(4.0)

    def test_efficiency_perfect(self):
        assert efficiency(100.0, 25.0, 4) == pytest.approx(1.0)

    def test_efficiency_sublinear(self):
        assert efficiency(100.0, 50.0, 4) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            speedup(0.0, 1.0)
        with pytest.raises(ValueError):
            efficiency(1.0, 1.0, 0)


class TestFormatTable:
    def test_alignment_and_floats(self):
        out = format_table(["name", "t"], [["a", 1.234], ["bb", 10.0]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "1.23" in out and "10.00" in out

    def test_title(self):
        out = format_table(["x"], [[1]], title="Table 9")
        assert out.splitlines()[0] == "Table 9"

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows(self):
        out = format_table(["a"], [])
        assert "a" in out


class TestAsciiSeries:
    def test_contains_extremes(self):
        out = ascii_series(np.linspace(0, 1, 50), label="ramp")
        assert "ramp" in out and "min=0" in out

    def test_empty(self):
        assert "empty" in ascii_series(np.array([]), label="x")

    def test_constant_series(self):
        out = ascii_series(np.ones(10))
        assert "*" in out

    def test_downsampling(self):
        out = ascii_series(np.sin(np.linspace(0, 10, 1000)), width=40)
        longest = max(len(line) for line in out.splitlines())
        assert longest <= 42

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            ascii_series(np.zeros((2, 2)))
