"""Tests for the phase-trace view over per-iteration phase rows."""

import numpy as np
import pytest

from repro.machine import MachineModel, VirtualMachine
from repro.machine.trace import PhaseTrace


def _charge(vm, phases, rows):
    """Charge one iteration of ``phases`` on ``vm``; append its increment row."""
    before = vm.phase_breakdown()
    for phase, category, ops in phases:
        with vm.phase(phase):
            vm.charge_ops(category, ops)
    after = vm.phase_breakdown()
    rows.append({k: v - before.get(k, 0.0) for k, v in after.items()})


@pytest.fixture
def traced_vm():
    vm = VirtualMachine(2, MachineModel.cm5())
    rows: list[dict] = []
    for _ in range(5):
        _charge(vm, [("scatter", "scatter", 100), ("push", "push", 50)], rows)
    return vm, PhaseTrace(rows)


class TestSnapshots:
    def test_row_count(self, traced_vm):
        _, trace = traced_vm
        assert len(trace.rows) == 5

    def test_increments_not_cumulative(self, traced_vm):
        _, trace = traced_vm
        scatter = trace.series("scatter")
        assert np.allclose(scatter, scatter[0])
        assert scatter[0] > 0

    def test_totals_match_vm(self, traced_vm):
        vm, trace = traced_vm
        totals = trace.totals()
        breakdown = vm.phase_breakdown()
        assert totals["scatter"] == pytest.approx(breakdown["scatter"])
        assert totals["push"] == pytest.approx(breakdown["push"])

    def test_phases_sorted(self, traced_vm):
        _, trace = traced_vm
        assert trace.phases == ["push", "scatter"]

    def test_unseen_phase_series_zero(self, traced_vm):
        _, trace = traced_vm
        assert trace.series("gather").sum() == 0


class TestRender:
    def test_render_contains_glyphs(self, traced_vm):
        _, trace = traced_vm
        out = trace.render(width=10)
        assert "S=scatter" in out and "P=push" in out
        assert "S" in out.splitlines()[-2] or "P" in out.splitlines()[-2]

    def test_render_empty_raises(self):
        with pytest.raises(ValueError):
            PhaseTrace([]).render()

    def test_unknown_phase_gets_x_glyph(self):
        vm = VirtualMachine(2)
        rows: list[dict] = []
        _charge(vm, [("mystery", "push", 10)], rows)
        out = PhaseTrace(rows).render()
        assert "X=mystery" in out

    def test_migration_glyph(self):
        vm = VirtualMachine(2)
        rows: list[dict] = []
        _charge(vm, [("migration", "index", 10)], rows)
        assert "M=migration" in PhaseTrace(rows).render()

    def test_columns_sum_to_bar_height(self):
        """Largest-remainder apportionment: every non-empty column stacks
        exactly bar_height glyphs — no blank rows from rounding loss."""
        vm = VirtualMachine(2)
        rows: list[dict] = []
        # Three phases with shares 1/3 each: naive per-phase rounding gives
        # 3+3+3 = 9 of 10 glyphs, leaving a hole at the top of the bar.
        for _ in range(4):
            _charge(vm, [(phase, "push", 10) for phase in ("scatter", "push", "gather")], rows)
        out = PhaseTrace(rows).render(width=4)
        bar_lines = [line[1:] for line in out.splitlines()[2:-1]]  # strip axis
        assert len(bar_lines) == 10
        for col in range(len(bar_lines[0])):
            glyphs = [line[col] for line in bar_lines]
            assert " " not in glyphs, f"column {col} lost glyphs to rounding"

    def test_render_with_simulation(self):
        """Render a real mini-run's trace end to end."""
        from repro.pic import Simulation, SimulationConfig

        sim = Simulation(SimulationConfig(nx=16, ny=16, nparticles=512, p=4, seed=0))
        result = sim.run(5)
        trace = result.trace
        assert trace.rows == [r.phase_time for r in result.records]
        out = trace.render()
        for phase in ("scatter", "field", "gather", "push"):
            assert phase in out
