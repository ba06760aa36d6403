"""Per-iteration phase profile of a run.

:class:`PhaseTrace` is a view over per-iteration rows of per-phase
virtual-time increments — ``IterationRecord.phase_time``, or the
``phase_time`` field of a metrics stream's iteration records.  It gives
each phase's (scatter / field / gather / push / redistribution) series
over the run, its totals, and an ASCII "stacked bar" rendering for
terminals.  ``SimulationResult.trace`` builds one from the run's records.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.util import require

__all__ = ["PhaseTrace"]


class PhaseTrace:
    """Per-phase time series over rows of ``{phase: seconds}`` increments.

    Row ``i`` is iteration ``i``'s increment of every phase's
    max-over-ranks time; a phase missing from a row contributed nothing
    to that iteration.
    """

    def __init__(self, rows: Iterable[dict[str, float]] = ()) -> None:
        self.rows: list[dict[str, float]] = [
            {str(k): float(v) for k, v in row.items()} for row in rows
        ]

    # ------------------------------------------------------------------
    @property
    def phases(self) -> list[str]:
        """All phase labels seen, sorted."""
        seen: set[str] = set()
        for row in self.rows:
            seen.update(k for k, v in row.items() if v > 0)
        return sorted(seen)

    def series(self, phase: str) -> np.ndarray:
        """Per-iteration time series of one phase (zeros where absent)."""
        return np.array([row.get(phase, 0.0) for row in self.rows])

    def totals(self) -> dict[str, float]:
        """Total time per phase over the trace."""
        return {phase: float(self.series(phase).sum()) for phase in self.phases}

    def render(self, *, width: int = 60) -> str:
        """ASCII profile: one stacked bar of phase shares per trace row
        group (rows are bucketed to at most ``width`` columns)."""
        require(bool(self.rows), "no rows recorded")
        phases = self.phases
        glyphs = "SFGPRMX"  # scatter field gather push redistribution migration other
        glyph_of = {}
        for phase in phases:
            for key, glyph in (
                ("scatter", "S"),
                ("field", "F"),
                ("gather", "G"),
                ("push", "P"),
                ("redistribution", "R"),
                ("migration", "M"),
            ):
                if phase == key:
                    glyph_of[phase] = glyph
                    break
            else:
                glyph_of[phase] = "X"
        lines = ["phase profile (per-iteration share):"]
        legend = ", ".join(f"{glyph_of[p]}={p}" for p in phases)
        lines.append(legend)
        nrows = len(self.rows)
        buckets = np.linspace(0, nrows, min(width, nrows) + 1).astype(int)
        bar_height = 10
        grid_cols = []
        for a, b in zip(buckets[:-1], buckets[1:]):
            sums = {p: float(self.series(p)[a:b].sum()) for p in phases}
            total = sum(sums.values())
            column = []
            if total > 0:
                # Largest-remainder apportionment: glyph counts always sum
                # to exactly bar_height, so no phase's share is silently
                # truncated by independent rounding.
                shares = np.array([bar_height * sums[p] / total for p in phases])
                counts = np.floor(shares).astype(int)
                shortfall = bar_height - int(counts.sum())
                if shortfall > 0:
                    order = np.argsort(-(shares - counts), kind="stable")
                    counts[order[:shortfall]] += 1
                for p, count in zip(phases, counts):
                    column.extend(glyph_of[p] * int(count))
            column = (column + [" "] * bar_height)[:bar_height]
            grid_cols.append(column)
        for level in range(bar_height - 1, -1, -1):
            lines.append("|" + "".join(col[level] for col in grid_cols))
        lines.append("+" + "-" * len(grid_cols))
        return "\n".join(lines)
