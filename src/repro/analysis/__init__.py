"""Analysis: speedup and parallel-efficiency figures (Table 3)."""

from repro.analysis.efficiency import efficiency, speedup

__all__ = ["speedup", "efficiency"]
