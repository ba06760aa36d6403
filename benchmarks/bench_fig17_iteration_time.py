"""Paper Figure 17 — per-iteration execution time series.

Irregular distribution, 128x64 mesh, 32768 particles, 32 processors.
The static run's iteration time climbs as particle subdomains drift;
periodic redistribution repeatedly resets it.
"""

from __future__ import annotations

import functools

import numpy as np

from benchmarks._shared import run_simulation, write_report
from repro.telemetry import ascii_series
from repro.workloads import FIG17_CASE, scaled_iterations


@functools.lru_cache(maxsize=None)
def fig17_series(policy: str):
    """Shared runs for Figures 17-19 (same configuration, same series)."""
    iters = scaled_iterations(FIG17_CASE.iterations, minimum=100)
    return run_simulation(policy=policy, iterations=iters, **FIG17_CASE.config_kwargs())


def bench_fig17_iteration_time(benchmark):
    results = benchmark.pedantic(
        lambda: {p: fig17_series(p) for p in ("static", "periodic:25")},
        rounds=1,
        iterations=1,
    )
    parts = []
    for policy, result in results.items():
        parts.append(
            ascii_series(
                result.iteration_times,
                label=f"Fig 17 [{policy}]: execution time per iteration (s)",
            )
        )
    write_report("fig17_iteration_time", "\n\n".join(parts))

    static = results["static"].iteration_times
    periodic = results["periodic:25"].iteration_times
    assert static[-10:].mean() > 1.1 * static[:10].mean(), "static series must grow"
    assert periodic[-10:].mean() < static[-10:].mean(), (
        "periodic redistribution must keep late iterations cheaper"
    )
