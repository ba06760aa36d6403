"""Paper Figure 18 — max data sent/received in the scatter phase.

Same configuration as Figure 17; the plotted quantity is the maximum
byte volume any processor sends or receives per iteration.
"""

from __future__ import annotations

from benchmarks._shared import write_report
from benchmarks.bench_fig17_iteration_time import fig17_series
from repro.telemetry import ascii_series


def bench_fig18_max_data(benchmark):
    results = benchmark.pedantic(
        lambda: {p: fig17_series(p) for p in ("static", "periodic:25")},
        rounds=1,
        iterations=1,
    )
    parts = []
    for policy, result in results.items():
        parts.append(
            ascii_series(
                result.scatter_max_bytes.astype(float),
                label=f"Fig 18 [{policy}]: max scatter bytes sent/recv by any proc",
            )
        )
    write_report("fig18_max_data", "\n\n".join(parts))

    static = results["static"].scatter_max_bytes
    periodic = results["periodic:25"].scatter_max_bytes
    assert static[-10:].mean() > static[:10].mean(), "static volume must grow"
    assert periodic[-10:].mean() < static[-10:].mean(), (
        "redistribution must reduce late scatter volume"
    )
