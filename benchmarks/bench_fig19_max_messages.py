"""Paper Figure 19 — max number of messages in the scatter phase.

Same configuration as Figure 17; the plotted quantity is the maximum
message count any processor sends or receives per iteration (driven by
how many mesh subdomains each drifting particle subdomain overlaps).
"""

from __future__ import annotations

from benchmarks._shared import write_report
from benchmarks.bench_fig17_iteration_time import fig17_series
from repro.telemetry import ascii_series


def bench_fig19_max_messages(benchmark):
    results = benchmark.pedantic(
        lambda: {p: fig17_series(p) for p in ("static", "periodic:25")},
        rounds=1,
        iterations=1,
    )
    parts = []
    for policy, result in results.items():
        parts.append(
            ascii_series(
                result.scatter_max_msgs.astype(float),
                label=f"Fig 19 [{policy}]: max scatter messages sent/recv by any proc",
            )
        )
    write_report("fig19_max_messages", "\n\n".join(parts))

    static = results["static"].scatter_max_msgs
    periodic = results["periodic:25"].scatter_max_msgs
    assert static[-10:].mean() >= static[:10].mean(), "static message count must not shrink"
    assert periodic.max() <= static.max(), (
        "redistribution must cap the worst-case partner count"
    )
