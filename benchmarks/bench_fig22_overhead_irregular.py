"""Paper Figure 22 — overhead, irregular distribution (cf. Figure 21).

Shape asserted: Hilbert overhead <= snake in the (large) majority of
irregular cases — the paper notes one exception when particles per
processor get very small — and the redistribution share of overhead
stays a minority (paper: < 20% at 128 processors).
"""

from __future__ import annotations

from benchmarks._shared import write_report
from benchmarks.bench_fig21_overhead_uniform import overhead_rows
from repro.telemetry import format_table


def bench_fig22_overhead_irregular(benchmark):
    rows = benchmark.pedantic(lambda: overhead_rows("irregular"), rounds=1, iterations=1)
    report = format_table(
        ["mesh", "particles", "p", "hilbert overhead (s)", "snake overhead (s)", "hilbert redis (s)"],
        rows,
        title="Figure 22: overhead of 200 (scaled) iterations, irregular distribution",
    )
    write_report("fig22_overhead_irregular", report)

    wins = sum(1 for r in rows if r[3] <= r[4] * 1.05)
    assert wins >= 0.7 * len(rows), (
        f"Hilbert overhead should be <= snake in most irregular cases ({wins}/{len(rows)})"
    )
    for mesh, n, p, hil_ovh, _, redis in rows:
        assert redis <= 0.5 * max(hil_ovh, 1e-12), (
            f"{mesh} n={n} p={p}: redistribution should be a minority of overhead"
        )
