"""Paper Table 3 — efficiency of the Hilbert indexing scheme.

Efficiency = T_1 / (p * T_p), with T_1 the one-processor execution time
of the same problem.  On the virtual machine T_1 is the pure compute
time of all phases (no communication), which the cost model provides as
``computation_time`` of a p-processor run times p (compute is strictly
balanced under the Lagrangian method).

Shapes asserted: efficiencies are decent (> 0.5 everywhere at CM-5-like
compute/communication ratios) and roughly constant when the number of
particles per processor is held fixed — the paper's scalability
observation #3.
"""

from __future__ import annotations

from benchmarks._shared import table2_case_names, table2_run, write_report
from repro.analysis import efficiency
from repro.telemetry import format_table
from repro.workloads import TABLE2_CASES


def run_table3():
    rows = []
    for name in table2_case_names():
        case = {c.name: c for c in TABLE2_CASES}[name]
        result = table2_run(name, "hilbert")
        t1 = result.computation_time * case.p  # balanced compute, no comm
        eff = efficiency(t1, result.total_time, case.p)
        rows.append(
            [case.distribution, f"{case.nx}x{case.ny}", case.nparticles, case.p, eff]
        )
    return rows


def bench_table3_efficiency(benchmark):
    rows = benchmark.pedantic(run_table3, rounds=1, iterations=1)
    report = format_table(
        ["distribution", "mesh", "particles", "p", "efficiency"],
        rows,
        title="Table 3: efficiency of the Hilbert indexing scheme",
    )
    write_report("table3_efficiency", report)

    assert all(r[4] > 0.5 for r in rows), "efficiencies should stay above 0.5"
    assert all(r[4] <= 1.0 + 1e-9 for r in rows), "efficiency cannot exceed 1"

    # constant granularity (particles per processor) -> similar efficiency
    by_granularity: dict[tuple, list[float]] = {}
    for dist, mesh, n, p, eff in rows:
        by_granularity.setdefault((dist, n // p), []).append(eff)
    for key, effs in by_granularity.items():
        if len(effs) > 1:
            assert max(effs) - min(effs) < 0.25, (
                f"granularity {key}: efficiency spread {effs} too wide"
            )
