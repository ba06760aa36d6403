#!/usr/bin/env python
"""Compare redistribution policies on an irregular workload (paper §6.1–6.2).

Runs the same drifting centre-blob plasma under the static baseline,
several periodic policies, and the dynamic Stop-At-Rise policy, then
prints the total-time comparison of the paper's Figures 16/20 and an
ASCII rendering of the per-iteration execution-time series (Figure 17).

Run:  python examples/policy_comparison.py
"""

from repro import Simulation, SimulationConfig
from repro.telemetry import ascii_series, format_table

ITERATIONS = 150
POLICIES = ["static", "periodic:50", "periodic:25", "periodic:10", "periodic:5", "dynamic"]


def run(policy: str):
    config = SimulationConfig(
        nx=64,
        ny=32,
        nparticles=8192,
        p=16,
        distribution="irregular",
        policy=policy,
        seed=3,
        vth=0.08,  # a warm blob so subdomains drift visibly
    )
    return Simulation(config).run(ITERATIONS)


def main() -> None:
    results = {}
    for policy in POLICIES:
        results[policy] = run(policy)
        print(f"ran {policy:<12s} total={results[policy].total_time:8.3f}s")

    rows = [
        [
            policy,
            r.total_time,
            r.overhead,
            r.n_redistributions,
            r.redistribution_time,
        ]
        for policy, r in results.items()
    ]
    print()
    print(format_table(
        ["policy", "total (s)", "overhead (s)", "#redis", "redis time (s)"],
        rows,
        title=f"Policy comparison, {ITERATIONS} iterations (cf. paper Figs 16 & 20)",
    ))

    best_periodic = min(
        results[p].total_time for p in POLICIES if p.startswith("periodic")
    )
    print()
    print(f"best periodic total: {best_periodic:.3f}s; "
          f"dynamic total: {results['dynamic'].total_time:.3f}s "
          "(no tuning required)")

    print()
    print(ascii_series(results["static"].iteration_times,
                       label="static: per-iteration time (s), cf. Fig 17"))
    print()
    print(ascii_series(results["dynamic"].iteration_times,
                       label="dynamic: per-iteration time (s)"))


if __name__ == "__main__":
    main()
