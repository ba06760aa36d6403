"""The policy bench matrix (``repro bench policy``).

Runs every registered zoo policy over the three workload classes the
paper's figures distinguish — uniform, clustered (the gaussian blob of
Figure 15), and drifting (two-stream) — at p=32, with telemetry enabled
so every redistribution decision is recorded, schema-validated, and
replayed offline.  The output document (``BENCH_policies.json``, schema
``repro-policy-bench/2``) carries one cell per (policy, workload) plus a
crowned winner per workload class, and feeds ``repro report``'s
decision-comparison view.

The matrix is a *behavioural* benchmark: its axis is virtual machine
time (which is deterministic), so the winners table is stable across
hosts and reruns — unlike the wall-clock suites in
:mod:`repro.bench.suites`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from repro.core.policies import (
    available_policies,
    make_policy,
    policy_spec,
    replay_decision,
)
from repro.pic.simulation import Simulation, SimulationConfig, config_from_dict, config_to_dict
from repro.telemetry.schema import validate_metrics

__all__ = [
    "POLICY_SCHEMA",
    "ZOO_SPECS",
    "WORKLOADS",
    "run_policy_cell",
    "run_policy_matrix",
    "render_matrix",
    "save_matrix",
]

POLICY_SCHEMA = "repro-policy-bench/2"

#: The default competitor field: every registered policy, with tuned
#: spec arguments where the defaults target longer runs than the matrix.
ZOO_SPECS = (
    "static",
    "periodic:25",
    "dynamic",
    "sar-ewma",
    "costmodel:horizon=50",
    "imbalance:threshold=1.4,hysteresis=0.2",
    "planner",
)

#: Workload class -> particle distribution sampler name.
WORKLOADS = {
    "uniform": "uniform",
    "clustered": "irregular",
    "drifting": "two_stream",
}

_P = 32
_NX, _NY = 64, 32
_SEED = 3


def run_policy_cell(
    policy: str,
    workload: str,
    *,
    p: int = _P,
    nparticles: int = 8192,
    iterations: int = 40,
    seed: int = _SEED,
) -> dict:
    """Run one (policy, workload) cell and audit its decisions.

    The cell runs with telemetry on, validates the metrics stream
    against ``repro-metrics/1`` (which now covers every decision
    record), replays every decision offline, and checks the config
    round-trips through its serialized form.  Returns the cell summary
    dict; raises ``RuntimeError`` on any replay mismatch — a policy
    whose logged decisions cannot be reproduced from the records alone
    has broken the §5.6 contract and must not be crowned.
    """
    distribution = WORKLOADS[workload]
    cfg = SimulationConfig(
        nx=_NX,
        ny=_NY,
        nparticles=nparticles,
        p=p,
        distribution=distribution,
        policy=policy,
        seed=seed,
    )
    # config round-trip: the serialized form must rebuild to the same
    # canonical spec (default-valued params canonicalize away)
    rebuilt = config_from_dict(config_to_dict(cfg))
    if policy_spec(rebuilt.policy) != policy_spec(cfg.policy):
        raise RuntimeError(
            f"config round-trip changed the policy spec: "
            f"{cfg.policy!r} -> {rebuilt.policy!r}"
        )
    sim = Simulation(cfg)
    telemetry = sim.enable_telemetry()
    result = sim.run(iterations)
    parsed = validate_metrics(telemetry.metrics_lines())
    decisions = [d for rec in parsed.iterations for d in rec["sar_decisions"]]
    mismatches = [d for d in decisions if replay_decision(d) != d["fired"]]
    if mismatches:
        raise RuntimeError(
            f"cell ({policy}, {workload}): "
            f"{len(mismatches)}/{len(decisions)} decision record(s) do not "
            f"replay to their logged verdict; first: {mismatches[0]}"
        )
    imbalances = [rec["imbalance"] for rec in parsed.iterations]
    return {
        "policy": policy,
        "workload": workload,
        "total_time": result.total_time,
        "computation_time": result.computation_time,
        "overhead": result.overhead,
        "n_redistributions": result.n_redistributions,
        "redistribution_time": result.redistribution_time,
        "peak_imbalance": max(imbalances) if imbalances else 1.0,
        "final_imbalance": imbalances[-1] if imbalances else 1.0,
        "decisions": len(decisions),
        "fires": sum(1 for d in decisions if d["fired"]),
    }


def run_policy_matrix(
    policies: tuple[str, ...] | list[str] = ZOO_SPECS,
    workloads: tuple[str, ...] | list[str] | None = None,
    *,
    smoke: bool = False,
    p: int = _P,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Run the full policy × workload matrix.

    ``smoke`` shrinks the particle count and iteration budget to CI
    scale without changing the matrix shape.  Per workload class the
    cells crown a ``winner`` (minimum deterministic virtual
    ``total_time``).
    """
    workloads = tuple(workloads) if workloads is not None else tuple(WORKLOADS)
    for w in workloads:
        if w not in WORKLOADS:
            known = ", ".join(sorted(WORKLOADS))
            raise ValueError(f"unknown workload class {w!r}; known: {known}")
    for spec in policies:
        make_policy(spec)  # fail fast on typos before running anything
    nparticles = 4096 if smoke else 8192
    iterations = 10 if smoke else 40
    cells: list[dict] = []
    for workload in workloads:
        for policy in policies:
            if progress is not None:
                progress(f"{workload:<10s} {policy}")
            cells.append(
                run_policy_cell(
                    policy, workload, p=p, nparticles=nparticles, iterations=iterations
                )
            )
    winners = {}
    for workload in workloads:
        ranked = sorted(
            (c for c in cells if c["workload"] == workload),
            key=lambda c: c["total_time"],
        )
        if ranked:
            best = ranked[0]
            winners[workload] = {
                "policy": best["policy"],
                "total_time": best["total_time"],
                "margin": (
                    (ranked[1]["total_time"] - best["total_time"])
                    / best["total_time"]
                    if len(ranked) > 1 and best["total_time"] > 0
                    else 0.0
                ),
            }
    return {
        "schema": POLICY_SCHEMA,
        "p": p,
        "nparticles": nparticles,
        "iterations": iterations,
        "smoke": smoke,
        "available_policies": available_policies(),
        "cells": cells,
        "winners": winners,
    }


def render_matrix(doc: dict) -> str:
    """Terminal table of a :func:`run_policy_matrix` document."""
    out = [
        f"=== policy matrix (p={doc['p']}, {doc['iterations']} iterations, "
        f"{doc['nparticles']} particles{', smoke' if doc.get('smoke') else ''}) ==="
    ]
    header = (
        f"{'workload':<11s} {'policy':<40s} {'total t':>10s} {'overhead':>10s} "
        f"{'redists':>8s} {'fires':>6s} {'peak imb':>9s}"
    )
    out.append(header)
    out.append("-" * len(header))
    for cell in doc["cells"]:
        mark = (
            " *"
            if doc["winners"].get(cell["workload"], {}).get("policy") == cell["policy"]
            else ""
        )
        out.append(
            f"{cell['workload']:<11s} {cell['policy']:<40.40s} "
            f"{cell['total_time']:>10.4f} {cell['overhead']:>10.4f} "
            f"{cell['n_redistributions']:>8d} {cell['fires']:>6d} "
            f"{cell['peak_imbalance']:>9.3f}{mark}"
        )
    out.append("")
    for workload, win in doc["winners"].items():
        out.append(
            f"winner[{workload}]: {win['policy']}  "
            f"(t={win['total_time']:.4f}s, {win['margin'] * 100:.1f}% ahead)"
        )
    return "\n".join(out)


def save_matrix(doc: dict, path: str | Path) -> Path:
    """Write the matrix document to ``path`` as JSON; returns the path."""
    path = Path(path)
    from repro.util.atomic_io import atomic_write_json

    atomic_write_json(path, doc, sort_keys=True)
    return path
