"""Correctness gate: every timed run and every job is checked.

A run passes when

* the invariants hold: particle count, total charge (equal, bit for
  bit, to the initial charge summed in particle-id order) and finite
  particle and field arrays;
* its virtual time (``vm.elapsed()``), op counts, redistribution count,
  scatter series and ``final_state_summary()`` equal the reference
  exactly.

References live in ``references.json`` next to this file, one per
workload and shipped seed, written by ``make_references.py``.  Each is
produced on another execution path than the timed one (see
``Workload.reference_workers``), so a match also checks the three-way
parity contract (in-process flat ≡ flat + workers).  For a seed without
a shipped reference, ``run.py`` runs that path in a separate process
before the measured one starts.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

REFERENCES = Path(__file__).with_name("references.json")


def definition_digest(definition: dict) -> str:
    """Identity of a workload definition; a stale reference fails the gate."""
    text = json.dumps(definition, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference(workload, seed: int, path: Path = REFERENCES) -> dict | None:
    """The shipped reference of ``workload`` at ``seed``, or ``None``."""
    if not path.exists():
        return None
    entry = json.loads(path.read_text()).get(workload.name)
    if entry is None:
        return None
    ref = entry["seeds"].get(str(seed))
    if ref is None:
        return None
    if entry["definition"] != definition_digest(workload.definition()):
        raise ValueError(
            f"references.json was written for another definition of "
            f"{workload.name}; rerun make_references.py"
        )
    return ref


def reference_for(workload, seed: int, env: dict) -> dict:
    """The shipped reference, or one derived now by ``make_references.py``.

    Deriving it in its own process keeps the reference run out of the
    measured process tree, so it never shows in ``peak_rss_mb``.
    """
    ref = load_reference(workload, seed)
    if ref is not None:
        return ref
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("make_references.py")),
         "--workload", workload.name, "--seeds", str(seed), "--print"],
        stdout=subprocess.PIPE, text=True, check=True, env=env,
    )
    return json.loads(proc.stdout)[workload.name][str(seed)]


# ----------------------------------------------------------------------
# simulation runs
# ----------------------------------------------------------------------
def sim_observables(sim, result) -> dict:
    """The exact outputs a simulation run is compared on."""
    return {
        "vm_elapsed": sim.vm.elapsed(),
        "ops": sim.vm.ops.as_dict(),
        "n_redistributions": int(result.n_redistributions),
        "scatter_max_bytes": [int(r.scatter_max_bytes) for r in result.records],
        "scatter_max_msgs": [int(r.scatter_max_msgs) for r in result.records],
        "final_state": sim.final_state_summary(),
    }


def initial_charge(sim) -> float:
    """Total charge of the sampled particles, summed in particle-id order."""
    parts = sim.initial_particles
    return float(np.sum(parts.q[np.argsort(parts.ids, kind="stable")]))


def check_invariants(sim, nparticles: int, charge: float) -> list[str]:
    """Particle count, charge conservation and finiteness of the state."""
    failures = []
    count = sum(int(p.n) for p in sim.pic.particles)
    if count != nparticles:
        failures.append(f"particle count {count} != {nparticles}")
    summary_charge = sim.final_state_summary()["total_charge"]
    if summary_charge != charge:
        failures.append(f"total charge {summary_charge!r} != initial {charge!r}")
    for r, parts in enumerate(sim.pic.particles):
        for name in ("x", "y", "ux", "uy", "uz", "q"):
            if not np.all(np.isfinite(getattr(parts, name))):
                failures.append(f"rank {r}: non-finite particle {name}")
    fields = sim.pic.fields
    for name in ("ex", "ey", "ez", "bx", "by", "bz", "rho"):
        if not np.all(np.isfinite(getattr(fields, name))):
            failures.append(f"non-finite field {name}")
    return failures


def compare(observed: dict, reference: dict, label: str = "") -> list[str]:
    """Exact comparison of every key in ``reference``."""
    return [
        f"{label}{key}: {observed.get(key)!r} != reference {value!r}"
        for key, value in reference.items()
        if observed.get(key) != value
    ]


def check_sim(sim, result, reference: dict, nparticles: int, charge: float) -> list[str]:
    """All checks of one simulation run; an empty list means it passed."""
    return check_invariants(sim, nparticles, charge) + compare(
        sim_observables(sim, result), reference
    )


# ----------------------------------------------------------------------
# job-service batches
# ----------------------------------------------------------------------
def job_observables(payload: dict) -> dict:
    """The exact outputs a job result document is compared on."""
    return {
        "vm_elapsed": payload["totals"]["total_time"],
        "n_redistributions": payload["totals"]["n_redistributions"],
        "scatter_max_bytes": payload["series"]["scatter_max_bytes"],
        "scatter_max_msgs": payload["series"]["scatter_max_msgs"],
        "final_state": payload["final_state"],
    }


def check_job(name: str, payload: dict | None, reference: dict, nparticles: int) -> list[str]:
    """Invariants and reference match of one completed job's payload."""
    if payload is None:
        return [f"{name}: no result payload"]
    state = payload["final_state"]
    failures = []
    if state["n_particles"] != nparticles:
        failures.append(f"{name}: particle count {state['n_particles']} != {nparticles}")
    if state["total_charge"] != reference["final_state"]["total_charge"]:
        failures.append(f"{name}: total charge {state['total_charge']!r} changed")
    if not all(math.isfinite(v) for v in state.values()):
        failures.append(f"{name}: non-finite final state")
    return failures + compare(job_observables(payload), reference, f"{name}: ")
