"""The benchmark's workloads, each with the reason it was chosen.

All three use the paper's Figure 17 / Table 3 inputs: a 128×64 mesh
with 32768 ``irregular`` (Gaussian-blob) particles, Lagrangian movement
and Hilbert indexing.  The workload seed is the only input the benchmark
varies; it seeds the particle sampler.  No config names ``engine``: the
default flat engine runs, and a later removal of that field does not
break the benchmark.

Host timings measured on a 2-core host while these workloads were
chosen, which varied by about 20% from run to run:

* ``fig17_p128``: 125–160 ms per iteration;
* ``fig16_p32_periodic5_workers2``: 85–98 ms per iteration (57 ms on a
  quiet host);
* ``submit_policy_sweep``: 15–18 s for a cold batch of 30-iteration
  jobs; about 6 s for the 10-iteration jobs used here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PAPER_MESH = {
    "nx": 128,
    "ny": 64,
    "nparticles": 32768,
    "distribution": "irregular",
    "scheme": "hilbert",
    "movement": "lagrangian",
    "vth": 0.08,
}


@dataclass(frozen=True)
class SimWorkload:
    """Fresh ``Simulation`` runs of a fixed length, repeated for the run time.

    One operation builds the simulation (``setup_s``), runs
    ``iterations`` iterations in a single timed ``Simulation.run``
    (``iter_ms``) and checks the result against the reference.
    """

    name: str
    why: str
    config: dict
    workers: int
    iterations: int
    #: worker count of the path that produces the reference
    reference_workers: int

    def definition(self) -> dict:
        """What the reference depends on (not the worker counts)."""
        return {"config": self.config, "iterations": self.iterations}

    def sim_config(self, seed: int) -> dict:
        return dict(self.config, seed=seed)


@dataclass(frozen=True)
class SweepWorkload:
    """One job-service batch, cold and then resubmitted to the warm cache."""

    name: str
    why: str
    config: dict
    policies: tuple[str, ...]
    iterations: int
    job_workers: int
    #: worker chaos on attempt 0 of one job: SIGKILL before an iteration,
    #: so the retry resumes from the scratch checkpoint
    crash: dict = field(default_factory=dict)

    def definition(self) -> dict:
        return {"config": self.config, "policies": list(self.policies),
                "iterations": self.iterations}

    def job_dicts(self, seed: int) -> list[dict]:
        """The batch as plain job dicts (``JobSpec.from_dict`` input)."""
        jobs = []
        for policy in self.policies:
            job = {"config": dict(self.config, seed=seed, policy=policy),
                   "iterations": self.iterations, "name": policy}
            if policy == self.crash.get("policy"):
                job["chaos"] = {"kind": "crash", "at_iteration": self.crash["at_iteration"],
                                "attempts": [0]}
            jobs.append(job)
        return jobs


FIG17_P128 = SimWorkload(
    name="fig17_p128",
    # pic.scatter is ~72% of host time here, through its O(p*G) dense
    # rank-row reduction (G = mesh nodes).  Redistribution fires rarely
    # (11 times in 100 iterations; once in the 24 iterations run here).
    # parallel_exec, service and checkpoint do no work.  The scatter
    # rewrite and the looped-engine demotion act on this workload.
    why="Figure 17 at p=128, in-process: pic.scatter's O(p*G) rank-row "
        "reduction dominates host time; redistribution is rare",
    config=dict(PAPER_MESH, p=128, policy="dynamic"),
    workers=0,
    iterations=24,
    reference_workers=2,
)

FIG16_P32_PERIODIC5_WORKERS2 = SimWorkload(
    name="fig16_p32_periodic5_workers2",
    # The hot kernels run in parallel_exec workers.  core.redistribute
    # runs every fifth iteration (Figure 16's shortest period), about 13%
    # of host time against about 5% on fig17_p128.  A change to the
    # workers' shared rows block shows here; so does a gain for the
    # in-process scatter that costs the worker path.
    why="p=32 with periodic:5 on 2 worker processes: kernels run in "
        "parallel_exec and redistribution every fifth iteration",
    config=dict(PAPER_MESH, p=32, policy="periodic:5"),
    workers=2,
    iterations=24,
    reference_workers=0,
)

SUBMIT_POLICY_SWEEP = SweepWorkload(
    name="submit_policy_sweep",
    # Checkpoint writes (~170 ms each, every 2 iterations) outweigh the
    # ~70 ms iterations: a cold batch took 15-18 s with checkpoints on
    # and 10.2 s with them off.  The crashed job reads its checkpoint
    # back.  service, checkpoint and telemetry carry this workload while
    # parallel_exec is idle.
    why="6-job policy sweep on 2 job workers with checkpoints, telemetry, "
        "one crash-and-resume, then a warm-cache resubmit",
    config=dict(PAPER_MESH, p=32),
    policies=("static", "periodic:25", "periodic:5", "dynamic", "sar-ewma", "costmodel"),
    iterations=10,
    job_workers=2,
    crash={"policy": "dynamic", "at_iteration": 5},
)

WORKLOADS = {w.name: w for w in (FIG17_P128, FIG16_P32_PERIODIC5_WORKERS2, SUBMIT_POLICY_SWEEP)}
