"""Multicore shared-memory execution backend for the flat engine.

Shards the segment-offset :class:`~repro.particles.arrays.ParticlePool`
across a persistent pool of forked worker processes operating on
``multiprocessing.shared_memory``-backed numpy segments.  Worker
parallelism is an *execution detail*: virtual-machine accounting, comm
statistics, RNG streams, checkpoints, and telemetry are computed in the
main process exactly as the in-process stepper computes them, so results
are bit-identical for every worker count (DESIGN.md §5.5).

Entry point: :func:`create_backend` (graceful ``None`` fallback), wired
through ``Simulation(config, workers=N)`` / ``repro run --workers N``.
"""

from repro.parallel_exec.backend import FlatBackend, create_backend, resolve_workers
from repro.parallel_exec.pool import WorkerError, WorkerPool, live_worker_pids
from repro.parallel_exec.shm import (
    SharedArena,
    ShmArray,
    ShmAttachCache,
    shared_memory_available,
)

__all__ = [
    "FlatBackend",
    "create_backend",
    "resolve_workers",
    "WorkerPool",
    "WorkerError",
    "live_worker_pids",
    "SharedArena",
    "ShmArray",
    "ShmAttachCache",
    "shared_memory_available",
]
