"""Span-based tracing of virtual-machine phases (Chrome-trace export).

:class:`SpanTracer` records one :class:`Span` per (iteration, phase,
rank) interval on the *virtual* clocks: the machine's
:meth:`~repro.machine.virtual.VirtualMachine.phase` context manager
captures the per-rank clock values at entry and exit and hands them to
:meth:`SpanTracer.record_phase`.  Because spans are measured on the
virtual clocks, a trace is fully deterministic — two runs of the same
configuration produce byte-identical trace files.

Spans are all the tracer keeps.  The export
(:meth:`repro.telemetry.collector.RunTelemetry.to_chrome`) is the
Chrome Trace Event JSON (the ``traceEvents`` array form), which
Perfetto (https://ui.perfetto.dev) and ``chrome://tracing`` both load
directly; its other tracks are projections of the run's metrics
records:

* each rank maps to one thread lane (``tid = rank``) in process 0;
* phase intervals are complete events (``"ph": "X"``, from
  :meth:`SpanTracer.span_events`) with microsecond timestamps (virtual
  seconds × 1e6) and ``args`` carrying the iteration number;
* one-off occurrences (checkpoints, rank failures, recoveries) are
  instant events (``"ph": "i"``);
* per-iteration scalars (load imbalance, particle counts) are counter
  events (``"ph": "C"``) charted on their own tracks;
* metadata events (``"ph": "M"``) name the process and the rank lanes.

Nothing here charges the virtual clocks: attaching a tracer never
changes ``vm.elapsed()``, ``vm.ops``, or any result quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Span", "SpanTracer", "TRACE_SCHEMA"]

#: Schema marker embedded in exported traces (``otherData.schema``).
TRACE_SCHEMA = "repro-trace/1"


@dataclass
class Span:
    """One (iteration, phase, rank) interval on the virtual clocks."""

    name: str  #: phase label (scatter / field / gather / push / ...)
    rank: int
    iteration: int
    t0: float  #: virtual seconds at phase entry (this rank's clock)
    t1: float  #: virtual seconds at phase exit
    depth: int = 1  #: phase-stack depth (1 = outermost)

    @property
    def duration(self) -> float:
        """Span length in virtual seconds."""
        return self.t1 - self.t0


class SpanTracer:
    """Collects the phase spans of a run.

    The tracer is attached to a machine as ``vm.tracer``; the machine's
    ``phase`` context manager feeds it via :meth:`record_phase`.  The
    simulation driver advances :attr:`iteration` once per step so every
    span is tagged with the iteration it belongs to.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.iteration = -1  #: -1 = before the first simulation iteration

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def set_iteration(self, iteration: int) -> None:
        """Tag subsequently recorded spans with ``iteration``."""
        self.iteration = int(iteration)

    def record_phase(
        self, name: str, t_start: np.ndarray, t_end: np.ndarray, *, depth: int = 1
    ) -> None:
        """Record one phase interval from per-rank entry/exit clocks.

        Ranks whose clock did not advance inside the phase are skipped —
        they did not participate, and zero-width slices only clutter the
        timeline.
        """
        it = self.iteration
        for rank in range(len(t_start)):
            t0 = float(t_start[rank])
            t1 = float(t_end[rank])
            if t1 > t0:
                self.spans.append(Span(name, rank, it, t0, t1, depth))

    def span_events(self) -> list[dict]:
        """The spans as Chrome-trace complete (``"ph": "X"``) events."""
        return [
            {
                "name": span.name,
                "cat": "phase",
                "ph": "X",
                "pid": 0,
                "tid": span.rank,
                "ts": span.t0 * 1e6,
                "dur": span.duration * 1e6,
                "args": {"iteration": span.iteration, "depth": span.depth},
            }
            for span in self.spans
        ]

    def __repr__(self) -> str:
        return f"SpanTracer(spans={len(self.spans)})"
