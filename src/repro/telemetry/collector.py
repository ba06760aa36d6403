"""Run-level telemetry orchestration: spans + metrics + JSONL export.

:class:`RunTelemetry` is the single object a
:class:`~repro.pic.simulation.Simulation` owns when telemetry is
enabled.  It bundles

* a :class:`~repro.telemetry.spans.SpanTracer` attached to the virtual
  machine (``vm.tracer``) that captures every (iteration, phase, rank)
  interval on the virtual clocks,
* a :class:`~repro.telemetry.metrics.MetricsRegistry` of run-wide
  counters / gauges / histograms, and
* an ordered stream of per-iteration records and one-off events that
  :meth:`save_metrics` writes as JSONL — one JSON object per line,
  schema ``repro-metrics/1``:

  - line 1: a ``header`` record (schema marker, rank count, config);
  - one ``iteration`` record per completed iteration — phase time
    increments, per-rank particle counts and load imbalance, per-phase
    message/byte tallies, ghost-table hit stats, op-count deltas,
    redistribution-decision records, redistribution outcome;
  - ``event`` records (checkpoint written, rank failure, recovery,
    machine shrink) interleaved in occurrence order;
  - a final ``summary`` record with the registry snapshot and totals.

The zero-cost contract: nothing in this module reads or charges the
virtual clocks, so a run with telemetry attached produces bit-identical
``vm.elapsed()`` / ``vm.ops`` / result summaries to one without.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.metrics import load_imbalance
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanTracer

__all__ = ["RunTelemetry", "METRICS_SCHEMA"]

#: Schema marker on the first line of every metrics JSONL stream.
METRICS_SCHEMA = "repro-metrics/1"


def _comm_dict(epochs: list[dict]) -> dict:
    """Merge per-phase ``PhaseComm`` snapshots into plain JSON tallies."""
    out: dict[str, dict] = {}
    for epoch in epochs:
        for phase, rec in epoch.items():
            tallies = rec.to_dict()
            entry = out.get(phase)
            if entry is None:
                out[phase] = tallies
            else:
                entry["msgs"] += tallies["msgs"]
                entry["bytes"] += tallies["bytes"]
                entry["max_msgs"] = max(entry["max_msgs"], tallies["max_msgs"])
                entry["max_bytes"] = max(entry["max_bytes"], tallies["max_bytes"])
    return out


class RunTelemetry:
    """Telemetry state for one simulation run.

    Parameters
    ----------
    p:
        Rank count of the machine at enable time.
    config:
        JSON-serializable run configuration embedded in the metrics
        header (``config_to_dict`` output); optional.
    degraded:
        Multicore-fallback marker (``Simulation.degraded``); embedded in
        the header when not ``None`` so stream readers can distinguish a
        true multicore run from a silent in-process fallback.
    correlation:
        Batch identity (``{"batch_id", "job_id", "attempt"}``) stamped
        by the job service; embedded in the header and the trace export
        so per-job artifacts join with the batch's service stream.
    """

    def __init__(
        self,
        p: int,
        *,
        config: dict | None = None,
        degraded: dict | None = None,
        correlation: dict | None = None,
    ) -> None:
        #: live rank count (lowered by :meth:`on_shrink`)
        self.p = int(p)
        #: rank count at enable time — the metrics header pins this one,
        #: and shrink events walk readers to the live count from there
        self.initial_p = int(p)
        self.config = config
        self.degraded = degraded
        self.correlation = dict(correlation) if correlation is not None else None
        self.tracer = SpanTracer()
        self.tracer.note_ranks(p)
        self.tracer.correlation = self.correlation
        self.registry = MetricsRegistry()
        #: ordered stream of iteration + event records (JSONL body)
        self.records: list[dict] = []
        self._pending_sar: list[dict] = []
        self._iter_t0: float | None = None
        self._iter_ops: dict[str, float] = {}
        self._iter_ghost: tuple[float, float] | None = None
        self.enabled_iterations = 0

    # ------------------------------------------------------------------
    # iteration lifecycle (driven by Simulation.run)
    # ------------------------------------------------------------------
    def set_iteration(self, iteration: int) -> None:
        """Advance the current-iteration tag (spans + SAR records)."""
        self.tracer.set_iteration(iteration)

    def begin_iteration(self, vm, pic) -> None:
        """Capture the baselines an iteration record is a delta against."""
        self._iter_t0 = vm.elapsed()
        self._iter_ops = vm.ops.as_dict()
        self._iter_ghost = self._ghost_totals(pic)

    @staticmethod
    def _ghost_totals(pic) -> tuple[float, float] | None:
        tables = getattr(pic, "ghost_tables", None)
        if not tables:
            return None
        entries = float(sum(t.stats.entries for t in tables))
        ops = float(sum(t.stats.ops for t in tables))
        return entries, ops

    def end_iteration(self, vm, pic, record, *, comm_epochs: list[dict]) -> dict:
        """Assemble, store, and return this iteration's metrics record.

        ``record`` is the driver's
        :class:`~repro.pic.simulation.IterationRecord`, the source of the
        iteration number, its ``phase_time`` increment, and the
        redistribution outcome; ``comm_epochs`` are the
        :meth:`CommStats.snapshot_epoch` dicts popped during the
        iteration (step traffic plus, separately, any redistribution
        traffic).
        """
        t_end = vm.elapsed()
        t_start = self._iter_t0 if self._iter_t0 is not None else t_end
        counts = [int(parts.n) for parts in pic.particles]
        imbalance = load_imbalance(np.asarray(counts))
        ops_now = vm.ops.as_dict()
        ops_delta = {
            k: v - self._iter_ops.get(k, 0.0)
            for k, v in ops_now.items()
            if v - self._iter_ops.get(k, 0.0) > 0.0
        }
        entry = {
            "type": "iteration",
            "iteration": int(record.iteration),
            "p": vm.p,
            "t_start": t_start,
            "t_end": t_end,
            "t_iter": t_end - t_start,
            "phase_time": dict(record.phase_time),
            "particles_per_rank": counts,
            "imbalance": imbalance,
            "comm": _comm_dict(comm_epochs),
            "ops": ops_delta,
            "sar_decisions": self._pending_sar,
            "redistributed": bool(record.redistributed),
            "redistribution_cost": float(record.redistribution_cost),
        }
        ghost_now = self._ghost_totals(pic)
        if ghost_now is not None:
            g0 = self._iter_ghost or (0.0, 0.0)
            entries = ghost_now[0] - g0[0]
            unique = float(
                sum(t.stats.unique_nodes for t in getattr(pic, "ghost_tables", []))
            )
            entry["ghost"] = {
                "entries": entries,
                "unique_nodes": unique,
                "table_ops": ghost_now[1] - g0[1],
                "hit_ratio": (1.0 - unique / entries) if entries > 0 else 0.0,
            }
            self.registry.counter("ghost.entries").inc(max(entries, 0.0))
        self._pending_sar = []
        self.records.append(entry)
        self.enabled_iterations += 1

        # -- registry aggregates ----------------------------------------
        reg = self.registry
        reg.counter("iterations").inc()
        reg.histogram("iteration.time").observe(entry["t_iter"])
        reg.histogram("load.imbalance").observe(imbalance)
        reg.gauge("load.imbalance.last").set(imbalance)
        reg.gauge("ranks.live").set(vm.p)
        for phase, tallies in entry["comm"].items():
            reg.counter(f"comm.{phase}.msgs").inc(tallies["msgs"])
            reg.counter(f"comm.{phase}.bytes").inc(tallies["bytes"])
        if record.redistributed:
            reg.counter("redistribution.count").inc()
            reg.histogram("redistribution.cost").observe(record.redistribution_cost)

        # -- counter tracks on the trace timeline -------------------------
        self.tracer.record_counters(
            "load imbalance", t_end, {"max/mean": imbalance}
        )
        self.tracer.record_counters(
            "particles", t_end, {"max_per_rank": max(counts, default=0)}
        )
        return entry

    # ------------------------------------------------------------------
    # decision + event feeds
    # ------------------------------------------------------------------
    def record_sar_decision(self, decision: dict) -> None:
        """Sink for redistribution-policy decision records.

        Wired as ``policy.decision_sink``; one call per
        ``should_redistribute`` evaluation.  Records accumulate on the
        pending list and are attached to the iteration record being
        assembled.
        """
        self._pending_sar.append(dict(decision))
        self.registry.counter("sar.evaluations").inc()
        if decision.get("fired"):
            self.registry.counter("sar.fired").inc()

    def record_guard_violation(self, message: str) -> None:
        """Sink for invariant-guard violations (warn mode keeps running)."""
        self.registry.counter("guard.violations").inc()
        self.records.append({"type": "event", "kind": "guard_violation", "message": message})

    def record_event(self, kind: str, *, t: float, iteration: int, **fields) -> None:
        """Record a one-off event (checkpoint / failure / recovery / shrink)."""
        self.records.append(
            {"type": "event", "kind": kind, "iteration": int(iteration), "t": float(t), **fields}
        )
        self.tracer.set_iteration(iteration)
        self.tracer.record_instant(kind, t, **fields)

    def on_shrink(self, p_new: int, dead_rank: int, iteration: int, t: float) -> None:
        """The machine shrank to ``p_new`` ranks after ``dead_rank`` died.

        Subsequent iteration records carry ``p_new``-length per-rank
        arrays; the trace marks the transition so readers never mix lane
        widths (the no-stale-rank-columns contract).
        """
        self.p = int(p_new)
        self.tracer.note_ranks(p_new)
        self.registry.counter("recovery.count").inc()
        self.record_event(
            "shrink", t=t, iteration=iteration, dead_rank=int(dead_rank), p=int(p_new)
        )

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def aggregates(self) -> dict:
        """Final aggregate block (registry snapshot keyed by instrument)."""
        return self.registry.snapshot()

    def set_correlation(self, correlation: dict | None) -> None:
        """Stamp (or clear) the batch identity on header + trace export."""
        self.correlation = dict(correlation) if correlation is not None else None
        self.tracer.correlation = self.correlation

    def header(self) -> dict:
        """The JSONL header record."""
        rec = {"type": "header", "schema": METRICS_SCHEMA, "p": self.initial_p}
        if self.config is not None:
            rec["config"] = self.config
        if self.degraded is not None:
            rec["degraded"] = self.degraded
        if self.correlation is not None:
            rec["correlation"] = self.correlation
        return rec

    def summary_record(self) -> dict:
        """The closing JSONL summary record."""
        return {
            "type": "summary",
            "iterations": self.enabled_iterations,
            "aggregates": self.aggregates(),
        }

    def metrics_lines(self) -> list[str]:
        """The full JSONL stream as a list of serialized lines."""
        stream = [self.header(), *self.records, self.summary_record()]
        return [json.dumps(rec) for rec in stream]

    def save_metrics(self, path: str | Path) -> Path:
        """Atomically write the metrics JSONL stream to ``path``.

        The stream is finalized in one atomic install (temp file +
        ``os.replace``), so a reader never sees a half-written JSONL
        file — the last line is always the ``summary`` record.
        """
        from repro.util.atomic_io import atomic_write_text

        return atomic_write_text(Path(path), "\n".join(self.metrics_lines()) + "\n")

    def save_trace(self, path: str | Path) -> Path:
        """Write the Perfetto/Chrome trace JSON to ``path`` and return it."""
        return self.tracer.save(path)

    def __repr__(self) -> str:
        return (
            f"RunTelemetry(p={self.p}, iterations={self.enabled_iterations}, "
            f"records={len(self.records)})"
        )
