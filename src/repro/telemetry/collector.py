"""Run-level telemetry orchestration: spans + metrics + JSONL export.

:class:`RunTelemetry` is the single object a
:class:`~repro.pic.simulation.Simulation` owns when telemetry is
enabled.  It bundles

* a :class:`~repro.telemetry.spans.SpanTracer` attached to the virtual
  machine (``vm.tracer``) that captures every (iteration, phase, rank)
  interval on the virtual clocks,
* an ordered stream of per-iteration records and one-off events
  (:attr:`RunTelemetry.records`) that :meth:`save_metrics` writes as
  JSONL — one JSON object per line, schema ``repro-metrics/1``:

  - line 1: a ``header`` record (schema marker, rank count, config);
  - one ``iteration`` record per completed iteration — phase time
    increments, per-rank particle counts and load imbalance, per-phase
    message/byte tallies, ghost-table hit stats, op-count deltas,
    redistribution-decision records, redistribution outcome;
  - ``event`` records (checkpoint written, rank failure, recovery,
    machine shrink) interleaved in occurrence order;
  - a final ``summary`` record with the registry snapshot and totals;

* a :class:`~repro.telemetry.metrics.MetricsRegistry` of run-wide
  counters / gauges / histograms, fed only from the records as they are
  appended.

The records are the single source: the registry, and every track of
the trace export other than the spans — instant events, the counter
tracks, the ``rank_history`` lane record and the correlation stamp —
are projections of them (:meth:`RunTelemetry.to_chrome`).

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
from repro.telemetry.spans import TRACE_SCHEMA, SpanTracer

__all__ = ["RunTelemetry", "METRICS_SCHEMA"]

#: Schema marker on the first line of every metrics JSONL stream.
METRICS_SCHEMA = "repro-metrics/1"

#: metrics event kind -> the registry counter one such event moves
_EVENT_COUNTERS = {"guard_violation": "guard.violations", "shrink": "recovery.count"}

#: event-record keys that are not instant-marker args
_EVENT_KEYS = ("type", "kind", "iteration", "t")


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
        #: ordered stream of iteration + event records (JSONL body)
        self.records: list[dict] = []
        #: aggregates folded from :attr:`records` by :meth:`_append`
        self.registry = MetricsRegistry()
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
        self._pending_sar = []
        self._append(entry)
        self.enabled_iterations += 1
        return entry

    def _append(self, record: dict) -> None:
        """Store one stream record and fold it into the registry.

        The registry's only feed: every aggregate is a projection of
        :attr:`records`.
        """
        self.records.append(record)
        reg = self.registry
        if record["type"] == "event":
            name = _EVENT_COUNTERS.get(record["kind"])
            if name is not None:
                reg.counter(name).inc()
            return
        reg.counter("iterations").inc()
        reg.histogram("iteration.time").observe(record["t_iter"])
        reg.histogram("load.imbalance").observe(record["imbalance"])
        reg.gauge("load.imbalance.last").set(record["imbalance"])
        reg.gauge("ranks.live").set(record["p"])
        for phase, tallies in record["comm"].items():
            reg.counter(f"comm.{phase}.msgs").inc(tallies["msgs"])
            reg.counter(f"comm.{phase}.bytes").inc(tallies["bytes"])
        if "ghost" in record:
            reg.counter("ghost.entries").inc(max(record["ghost"]["entries"], 0.0))
        for decision in record["sar_decisions"]:
            reg.counter("sar.evaluations").inc()
            if decision.get("fired"):
                reg.counter("sar.fired").inc()
        if record["redistributed"]:
            reg.counter("redistribution.count").inc()
            reg.histogram("redistribution.cost").observe(record["redistribution_cost"])

    # ------------------------------------------------------------------
    # decision + event feeds
    # ------------------------------------------------------------------
    def record_sar_decision(self, decision: dict) -> None:
        """Sink for redistribution-policy decision records.

        Wired as ``policy.decision_sink``; one call per
        ``should_redistribute`` evaluation.  Records accumulate on the
        pending list and are attached to (and counted with) the
        iteration record being assembled.
        """
        self._pending_sar.append(dict(decision))

    def record_guard_violation(self, message: str) -> None:
        """Sink for invariant-guard violations (warn mode keeps running)."""
        self._append({"type": "event", "kind": "guard_violation", "message": message})

    def record_event(self, kind: str, *, t: float, iteration: int, **fields) -> None:
        """Record a one-off event (checkpoint / failure / recovery / shrink).

        Events carry a virtual time ``t``, so the trace export shows each
        as an instant marker; later spans are tagged with ``iteration``.
        """
        self._append(
            {"type": "event", "kind": kind, "iteration": int(iteration), "t": float(t), **fields}
        )
        self.tracer.set_iteration(iteration)

    def on_shrink(self, p_new: int, dead_rank: int, iteration: int, t: float) -> None:
        """The machine shrank to ``p_new`` ranks after ``dead_rank`` died.

        Subsequent iteration records carry ``p_new``-length per-rank
        arrays; the trace marks the transition so readers never mix lane
        widths (the no-stale-rank-columns contract).
        """
        self.p = int(p_new)
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

    def rank_history(self) -> list[list[int]]:
        """Lane widths over the run: ``[iteration, p]`` entries.

        The first entry is the enable-time width at iteration -1; each
        ``shrink`` event adds one, at the iteration of the
        ``rank_failure`` that caused it.
        """
        history = [[-1, self.initial_p]]
        failed_at = None
        for rec in self.records:
            if rec.get("kind") == "rank_failure":
                failed_at = rec["iteration"]
            elif rec.get("kind") == "shrink":
                at = rec["iteration"] if failed_at is None else failed_at
                history.append([at, rec["p"]])
        return history

    def to_chrome(self) -> dict:
        """Export as a Chrome Trace Event / Perfetto JSON object.

        Spans come from the tracer; instants (every event with a virtual
        time), the counter tracks (per-iteration load imbalance and
        busiest-rank particle count) and the lane metadata come from
        :attr:`records`.
        """
        history = self.rank_history()
        lanes = 1 + max([s.rank for s in self.tracer.spans] + [p - 1 for _, p in history])
        events = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "repro virtual machine"}}
        ]
        events += [
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": r, "args": {"name": f"rank {r}"}}
            for r in range(lanes)
        ]
        events += self.tracer.span_events()
        # instants: "s": "g" is global scope, a full-height marker line
        events += [
            {
                "name": rec["kind"], "cat": "event", "ph": "i", "s": "g", "pid": 0, "tid": 0,
                "ts": rec["t"] * 1e6,
                "args": {
                    "iteration": rec["iteration"],
                    **{k: v for k, v in rec.items() if k not in _EVENT_KEYS},
                },
            }
            for rec in self.records
            if rec["type"] == "event" and "t" in rec
        ]
        events += [
            {
                "name": track, "cat": "metric", "ph": "C", "pid": 0, "tid": 0,
                "ts": rec["t_end"] * 1e6, "args": values,
            }
            for rec in self.records
            if rec["type"] == "iteration"
            for track, values in (
                ("load imbalance", {"max/mean": float(rec["imbalance"])}),
                ("particles", {"max_per_rank": float(max(rec["particles_per_rank"], default=0))}),
            )
        ]
        other = {"schema": TRACE_SCHEMA, "clock": "virtual", "rank_history": history}
        if self.correlation is not None:
            other["correlation"] = dict(self.correlation)
        return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}

    def save_trace(self, path: str | Path) -> Path:
        """Atomically write the Perfetto/Chrome trace JSON to ``path``."""
        from repro.util.atomic_io import atomic_write_text

        return atomic_write_text(Path(path), json.dumps(self.to_chrome()) + "\n")

    def __repr__(self) -> str:
        return (
            f"RunTelemetry(p={self.p}, iterations={self.enabled_iterations}, "
            f"records={len(self.records)})"
        )
