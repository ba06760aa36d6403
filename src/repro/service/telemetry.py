"""Batch-level telemetry for the job service.

Mirrors the run-level :mod:`repro.telemetry` shape one level up: a
:class:`ServiceTelemetry` collects an ordered stream of scheduler
events (launches, progress, heartbeats lost, retries, worker deaths,
cache hits and quarantines, pool shrinks, circuit-breaker trips and the
per-job cancellations they cause) and writes it as JSONL — schema
``repro-service/2``: a ``header`` line, ``event`` lines in occurrence
order, and a closing ``summary`` with a
:class:`~repro.telemetry.metrics.MetricsRegistry` snapshot.

The event stream is the batch's only tally.  :meth:`ServiceTelemetry.event`
moves every batch counter through one rule,
:func:`~repro.telemetry.schema.event_counters`
(event kind -> counters), so the summary, the Prometheus snapshot, the
batch report's ``counters`` block (:meth:`ServiceTelemetry.report_counters`)
and any later fold of the stream (:class:`repro.obs.top.BatchView`,
``repro report --batch``) count the same facts.  Only what the
throttled stream cannot carry stays live: ``heartbeats.received``,
``jobs.imbalance.last`` and the ``queue.depth`` gauge.

Timestamps follow the observability contract (DESIGN.md §5.8): every
event's ``t`` is a ``time.monotonic()`` delta from batch start, so
wall-clock steps (NTP, suspend) can never produce negative or jumping
values mid-stream; the absolute wall-clock start lives in the header
only (``started_at``, ``time.time()``).  Schema ``/2`` additionally
carries the batch's correlation identity: ``batch_id`` in the header and
``job_id``/``attempt`` on every job-scoped event, so the stream joins
with per-job metrics, traces, checkpoints and result documents.

Unlike run telemetry there is no zero-cost clause to honour — the
scheduler lives entirely off the virtual clocks — so the stream is
always recorded and saving it is opt-in (``repro submit --metrics``).
With :meth:`stream_to` the stream is *also* appended live, line by
flushed line, which is what ``repro top`` tails.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.schema import event_counters

__all__ = ["ServiceTelemetry", "SERVICE_SCHEMA"]

#: Schema marker on the first line of every service metrics stream.
SERVICE_SCHEMA = "repro-service/2"

#: minimum seconds between two job_progress events for the same job
_PROGRESS_EVERY = 0.2

#: batch-report ``counters`` key -> the counter it reads
_REPORT_COUNTERS = {
    "completed": "jobs.completed",
    "failed": "jobs.failed",
    "cancelled": "jobs.cancelled",
    "cache_hits": "cache.hits",
    "retries": "jobs.retries",
    "timeouts": "jobs.timeouts",
    "heartbeats_lost": "heartbeats.lost",
    "worker_losses": "workers.lost",
    "quarantined": "cache.quarantined",
    "pool_shrinks": "pool.shrinks",
}


class ServiceTelemetry:
    """Event stream + its tally for one scheduler batch."""

    def __init__(
        self,
        *,
        jobs: int,
        workers: int,
        params: dict | None = None,
        batch_id: str | None = None,
    ) -> None:
        self.jobs = int(jobs)
        self.workers = int(workers)
        self.params = dict(params or {})
        self.batch_id = batch_id
        self.registry = MetricsRegistry()
        self.records: list[dict] = []
        self.started_at = time.time()
        self._t0 = time.monotonic()
        self._queue_depth = 0
        self._stream = None
        self._last_progress: dict[str, float] = {}

    # ------------------------------------------------------------------
    # live streaming
    # ------------------------------------------------------------------
    def stream_to(self, path: str | Path) -> Path:
        """Append the stream live to ``path`` (header now, events as they
        happen, summary at :meth:`close_stream`).

        Every line is flushed immediately so a tailing ``repro top`` sees
        events while the batch runs.  The final :meth:`save` to the same
        path (done by :meth:`close_stream`) rewrites it atomically, so a
        crash mid-batch leaves a valid-but-summaryless stream, never a
        torn line.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._stream = path.open("w", encoding="utf-8")
        self._emit(self.header())
        return path

    def _emit(self, record: dict) -> None:
        if self._stream is not None:
            self._stream.write(json.dumps(record) + "\n")
            self._stream.flush()

    def close_stream(self) -> Path | None:
        """Finish the live stream: append the summary, then atomically
        rewrite the whole file (idempotent; returns the path or None)."""
        if self._stream is None:
            return None
        self._emit(self.summary_record())
        path = Path(self._stream.name)
        self._stream.close()
        self._stream = None
        return self.save(path)

    # ------------------------------------------------------------------
    def set_queue_depth(self, depth: int) -> None:
        """Update the queue-depth gauge (stamped onto subsequent events)."""
        self._queue_depth = int(depth)
        self.registry.gauge("queue.depth").set(depth)

    def event(self, kind: str, **fields) -> dict:
        """Record one scheduler event and tally it; returns the record."""
        record = {
            "type": "event",
            "kind": kind,
            "t": round(time.monotonic() - self._t0, 6),
            "queue_depth": self._queue_depth,
            **fields,
        }
        self.records.append(record)
        for name in event_counters(record):
            self.registry.counter(name).inc()
        if kind == "pool_shrink":
            self.registry.gauge("pool.size").set(record["size"])
        self._emit(record)
        return record

    def count(self, name: str) -> int:
        """Current value of batch counter ``name`` (0 before its first event)."""
        return int(self.registry.counter(name).value) if name in self.registry else 0

    def report_counters(self) -> dict[str, int]:
        """The batch report's ``counters`` block, read from the tally."""
        return {key: self.count(name) for key, name in _REPORT_COUNTERS.items()}

    def _job_event(self, kind: str, job, **fields) -> dict:
        """Event stamped with the job's correlation identity.

        ``job`` is anything with ``name``/``key``/``attempt`` (a
        ``JobRecord``); plain strings are kept working for tests.
        """
        if not isinstance(job, str):
            fields.setdefault("job_id", job.key)
            fields.setdefault("attempt", int(job.attempt))
            job = job.name
        return self.event(kind, job=job, **fields)

    # convenience wrappers keeping event fields in one place -------------
    def on_launch(self, job, attempt: int) -> None:
        self._job_event("job_launched", job, attempt=int(attempt))

    def on_heartbeat(
        self,
        job,
        iteration: int,
        *,
        total: int | None = None,
        imbalance: float | None = None,
    ) -> None:
        self.registry.counter("heartbeats.received").inc()
        if imbalance is not None:
            self.registry.gauge("jobs.imbalance.last").set(imbalance)
        # throttle the stream: one progress event per job per
        # _PROGRESS_EVERY seconds, plus always the final iteration
        name = job if isinstance(job, str) else job.name
        now = time.monotonic()
        final = total is not None and iteration >= total
        if not final and now - self._last_progress.get(name, -1.0) < _PROGRESS_EVERY:
            return
        self._last_progress[name] = now
        fields: dict = {"iteration": int(iteration)}
        if total is not None:
            fields["total"] = int(total)
        if imbalance is not None:
            fields["imbalance"] = round(float(imbalance), 6)
        self._job_event("job_progress", job, **fields)

    def on_done(self, job, wall: float, cached: bool) -> None:
        self._job_event("job_done", job, wall=round(wall, 6), cached=cached)

    def on_retry(self, job, attempt: int, reason: str, delay: float) -> None:
        # ``attempt`` is the upcoming attempt (as in schema /1); the
        # explicit value wins over the record's correlation default
        self._job_event(
            "job_retry", job, attempt=int(attempt), reason=reason,
            delay=round(delay, 6),
        )

    def on_failed(self, job, reason: str) -> None:
        self._job_event("job_failed", job, reason=reason)

    def on_timeout(self, job, limit: float, elapsed: float) -> None:
        self._job_event(
            "job_timeout", job, limit=limit, elapsed=round(elapsed, 6)
        )

    def on_heartbeat_lost(self, job, silent_for: float) -> None:
        self._job_event("heartbeat_lost", job, silent_for=round(silent_for, 6))

    def on_worker_lost(self, job, exitcode: int | None) -> None:
        self._job_event("worker_lost", job, exitcode=exitcode)

    def on_cancelled(self, job, reason: str) -> None:
        self._job_event("job_cancelled", job, reason=reason)

    def on_pool_shrink(self, size: int, reason: str) -> None:
        self.event("pool_shrink", size=size, reason=reason)

    def on_quarantine(self, path: str, reason: str) -> None:
        self.event("cache_quarantine", path=path, reason=reason)

    def on_circuit_open(self, failures: int, cancelled: int) -> None:
        self.event("circuit_open", failures=failures, cancelled=cancelled)

    # ------------------------------------------------------------------
    def header(self) -> dict:
        out = {
            "type": "header",
            "schema": SERVICE_SCHEMA,
            "jobs": self.jobs,
            "workers": self.workers,
            "started_at": round(self.started_at, 6),
            "params": self.params,
        }
        if self.batch_id is not None:
            out["batch_id"] = self.batch_id
        return out

    def summary_record(self) -> dict:
        return {"type": "summary", "aggregates": self.registry.snapshot()}

    def metrics_lines(self) -> list[str]:
        stream = [self.header(), *self.records, self.summary_record()]
        return [json.dumps(rec) for rec in stream]

    def save(self, path: str | Path) -> Path:
        """Atomically write the JSONL stream to ``path``."""
        from repro.util.atomic_io import atomic_write_text

        return atomic_write_text(Path(path), "\n".join(self.metrics_lines()) + "\n")
