"""Schema validation for exported telemetry files.

Three artifact kinds leave a run or a batch:

* **trace** — Chrome Trace Event JSON (``repro run --trace``), loadable
  by Perfetto; validated by :func:`validate_trace`;
* **metrics** — JSONL, one record per line (``repro run --metrics``),
  schema ``repro-metrics/1``; validated by :func:`validate_metrics`;
* **service** — the job scheduler's batch event stream (``repro submit
  --telemetry`` / ``--obs-dir``), schema ``repro-service/1`` or ``/2``;
  validated by :func:`validate_service`.

All validators raise :class:`TelemetrySchemaError` naming the first
offending record, and return the parsed content so callers (the report
CLI, the CI ``telemetry`` job, the tests) never parse twice.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.telemetry.collector import METRICS_SCHEMA
from repro.telemetry.spans import TRACE_SCHEMA

__all__ = [
    "TelemetrySchemaError",
    "validate_trace",
    "validate_metrics",
    "validate_service",
    "event_counters",
    "ParsedMetrics",
    "ParsedService",
]

#: Chrome-trace phase codes the exporter emits.
_TRACE_PHASES = {"X", "i", "C", "M"}


class TelemetrySchemaError(ValueError):
    """A telemetry artifact does not conform to its schema."""


def _fail(message: str) -> None:
    raise TelemetrySchemaError(message)


def validate_trace(source: str | Path | dict) -> dict:
    """Validate a Chrome-trace export; return the parsed document.

    ``source`` is a file path or an already-parsed dict.  Checks the
    envelope (``traceEvents`` list, schema marker) and every event's
    required fields per its phase code — the structural subset Perfetto
    requires to load the file.
    """
    if isinstance(source, dict):
        doc = source
    else:
        path = Path(source)
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            _fail(f"{path} is not valid JSON: {exc}")
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        _fail("trace must be an object with a 'traceEvents' list")
    other = doc.get("otherData", {})
    if other.get("schema") != TRACE_SCHEMA:
        _fail(
            f"trace otherData.schema is {other.get('schema')!r}, expected {TRACE_SCHEMA!r}"
        )
    for i, ev in enumerate(doc["traceEvents"]):
        if not isinstance(ev, dict):
            _fail(f"traceEvents[{i}] is not an object")
        ph = ev.get("ph")
        if ph not in _TRACE_PHASES:
            _fail(f"traceEvents[{i}] has unknown phase code {ph!r}")
        for key in ("name", "pid", "tid"):
            if key not in ev:
                _fail(f"traceEvents[{i}] ({ph}) is missing {key!r}")
        if ph in ("X", "i", "C") and not isinstance(ev.get("ts"), (int, float)):
            _fail(f"traceEvents[{i}] ({ph}) needs a numeric 'ts'")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                _fail(f"traceEvents[{i}] (X) needs a non-negative numeric 'dur'")
            args = ev.get("args", {})
            if "iteration" not in args:
                _fail(f"traceEvents[{i}] (X) args must carry the iteration tag")
        if ph == "C" and not isinstance(ev.get("args"), dict):
            _fail(f"traceEvents[{i}] (C) needs an 'args' object of series values")
    return doc


class ParsedMetrics:
    """Structured view of a validated metrics JSONL stream."""

    def __init__(self, header: dict, iterations: list[dict], events: list[dict], summary: dict | None) -> None:
        self.header = header
        self.iterations = iterations
        self.events = events
        self.summary = summary

    @property
    def p(self) -> int:
        """Rank count at the start of the run."""
        return int(self.header["p"])


def _check_decision(dec, ctx: str) -> None:
    """One policy decision record (DESIGN.md §5.6 replayability contract)."""
    if not isinstance(dec, dict):
        _fail(f"{ctx} is not an object")
    if not isinstance(dec.get("policy"), str) or not dec["policy"]:
        _fail(f"{ctx} needs a non-empty 'policy' name")
    if not isinstance(dec.get("iteration"), int):
        _fail(f"{ctx} needs an integer 'iteration'")
    if not isinstance(dec.get("fired"), bool):
        _fail(f"{ctx} needs a boolean 'fired' verdict")


def _load_jsonl(source: str | Path | list[str]) -> tuple[list[dict], str]:
    """Parse a JSONL file path or list of lines; returns ``(records, where)``.

    Blank lines are skipped; a line that is not JSON, or a source with no
    records at all, raises :class:`TelemetrySchemaError`.
    """
    if isinstance(source, list):
        lines = source
        where = "<lines>"
    else:
        path = Path(source)
        lines = path.read_text().splitlines()
        where = str(path)
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            _fail(f"{where}:{lineno} is not valid JSON: {exc}")
    if not records:
        _fail(f"{where} is empty")
    return records, where


_ITERATION_KEYS = (
    "iteration",
    "p",
    "t_iter",
    "phase_time",
    "particles_per_rank",
    "imbalance",
    "comm",
    "sar_decisions",
    "redistributed",
    "redistribution_cost",
)


def validate_metrics(source: str | Path | list[str]) -> ParsedMetrics:
    """Validate a metrics JSONL stream; return a :class:`ParsedMetrics`.

    ``source`` is a file path or a list of JSONL lines.  Checks the
    header schema marker, every iteration record's required keys, the
    per-rank array length against the live rank count (which ``shrink``
    events may lower mid-stream — stale rank columns are an error), and
    the presence of a closing summary record.
    """
    records, where = _load_jsonl(source)
    header = records[0]
    if header.get("type") != "header" or header.get("schema") != METRICS_SCHEMA:
        _fail(
            f"{where}: first record must be a header with schema "
            f"{METRICS_SCHEMA!r}, got {header.get('schema')!r}"
        )
    if not isinstance(header.get("p"), int) or header["p"] < 1:
        _fail(f"{where}: header 'p' must be a positive integer")
    live_p = header["p"]
    iterations: list[dict] = []
    events: list[dict] = []
    summary: dict | None = None
    for i, rec in enumerate(records[1:], start=2):
        kind = rec.get("type")
        if kind == "iteration":
            for key in _ITERATION_KEYS:
                if key not in rec:
                    _fail(f"{where}: iteration record {i} is missing {key!r}")
            if rec["p"] != live_p:
                _fail(
                    f"{where}: iteration {rec['iteration']} reports p={rec['p']} "
                    f"but the live rank count is {live_p}"
                )
            counts = rec["particles_per_rank"]
            if not isinstance(counts, list) or len(counts) != live_p:
                _fail(
                    f"{where}: iteration {rec['iteration']} has "
                    f"{len(counts) if isinstance(counts, list) else '??'} rank "
                    f"columns, expected {live_p} (stale ranks?)"
                )
            if not isinstance(rec["sar_decisions"], list):
                _fail(f"{where}: iteration {rec['iteration']} sar_decisions must be a list")
            for j, dec in enumerate(rec["sar_decisions"]):
                _check_decision(dec, f"{where}: iteration {rec['iteration']} decision {j}")
            iterations.append(rec)
        elif kind == "event":
            if rec.get("kind") == "shrink":
                live_p = int(rec["p"])
            events.append(rec)
        elif kind == "summary":
            summary = rec
            if "aggregates" not in rec:
                _fail(f"{where}: summary record is missing 'aggregates'")
        else:
            _fail(f"{where}: record {i} has unknown type {kind!r}")
    if summary is None:
        _fail(f"{where}: no closing summary record")
    return ParsedMetrics(header, iterations, events, summary)


# ----------------------------------------------------------------------
# service (batch) stream
# ----------------------------------------------------------------------
#: Accepted batch-stream schema versions.  The writer
#: (:data:`repro.service.telemetry.SERVICE_SCHEMA`) emits the newest;
#: ``/1`` streams from older runs stay readable.
_SERVICE_SCHEMAS = ("repro-service/1", "repro-service/2")

#: Event kinds scoped to one job — in ``/2`` these must carry the
#: correlation identity (``job_id`` + ``attempt``) next to ``job``.
_JOB_EVENT_KINDS = frozenset(
    {
        "job_launched",
        "job_progress",
        "job_done",
        "job_retry",
        "job_failed",
        "job_timeout",
        "heartbeat_lost",
        "worker_lost",
        "job_cancelled",
    }
)


#: event kind -> the batch counters one such event moves.  Every launch
#: follows a cache miss, so ``cache.misses`` is the launch count.
_EVENT_COUNTERS = {
    "job_launched": ("jobs.launched", "cache.misses"),
    "job_done": ("jobs.completed",),
    "job_retry": ("jobs.retries",),
    "job_failed": ("jobs.failed",),
    "job_cancelled": ("jobs.cancelled",),
    "job_timeout": ("jobs.timeouts",),
    "heartbeat_lost": ("heartbeats.lost",),
    "worker_lost": ("workers.lost",),
    "pool_shrink": ("pool.shrinks",),
    "cache_quarantine": ("cache.quarantined",),
}


def event_counters(record: dict) -> tuple[str, ...]:
    """The batch counters one stream event moves (each by one)."""
    names = _EVENT_COUNTERS.get(record.get("kind"), ())
    if record.get("kind") == "job_done" and record.get("cached"):
        names += ("cache.hits",)
    return names


class ParsedService:
    """Structured view of a validated service (batch) JSONL stream."""

    def __init__(self, header: dict, events: list[dict], summary: dict | None) -> None:
        self.header = header
        self.events = events
        self.summary = summary

    @property
    def schema(self) -> str:
        return str(self.header["schema"])

    @property
    def batch_id(self) -> str | None:
        """The batch identity (None on ``/1`` streams)."""
        return self.header.get("batch_id")

    def job_events(self) -> list[dict]:
        """The job-scoped subset of :attr:`events`, in stream order."""
        return [ev for ev in self.events if ev.get("kind") in _JOB_EVENT_KINDS]


def validate_service(source: str | Path | list[str]) -> ParsedService:
    """Validate a service batch stream; return a :class:`ParsedService`.

    ``source`` is a file path or a list of JSONL lines.  Checks the
    header schema marker (``repro-service/1`` or ``/2``), the monotonic
    non-negative event timestamps (the §5.8 contract), the per-event
    required fields — on ``/2``, the ``batch_id``/``started_at`` header
    fields and the ``job_id``/``attempt`` correlation stamp on every
    job-scoped event — and the presence of a closing summary.  A live
    stream being tailed mid-batch has no summary yet and is therefore
    *invalid* by design: completeness is part of the contract.
    """
    records, where = _load_jsonl(source)
    header = records[0]
    if header.get("type") != "header" or header.get("schema") not in _SERVICE_SCHEMAS:
        _fail(
            f"{where}: first record must be a header with schema in "
            f"{list(_SERVICE_SCHEMAS)}, got {header.get('schema')!r}"
        )
    v2 = header["schema"] == "repro-service/2"
    for key in ("jobs", "workers"):
        if not isinstance(header.get(key), int) or header[key] < 0:
            _fail(f"{where}: header {key!r} must be a non-negative integer")
    if v2:
        if not isinstance(header.get("batch_id"), str) or not header["batch_id"]:
            _fail(f"{where}: /2 header needs a non-empty 'batch_id'")
        if not isinstance(header.get("started_at"), (int, float)):
            _fail(f"{where}: /2 header needs a numeric 'started_at'")
    events: list[dict] = []
    summary: dict | None = None
    last_t = 0.0
    for i, rec in enumerate(records[1:], start=2):
        kind = rec.get("type")
        if kind == "event":
            if summary is not None:
                _fail(f"{where}: record {i} follows the summary record")
            name = rec.get("kind")
            if not isinstance(name, str) or not name:
                _fail(f"{where}: event record {i} needs a 'kind' name")
            t = rec.get("t")
            if not isinstance(t, (int, float)) or t < 0:
                _fail(f"{where}: event record {i} needs a non-negative numeric 't'")
            if t < last_t:
                _fail(
                    f"{where}: event record {i} has t={t} before the previous "
                    f"event's t={last_t} (timestamps must be monotonic)"
                )
            last_t = float(t)
            if name in _JOB_EVENT_KINDS:
                if not isinstance(rec.get("job"), str):
                    _fail(f"{where}: {name} record {i} needs a 'job' name")
                if v2:
                    if not isinstance(rec.get("job_id"), str) or not rec["job_id"]:
                        _fail(f"{where}: /2 {name} record {i} needs a 'job_id'")
                    attempt = rec.get("attempt")
                    if not isinstance(attempt, int) or attempt < 0:
                        _fail(
                            f"{where}: /2 {name} record {i} needs a "
                            f"non-negative integer 'attempt'"
                        )
            events.append(rec)
        elif kind == "summary":
            if summary is not None:
                _fail(f"{where}: duplicate summary record at {i}")
            if "aggregates" not in rec:
                _fail(f"{where}: summary record is missing 'aggregates'")
            summary = rec
        elif kind == "header":
            _fail(f"{where}: duplicate header record at {i}")
        else:
            _fail(f"{where}: record {i} has unknown type {kind!r}")
    if summary is None:
        _fail(f"{where}: no closing summary record (incomplete stream?)")
    return ParsedService(header, events, summary)
