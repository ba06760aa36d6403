"""Tests for the fleet-observability layer (repro.obs, DESIGN.md §5.8).

Pins the observability contract:

* **correlation** — every artifact a batch produces (service stream,
  per-job metrics/trace files, result payloads) carries the same
  ``{batch_id, job_id, attempt}`` stamp and joins with zero orphans,
  across retries and cache hits (the 6-job contract test);
* **zero-cost when off** — profiling + telemetry off ⇒ results, virtual
  clocks and op counts are bit-identical to the plain run;
* **export** — Prometheus snapshots render, parse, and round-trip;
* **live view** — the stream reader tolerates torn lines and the
  ``repro top`` fold/render reflects the wire truth;
* **schema** — ``validate_service`` accepts both stream generations and
  rejects malformed streams.
"""

import io
import json
import time

import pytest

from repro.obs import (
    BatchView,
    PhaseProfiler,
    aggregate_batch,
    maybe_section,
    parse_prom_text,
    read_stream,
    render_batch_rollup,
    render_prom_text,
    render_top,
    top_loop,
    write_prom_snapshot,
)
from repro.pic import Simulation
from repro.pic.simulation import config_from_dict
from repro.service import (
    JobSpec,
    Scheduler,
    derive_batch_id,
    job_artifact_stem,
    render_report,
)
from repro.telemetry import (
    MetricsRegistry,
    TelemetrySchemaError,
    validate_metrics,
    validate_service,
)

BASE = dict(nx=16, ny=8, nparticles=256, p=4)


def _config(**kw):
    return config_from_dict(dict(BASE, seed=3, **kw))


# ----------------------------------------------------------------------
# profiler unit tests
# ----------------------------------------------------------------------
class TestPhaseProfiler:
    def test_sections_nest_and_fold_with_self_time(self):
        prof = PhaseProfiler()
        prof.push("scatter")
        with prof.section("deposit"):
            time.sleep(0.002)
        with prof.section("reduce"):
            pass
        time.sleep(0.001)
        prof.pop("scatter")

        lines = prof.folded_lines()
        stacks = {ln.rsplit(" ", 1)[0]: int(ln.rsplit(" ", 1)[1]) for ln in lines}
        assert "scatter;deposit" in stacks
        assert "scatter;reduce" in stacks
        assert "scatter" in stacks  # parent self-time survives as its own frame
        assert all(v >= 0 for v in stacks.values())
        assert stacks["scatter;deposit"] >= 1000  # slept 2ms -> >=1000 us

    def test_mismatched_pop_raises(self):
        prof = PhaseProfiler()
        prof.push("gather")
        with pytest.raises(RuntimeError):
            prof.pop("scatter")

    def test_maybe_section_none_is_a_passthrough(self):
        with maybe_section(None, "anything"):
            x = 1
        assert x == 1

    def test_merge_worker_samples_lands_under_workers_root(self):
        prof = PhaseProfiler()
        with prof.section("field"):
            pass
        prof.merge_worker_samples({"scatter": [3, 0.25]})
        stacks = dict(
            ln.rsplit(" ", 1) for ln in prof.folded_lines()
        )
        assert "workers;scatter" in stacks
        assert int(stacks["workers;scatter"]) == 250000  # 0.25 s in us

    def test_export_folded_writes_per_root_and_combined(self, tmp_path):
        prof = PhaseProfiler()
        with prof.section("scatter"):
            with prof.section("deposit"):
                pass
        with prof.section("gather"):
            pass
        paths = prof.export_folded(tmp_path)
        names = {p.name for p in paths}
        assert "profile.folded" in names
        assert "scatter.folded" in names and "gather.folded" in names
        combined = (tmp_path / "profile.folded").read_text()
        assert "scatter;deposit " in combined


# ----------------------------------------------------------------------
# the zero-cost contract (profiling edition)
# ----------------------------------------------------------------------
class TestZeroCostWhenOff:
    def test_profiled_run_is_bit_identical(self):
        plain = Simulation(_config())
        r_plain = plain.run(6)

        observed = Simulation(_config())
        observed.enable_telemetry()
        observed.enable_profiling()
        r_observed = observed.run(6)

        assert observed.vm.elapsed() == plain.vm.elapsed()
        assert observed.vm.ops.as_dict() == plain.vm.ops.as_dict()
        d_plain, d_observed = r_plain.to_dict(), r_observed.to_dict()
        d_observed.pop("telemetry", None)
        assert d_observed == d_plain
        # the profiler actually measured something
        assert observed.profiler is not None
        assert observed.profiler.samples

    def test_save_profile_emits_folded_files(self, tmp_path):
        sim = Simulation(_config())
        sim.enable_profiling()
        sim.run(4)
        paths = sim.save_profile(tmp_path)
        assert any(p.name == "profile.folded" for p in paths)
        text = (tmp_path / "profile.folded").read_text()
        assert "scatter;" in text  # kernel sections, not just phases


# ----------------------------------------------------------------------
# Prometheus export
# ----------------------------------------------------------------------
class TestProm:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("jobs.completed").inc(4)
        reg.gauge("queue.depth").set(2)
        h = reg.histogram("job.wall")
        h.observe(0.5)
        h.observe(1.5)
        return reg

    def test_render_parse_round_trip(self):
        text = render_prom_text(self._registry().snapshot(), labels={"batch": "b1"})
        parsed = parse_prom_text(text)
        assert parsed["repro_jobs_completed"]["kind"] == "counter"
        key = (("batch", "b1"),)
        assert parsed["repro_jobs_completed"]["samples"][key] == 4.0
        assert parsed["repro_queue_depth"]["samples"][key] == 2.0
        assert parsed["repro_job_wall_count"]["samples"][key] == 2.0
        assert parsed["repro_job_wall_sum"]["samples"][key] == 2.0
        assert parsed["repro_job_wall_mean"]["samples"][key] == 1.0

    def test_never_set_gauge_and_empty_histogram_are_skipped(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g")  # declared, never set
        reg.histogram("h")  # declared, no observations
        text = render_prom_text(reg.snapshot())
        parsed = parse_prom_text(text)
        assert "repro_c" in parsed
        assert "repro_g" not in parsed
        assert parsed["repro_h_count"]["samples"][()] == 0.0
        assert "repro_h_min" not in parsed  # no min/max/mean without data

    def test_write_prom_snapshot_creates_dir_and_parses(self, tmp_path):
        path = write_prom_snapshot(tmp_path / "metrics", self._registry())
        assert path.name == "repro.prom"
        parse_prom_text(path.read_text())  # must not raise

    def test_parser_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_prom_text("orphan_sample 1\n")
        with pytest.raises(ValueError):
            parse_prom_text("# TYPE x counter\nx notanumber\n")


# ----------------------------------------------------------------------
# stream schema validation
# ----------------------------------------------------------------------
def _stream_v2(batch_id="batch-abc", *, close=True):
    lines = [
        json.dumps(
            {
                "type": "header",
                "schema": "repro-service/2",
                "jobs": 1,
                "workers": 1,
                "batch_id": batch_id,
                "started_at": 1700000000.0,
            }
        ),
        json.dumps(
            {
                "type": "event",
                "kind": "job_launched",
                "t": 0.1,
                "job": "j0",
                "job_id": "k" * 64,
                "attempt": 0,
                "queue_depth": 0,
            }
        ),
        json.dumps(
            {
                "type": "event",
                "kind": "job_done",
                "t": 0.5,
                "job": "j0",
                "job_id": "k" * 64,
                "attempt": 0,
                "cached": False,
                "wall": 0.4,
            }
        ),
    ]
    if close:
        lines.append(json.dumps({"type": "summary", "aggregates": {}}))
    return lines


class TestValidateService:
    def test_accepts_v2(self):
        parsed = validate_service(_stream_v2())
        assert parsed.schema == "repro-service/2"
        assert parsed.batch_id == "batch-abc"
        assert len(parsed.job_events()) == 2

    def test_accepts_v1_without_correlation(self):
        lines = [
            json.dumps(
                {"type": "header", "schema": "repro-service/1", "jobs": 0, "workers": 1}
            ),
            json.dumps({"type": "summary", "aggregates": {}}),
        ]
        assert validate_service(lines).schema == "repro-service/1"

    def test_rejects_missing_summary(self):
        with pytest.raises(TelemetrySchemaError):
            validate_service(_stream_v2(close=False))

    def test_rejects_missing_batch_id_on_v2(self):
        lines = _stream_v2()
        head = json.loads(lines[0])
        del head["batch_id"]
        lines[0] = json.dumps(head)
        with pytest.raises(TelemetrySchemaError):
            validate_service(lines)

    def test_rejects_non_monotonic_t(self):
        lines = _stream_v2()
        ev = json.loads(lines[2])
        ev["t"] = 0.01  # earlier than the previous event
        lines[2] = json.dumps(ev)
        with pytest.raises(TelemetrySchemaError):
            validate_service(lines)

    def test_rejects_job_event_without_job_id_on_v2(self):
        lines = _stream_v2()
        ev = json.loads(lines[1])
        del ev["job_id"]
        lines[1] = json.dumps(ev)
        with pytest.raises(TelemetrySchemaError):
            validate_service(lines)


# ----------------------------------------------------------------------
# live view: reader, fold, render
# ----------------------------------------------------------------------
class TestTop:
    def test_read_stream_leaves_torn_line_for_next_round(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_bytes(b'{"type": "header", "jobs": 1}\n{"type": "ev')
        records, offset = read_stream(path)
        assert [r["type"] for r in records] == ["header"]
        # writer completes the line -> the retry picks it up
        with path.open("ab") as fh:
            fh.write(b'ent", "kind": "job_launched", "t": 0.1, "job": "a"}\n')
        records, offset = read_stream(path, offset=offset)
        assert [r["kind"] for r in records] == ["job_launched"]

    def test_batch_view_folds_lifecycle(self):
        view = BatchView()
        view.apply_all([json.loads(s) for s in _stream_v2()])
        assert view.finished
        assert view.batch_id == "batch-abc"
        row = view.jobs["j0"]
        assert row["state"] == "done"
        assert row["wall"] == 0.4
        assert view.cache_hits == 0

    def test_render_top_shows_progress_and_footer(self):
        view = BatchView()
        view.apply(
            {"type": "header", "schema": "repro-service/2", "jobs": 2,
             "workers": 2, "batch_id": "batch-x", "started_at": 0.0}
        )
        view.apply(
            {"type": "event", "kind": "job_progress", "t": 0.2, "job": "a",
             "job_id": "k" * 64, "attempt": 0, "iteration": 3, "total": 6,
             "imbalance": 1.25}
        )
        text = render_top(view)
        assert "batch-x" in text
        assert "3/6" in text
        assert "1.25" in text
        assert "batch complete" not in text
        view.apply({"type": "summary", "aggregates": {}})
        assert "batch complete" in render_top(view)

    def test_top_loop_once_on_finished_stream(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text("\n".join(_stream_v2()) + "\n")
        buf = io.StringIO()
        view = top_loop(path, once=True, out=buf)
        assert view.finished
        assert "batch complete" in buf.getvalue()

    def test_top_loop_once_missing_stream(self, tmp_path):
        buf = io.StringIO()
        view = top_loop(tmp_path / "nope.jsonl", once=True, out=buf)
        assert not view.finished
        assert "waiting" in buf.getvalue()


# ----------------------------------------------------------------------
# report module consolidation (satellite: analysis -> telemetry)
# ----------------------------------------------------------------------
class TestReportConsolidation:
    def test_telemetry_package_exports(self):
        import repro.telemetry as t

        assert callable(t.format_table) and callable(t.ascii_series)


# ----------------------------------------------------------------------
# the 6-job correlation contract
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def observed_batch(tmp_path_factory):
    """6-job batch with one forced retry and one in-batch cache hit,
    full observability on.  Several tests assert against it."""
    root = tmp_path_factory.mktemp("obs")
    jobs = [
        JobSpec(config=dict(BASE, seed=0), iterations=6, name="j0"),
        JobSpec(config=dict(BASE, seed=1), iterations=6, name="j1"),
        JobSpec(config=dict(BASE, seed=2), iterations=6, name="j2"),
        JobSpec(config=dict(BASE, seed=3), iterations=6, name="j3"),
        # crash attempt 0 before iteration 3 -> forced retry, resumes a1
        JobSpec(
            config=dict(BASE, seed=4),
            iterations=6,
            name="j4-retry",
            chaos={"kind": "crash", "at_iteration": 3, "attempts": [0]},
        ),
        # duplicate of j0's config -> served from the in-batch cache
        JobSpec(config=dict(BASE, seed=0), iterations=6, name="j5-dup"),
    ]
    scheduler = Scheduler(
        workers=2,
        cache=root / "cache",
        workdir=root / "work",
        retries=2,
        heartbeat_timeout=5.0,
        checkpoint_every=2,
        obs_dir=root / "obs",
        prom_dir=root / "prom",
    )
    report = scheduler.run(jobs)
    return {"root": root, "jobs": jobs, "report": report, "scheduler": scheduler}


class TestCorrelationContract:
    def test_batch_completes_with_retry_and_cache_hit(self, observed_batch):
        report = observed_batch["report"]
        assert report["ok"], report["counters"]
        assert report["counters"]["completed"] == 6
        assert report["counters"]["retries"] >= 1
        assert report["counters"]["cache_hits"] >= 1

    def test_batch_id_is_content_derived(self, observed_batch):
        report = observed_batch["report"]
        assert report["batch_id"] == derive_batch_id(observed_batch["jobs"])
        assert report["batch_id"].startswith("batch-")

    def test_stream_validates_as_v2_with_correlation(self, observed_batch):
        parsed = validate_service(observed_batch["root"] / "obs" / "service.jsonl")
        assert parsed.schema == "repro-service/2"
        assert parsed.batch_id == observed_batch["report"]["batch_id"]
        for ev in parsed.job_events():
            assert ev["job_id"]
            assert ev["attempt"] >= 0

    def test_stream_header_has_absolute_start_and_monotonic_t(self, observed_batch):
        parsed = validate_service(observed_batch["root"] / "obs" / "service.jsonl")
        assert parsed.header["started_at"] > 1e9  # epoch seconds, not relative
        ts = [ev["t"] for ev in parsed.events]
        assert ts == sorted(ts)
        assert all(t >= 0 for t in ts)

    def test_retry_job_reaches_attempt_one_on_the_wire(self, observed_batch):
        parsed = validate_service(observed_batch["root"] / "obs" / "service.jsonl")
        attempts = [
            ev["attempt"]
            for ev in parsed.job_events()
            if ev.get("job") == "j4-retry" and ev["kind"] == "job_launched"
        ]
        assert attempts == [0, 1]

    def test_every_metrics_artifact_joins(self, observed_batch):
        report = observed_batch["report"]
        obs = observed_batch["root"] / "obs"
        metrics = sorted(obs.glob("job-*.metrics.jsonl"))
        assert metrics  # executed jobs saved artifacts
        for path in metrics:
            parsed = validate_metrics(path)
            corr = parsed.header.get("correlation")
            assert corr is not None, path.name
            assert corr["batch_id"] == report["batch_id"]
            assert path.name.startswith(
                job_artifact_stem(corr["job_id"], corr["attempt"])
            )

    def test_retried_attempt_saved_artifacts(self, observed_batch):
        # attempt 0 was SIGKILLed before saving; attempt 1 must have saved
        report = observed_batch["report"]
        rec = next(j for j in report["jobs"] if j["name"] == "j4-retry")
        stem = job_artifact_stem(rec["key"], 1)
        obs = observed_batch["root"] / "obs"
        assert (obs / f"{stem}.metrics.jsonl").exists()
        assert (obs / f"{stem}.trace.json").exists()

    def test_result_payloads_carry_correlation(self, observed_batch):
        report = observed_batch["report"]
        for rec in observed_batch["scheduler"]._records:
            corr = rec.payload.get("correlation") if rec.payload else None
            assert corr is not None, rec.name
            assert corr["batch_id"] == report["batch_id"]
            assert corr["job_id"] == rec.key

    def test_aggregate_batch_joins_everything_no_orphans(self, observed_batch):
        rollup = aggregate_batch(observed_batch["root"] / "obs")
        assert rollup["schema"] == "repro-batch-rollup/1"
        assert rollup["batch_id"] == observed_batch["report"]["batch_id"]
        assert rollup["correlation"]["orphans"] == []
        assert rollup["correlation"]["joined"] == rollup["correlation"]["metrics_files"]
        assert rollup["counters"]["completed"] == 6
        assert rollup["counters"]["retries"] >= 1
        assert rollup["counters"]["cache_hits"] >= 1
        text = render_batch_rollup(rollup)
        assert "j4-retry" in text and "ORPHAN" not in text

    def test_aggregate_batch_flags_orphans(self, observed_batch, tmp_path):
        import shutil

        obs = tmp_path / "obs"
        shutil.copytree(observed_batch["root"] / "obs", obs)
        # forge a metrics file whose correlation points at another batch
        victim = sorted(obs.glob("job-*.metrics.jsonl"))[0]
        lines = victim.read_text().splitlines()
        head = json.loads(lines[0])
        head["correlation"]["batch_id"] = "batch-intruder00"
        lines[0] = json.dumps(head)
        victim.write_text("\n".join(lines) + "\n")
        rollup = aggregate_batch(obs)
        assert any(
            o["file"] == victim.name for o in rollup["correlation"]["orphans"]
        )
        assert "ORPHAN" in render_batch_rollup(rollup)

    def test_prom_snapshot_written_and_parses(self, observed_batch):
        path = observed_batch["root"] / "prom" / "repro-batch.prom"
        assert path.exists()
        parsed = parse_prom_text(path.read_text())
        key = (("batch", observed_batch["report"]["batch_id"]),)
        assert parsed["repro_jobs_completed"]["samples"][key] == 6.0
        assert parsed["repro_cache_hits"]["samples"][key] >= 1.0

    def test_render_report_sources_columns_from_stream(self, observed_batch):
        events, _ = read_stream(observed_batch["root"] / "obs" / "service.jsonl")
        text = render_report(observed_batch["report"], events=events)
        rows = {
            ln.split()[0]: ln for ln in text.splitlines() if ln.strip().startswith("j")
        }
        assert " yes " in rows["j5-dup"]  # cache column from job_done.cached
        assert " 2 " in rows["j4-retry"]  # attempts column from launch count

    def test_top_view_of_the_finished_batch(self, observed_batch):
        buf = io.StringIO()
        view = top_loop(
            observed_batch["root"] / "obs" / "service.jsonl", once=True, out=buf
        )
        assert view.finished
        assert view.cache_hits >= 1
        assert view.jobs["j4-retry"]["state"] == "done"
        assert "batch complete" in buf.getvalue()
