"""Run one workload for a fixed time and turn what it did into metrics.

Closed loop, one client: each operation starts when the previous one
has been checked.  An operation is a fixed-length simulation run for
the simulation workloads and one cold batch plus its warm resubmission
for the sweep.  Timings are medians over the operations of a run.
``attempted``/``failed`` count simulation runs, or for the sweep the
jobs of both batches; a job that succeeds after its planned retry passes.

With tracing on, operations alternate untraced and traced; the
untraced ones give the base of ``trace_overhead_frac``, the traced ones
every per-layer metric.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import gate
import tracing
from workloads import SimWorkload, SweepWorkload

#: (name, unit) of every metric printed without tracing, in order
END_TO_END = [
    ("setup_s", "s"),
    ("iter_ms", "ms"),
    ("batch_s", "s"),
    ("peak_rss_mb", "MB"),
]

#: (name, unit) of every metric printed by a traced run, in order
PER_LAYER = [
    ("pic.scatter_ms.p50", "ms"),
    ("pic.scatter_ms.p95", "ms"),
    ("pic.field_solve_ms.p50", "ms"),
    ("pic.field_solve_ms.p95", "ms"),
    ("pic.gather_push_ms.p50", "ms"),
    ("pic.gather_push_ms.p95", "ms"),
    ("pic.step_ms.p50", "ms"),
    ("pic.step_ms.p95", "ms"),
    ("pic.scatter_share", "frac"),
    ("core.redistribute_ms.p50", "ms"),
    ("core.redistribute_ms.max", "ms"),
    ("core.redistribute_calls", "count"),
    ("core.redistribute_share", "frac"),
    ("parallel_exec.scatter_ms", "ms"),
    ("parallel_exec.gather_push_ms", "ms"),
    ("parallel_exec.pool_rebuild_ms", "ms"),
    ("parallel_exec.main_self_ms", "ms"),
    ("parallel_exec.worker_cpu_frac", "frac"),
    ("machine.scatter_msgs_max", "count"),
    ("machine.scatter_bytes_max", "bytes"),
    ("machine.redistribution_bytes", "bytes"),
    ("machine.ops_total", "count"),
    ("checkpoint.write_ms", "ms"),
    ("checkpoint.read_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.writes", "count"),
    ("service.job_wall_s.p50", "s"),
    ("service.job_wall_s.max", "s"),
    ("service.retries", "count"),
    ("service.cache_hit_ms", "ms"),
    ("telemetry.bytes_written", "bytes"),
    ("trace_overhead_frac", "frac"),
    ("failed_frac", "frac"),
]

#: job-list + Scheduler constructions timed per sweep round
SWEEP_SETUP_REPEATS = 5


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _pct(values, q: float) -> float:
    values = list(values)
    return float(np.percentile(values, q)) if values else 0.0


# ----------------------------------------------------------------------
# process accounting from /proc
# ----------------------------------------------------------------------
def vm_hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of a live process, in KiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU seconds used so far by ``pids``."""
    tick = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / tick


def self_peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ----------------------------------------------------------------------
# simulation workloads
# ----------------------------------------------------------------------
def derive_sim_reference(wl: SimWorkload, seed: int) -> dict:
    """Reference observables from the workload's reference execution path."""
    from repro.pic.simulation import Simulation, config_from_dict

    cfg = config_from_dict(wl.sim_config(seed))
    with Simulation(cfg, workers=wl.reference_workers) as sim:
        result = sim.run(wl.iterations)
        failures = gate.check_invariants(sim, cfg.nparticles, gate.initial_charge(sim))
        if failures:
            raise RuntimeError(f"{wl.name} seed {seed}: reference run broke: {failures}")
        return gate.sim_observables(sim, result)


def sim_op(wl: SimWorkload, seed: int, reference: dict, tracer=None) -> dict:
    """Build, run and check one simulation; timings and counts of the op."""
    from repro.parallel_exec import live_worker_pids
    from repro.pic.simulation import Simulation, config_from_dict

    cfg = config_from_dict(wl.sim_config(seed))
    op: dict = {"failures": [], "spans": []}
    gc.collect()
    if tracer is not None:
        tracer.install()
        mark = tracer.mark()
    sim = None
    try:
        t0 = time.perf_counter()
        sim = Simulation(cfg, workers=wl.workers)
        t1 = time.perf_counter()
        pids = live_worker_pids()
        cpu0 = cpu_seconds(pids)
        result = sim.run(wl.iterations)
        t2 = time.perf_counter()
        cpu1 = cpu_seconds(pids)
        op.update(
            setup_s=t1 - t0,
            iter_ms=(t2 - t1) * 1e3 / wl.iterations,
            batch_s=t2 - t0,
            worker_cpu_frac=(cpu1 - cpu0) / ((t2 - t1) * len(pids)) if pids else 0.0,
            worker_hwm_kb=sum(vm_hwm_kb(pid) for pid in pids),
            scatter_msgs_max=max(r.scatter_max_msgs for r in result.records),
            scatter_bytes_max=max(r.scatter_max_bytes for r in result.records),
            ops_total=float(sum(sim.vm.ops.as_dict().values())),
        )
        op["failures"] = gate.check_sim(
            sim, result, reference, cfg.nparticles, gate.initial_charge(sim)
        )
    except Exception as exc:  # noqa: BLE001 - a raising run is a failed operation
        op["failures"].append(f"{type(exc).__name__}: {exc}")
    finally:
        if sim is not None:
            sim.close()
        if tracer is not None:
            tracer.uninstall()
            op["spans"] = tracing.since(tracer.spans, mark)
    return op


def run_sim(wl: SimWorkload, seed: int, seconds: float, trace: bool,
            out_dir: Path, reference: dict) -> dict:
    """Operations of ``wl`` for ``seconds``; returns the run's result dict."""
    tracer = tracing.Tracer(out_dir) if trace else None
    ops: list[dict] = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(ops) % 2 == 1
        ops.append(sim_op(wl, seed, reference, tracer if traced else None))
        if time.perf_counter() >= deadline and (not trace or len(ops) >= 2):
            break
    good = [op for op in ops if not op["failures"]]
    failed = len(ops) - len(good)
    if not trace:
        peak_kb = self_peak_kb() + max((op["worker_hwm_kb"] for op in good), default=0)
        metrics = {
            "setup_s": _median(op["setup_s"] for op in good),
            "iter_ms": _median(op["iter_ms"] for op in good),
            "batch_s": _median(op["batch_s"] for op in good),
            "peak_rss_mb": peak_kb / 1024.0,
        }
    else:
        plain = [op for op in good if not op["spans"]]
        traced_ops = [op for op in good if op["spans"]]
        metrics = span_metrics([op["spans"] for op in traced_ops])
        base = _median(op["iter_ms"] for op in plain)
        metrics.update({
            "parallel_exec.worker_cpu_frac": _median(op["worker_cpu_frac"] for op in traced_ops),
            "machine.scatter_msgs_max": _median(op["scatter_msgs_max"] for op in traced_ops),
            "machine.scatter_bytes_max": _median(op["scatter_bytes_max"] for op in traced_ops),
            "machine.ops_total": _median(op["ops_total"] for op in traced_ops),
            "trace_overhead_frac": (
                _median(op["iter_ms"] for op in traced_ops) / base - 1.0 if base else 0.0
            ),
        })
        write_trace(out_dir, wl.name, seed, [op["spans"] for op in ops])
    return finish(metrics, trace, len(ops), failed, [f for op in ops for f in op["failures"]])


# ----------------------------------------------------------------------
# the job-service sweep
# ----------------------------------------------------------------------
def derive_sweep_reference(wl: SweepWorkload, seed: int) -> dict:
    """Each job's uninterrupted in-process run, keyed by job name."""
    from repro.pic.simulation import Simulation, config_from_dict

    refs = {}
    for job in wl.job_dicts(seed):
        cfg = config_from_dict(job["config"])
        with Simulation(cfg) as sim:
            result = sim.run(job["iterations"])
            failures = gate.check_invariants(sim, cfg.nparticles, gate.initial_charge(sim))
            if failures:
                raise RuntimeError(f"{wl.name} {job['name']}: reference run broke: {failures}")
            refs[job["name"]] = gate.job_observables(json.loads(json.dumps(result.to_dict())))
    return refs


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def sweep_round(wl: SweepWorkload, seed: int, refs: dict, round_dir: Path,
                tracer=None) -> dict:
    """One cold batch and its warm resubmission, both checked."""
    from repro.service import JobSpec, Scheduler, canonical_json, payload_digest

    job_dicts = wl.job_dicts(seed)
    nparticles = wl.config["nparticles"]
    crash_job = wl.crash.get("policy")
    out: dict = {"failures": [], "jobs": 0, "failed_jobs": 0, "spans": [], "setup_s": []}

    def scheduler(obs: str):
        return Scheduler(workers=wl.job_workers, cache=round_dir / "cache",
                         obs_dir=round_dir / obs)

    def fail(msgs: list[str]) -> None:
        out["jobs"] += 1
        if msgs:
            out["failed_jobs"] += 1
            out["failures"].extend(msgs)

    for _ in range(SWEEP_SETUP_REPEATS):
        t0 = time.perf_counter()
        jobs = [JobSpec.from_dict(d) for d in job_dicts]
        sched = scheduler("obs")
        out["setup_s"].append(time.perf_counter() - t0)
    gc.collect()
    if tracer is not None:
        tracer.spill_dir = round_dir / "spans"
        tracer.spill_dir.mkdir(parents=True)
        tracer.install()
        mark = tracer.mark()
    try:
        t0 = time.perf_counter()
        report = sched.run(jobs)
        out["batch_s"] = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
            own = tracing.since(tracer.spans, mark)
            out["spans"] = own + tracer.spilled(first=len(own))

    cold = {}
    series_msgs, series_bytes = [], []
    for rec in report["jobs"]:
        name = rec["name"]
        msgs = []
        want = 2 if name == crash_job else 1
        if rec["state"] != "done":
            msgs.append(f"{name}: state {rec['state']} ({rec.get('error')})")
        elif rec["attempts"] != want:
            msgs.append(f"{name}: {rec['attempts']} attempts, planned {want}")
        payload = sched.cache.get(rec["key"])
        msgs += gate.check_job(name, payload, refs[name], nparticles)
        if payload is not None:
            cold[rec["key"]] = (payload_digest(payload), rec)
            series_msgs += payload["series"]["scatter_max_msgs"]
            series_bytes += payload["series"]["scatter_max_bytes"]
        fail(msgs)
    walls = [rec["wall"] for rec in report["jobs"]]
    out.update(
        iter_ms=sum(walls) * 1e3 / (wl.iterations * len(walls)),
        job_walls=walls,
        retries=report["counters"]["retries"],
        telemetry_bytes=_dir_bytes(round_dir / "obs"),
        scatter_msgs_max=max(series_msgs, default=0),
        scatter_bytes_max=max(series_bytes, default=0),
    )

    warm_jobs = [JobSpec.from_dict(d) for d in job_dicts]
    warm = scheduler("obs-warm")
    t0 = time.perf_counter()
    warm_report = warm.run(warm_jobs)
    out["cache_hit_ms"] = (time.perf_counter() - t0) * 1e3
    for rec in warm_report["jobs"]:
        name = rec["name"]
        msgs = []
        if rec["state"] != "done" or not rec["cached"]:
            msgs.append(f"{name}: warm resubmit was not a cache hit")
        payload = warm.cache.get(rec["key"])
        if rec["key"] not in cold or payload is None:
            msgs.append(f"{name}: no cold payload to compare")
        else:
            digest, cold_rec = cold[rec["key"]]
            if payload_digest(payload) != digest:
                msgs.append(f"{name}: cached payload changed after the warm resubmit")
            for part in ("totals", "final_state"):
                if canonical_json(rec.get(part)) != canonical_json(cold_rec.get(part)):
                    msgs.append(f"{name}: warm {part} differ from the cold batch")
        fail(msgs)
    return out


def run_sweep(wl: SweepWorkload, seed: int, seconds: float, trace: bool,
              out_dir: Path, refs: dict) -> dict:
    """Rounds of the sweep for ``seconds``; returns the run's result dict."""
    tracer = tracing.Tracer(out_dir) if trace else None
    rounds: list[dict] = []
    deadline = time.perf_counter() + seconds
    work = out_dir / f"work-{os.getpid()}"
    try:
        while True:
            traced = trace and len(rounds) % 2 == 1
            round_dir = work / f"round{len(rounds)}"
            try:
                rounds.append(sweep_round(wl, seed, refs, round_dir,
                                          tracer if traced else None))
            except Exception as exc:  # noqa: BLE001 - a raising batch fails all its jobs
                n = 2 * len(wl.policies)
                rounds.append({"failures": [f"{type(exc).__name__}: {exc}"], "jobs": n,
                               "failed_jobs": n, "spans": []})
            shutil.rmtree(round_dir, ignore_errors=True)
            if time.perf_counter() >= deadline and (not trace or len(rounds) >= 2):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    good = [r for r in rounds if "batch_s" in r]
    attempted = sum(r["jobs"] for r in rounds)
    failed = sum(r["failed_jobs"] for r in rounds)
    if not trace:
        children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "setup_s": _median(s for r in good for s in r["setup_s"]),
            "iter_ms": _median(r["iter_ms"] for r in good),
            "batch_s": _median(r["batch_s"] for r in good),
            # rusage keeps only the largest reaped child, and at most
            # job_workers of them are alive at once
            "peak_rss_mb": (self_peak_kb() + wl.job_workers * children_kb) / 1024.0,
        }
    else:
        plain = [r for r in good if not r["spans"]]
        traced_rounds = [r for r in good if r["spans"]]
        metrics = span_metrics([r["spans"] for r in traced_rounds])
        base = _median(r["iter_ms"] for r in plain)
        walls = [w for r in traced_rounds for w in r["job_walls"]]
        metrics.update({
            "machine.scatter_msgs_max": _median(r["scatter_msgs_max"] for r in traced_rounds),
            "machine.scatter_bytes_max": _median(r["scatter_bytes_max"] for r in traced_rounds),
            "machine.ops_total": _median(
                sum(s["attrs"].get("ops_total", 0.0) for s in r["spans"]
                    if s["name"] == "sim.result")
                for r in traced_rounds
            ),
            "service.job_wall_s.p50": _median(walls),
            "service.job_wall_s.max": max(walls, default=0.0),
            "service.retries": _median(r["retries"] for r in traced_rounds),
            "service.cache_hit_ms": _median(r["cache_hit_ms"] for r in good),
            "telemetry.bytes_written": _median(r["telemetry_bytes"] for r in traced_rounds),
            "trace_overhead_frac": (
                _median(r["iter_ms"] for r in traced_rounds) / base - 1.0 if base else 0.0
            ),
        })
        write_trace(out_dir, wl.name, seed, [r["spans"] for r in rounds])
    return finish(metrics, trace, attempted, failed, [f for r in rounds for f in r["failures"]])


# ----------------------------------------------------------------------
# per-layer numbers from spans
# ----------------------------------------------------------------------
def span_metrics(per_op: list[list[dict]]) -> dict:
    """Layer metrics from the spans of each traced operation.

    Counts are per operation (the median over operations); timings pool
    every call of every traced operation.
    """
    def calls(name):
        return [d * 1e3 for spans in per_op for d in tracing.durations(spans, name)]

    def per_op_total(name, attr=None):
        return _median(
            sum(s["attrs"].get(attr, 0) if attr else 1 for s in spans if s["name"] == name)
            for spans in per_op
        )

    run_ms = sum(calls("sim.run"))
    scatter, redistribute = calls("pic.scatter"), calls("core.redistribute")
    main_self = []
    for spans in per_op:
        selfs = tracing.self_times(spans)
        offloaded = {s["parent"] for s in spans if s["name"] == "parallel_exec.scatter"}
        main_self += [selfs[i] * 1e3 for i in offloaded if spans[i]["name"] == "pic.scatter"]
    out = {}
    for layer in ("scatter", "field_solve", "gather_push", "step"):
        values = calls(f"pic.{layer}")
        out[f"pic.{layer}_ms.p50"] = _median(values)
        out[f"pic.{layer}_ms.p95"] = _pct(values, 95)
    out.update({
        "pic.scatter_share": sum(scatter) / run_ms if run_ms else 0.0,
        "core.redistribute_ms.p50": _median(redistribute),
        "core.redistribute_ms.max": max(redistribute, default=0.0),
        "core.redistribute_calls": per_op_total("core.redistribute"),
        "core.redistribute_share": sum(redistribute) / run_ms if run_ms else 0.0,
        "parallel_exec.scatter_ms": _median(calls("parallel_exec.scatter")),
        "parallel_exec.gather_push_ms": _median(calls("parallel_exec.gather_push")),
        "parallel_exec.pool_rebuild_ms": _median(calls("parallel_exec.pool_rebuild")),
        "parallel_exec.main_self_ms": _median(main_self),
        "machine.redistribution_bytes": per_op_total("core.redistribute", "bytes"),
        "checkpoint.write_ms": _median(calls("checkpoint.write")),
        "checkpoint.read_ms": _median(calls("checkpoint.read")),
        "checkpoint.bytes": _median(
            s["attrs"]["bytes"] for spans in per_op for s in spans
            if s["name"] == "checkpoint.write" and "bytes" in s["attrs"]
        ),
        "checkpoint.writes": per_op_total("checkpoint.write"),
    })
    return out


def write_trace(out_dir: Path, workload: str, seed: int, per_op: list[list[dict]]) -> Path:
    """Write the run's spans, one list per operation, when the run ends."""
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "operations": per_op}))
    return path


def finish(metrics: dict, trace: bool, attempted: int, failed: int,
           failures: list[str]) -> dict:
    """The result object: every metric of the mode, by name with its unit.

    A layer that does no work on the workload reports 0.
    """
    metrics = dict(metrics, failed_frac=failed / attempted if attempted else 1.0)
    names = PER_LAYER if trace else END_TO_END
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in names},
        "failures": failures[:20],
    }


def run(workload, seed: int, seconds: float, trace: bool, out_dir: Path,
        reference: dict) -> dict:
    """Dispatch on the workload's kind."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if isinstance(workload, SweepWorkload):
        return run_sweep(workload, seed, seconds, trace, out_dir, reference)
    return run_sim(workload, seed, seconds, trace, out_dir, reference)
