"""Sharded, multiprocess execution of scenario sweeps.

The runner expands a :class:`~repro.sweep.matrix.ScenarioMatrix` into
independent jobs and executes them across ``N`` worker processes, with
three hard guarantees (docs/SWEEP.md):

* **Worker-count invariance.**  Every job builds its fleet, traffic,
  and simulation from RNGs seeded by ``hash(root_seed, job_key)`` alone,
  and the report orders jobs by key -- so ``--workers 4`` produces a
  report bytewise identical to ``--workers 1``.
* **Resumability.**  The report is rewritten (atomically) after every
  completed job; a rerun with ``resume=True`` skips the jobs already
  present and converges on the same bytes as an uninterrupted run.
* **Observability without interference.**  Each job runs under its own
  :class:`~repro.obs.metrics.MetricsRegistry`; workers ship the state
  home and the parent merges in sorted-key order, so ``--metrics-out``
  sees fleet-wide totals while the simulation itself stays bit-exact.

Wall-clock timings never enter the deterministic report: per-job timing
rows go to a sibling ``*.bench.json`` file whose layout follows the
:mod:`repro.bench` schema v7 case entries.

When tracing is active (``--trace-out``), every job runs under its own
:class:`~repro.obs.tracing.Tracer`; workers ship the per-job span tree
home over the result queue and the parent stitches the documents into
its tracer as ``subtraces`` in sorted job-key order -- one
``repro.obs.trace/v2`` document whose Chrome export renders each job as
its own pid row, byte-identical across worker counts modulo the
wall-clock readings inside.  Kernel profiles (``--profile-out``) ship
the same way: each job runs under its own
:class:`~repro.obs.profile.Profiler` and the parent merges them in
sorted-key order, so sweep-wide kernel totals are complete at any
worker count.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import units
from repro import bench
from repro.hardware.psu import SharingPolicy
from repro.ioutil import atomic_write_text
from repro.monitor.aggregate import AggregatingObserver
from repro.network import FleetTrafficModel, NetworkSimulation, SetAdminState
from repro.obs import metrics, profile, tracing
from repro.obs.logging import get_logger
from repro.sleep import Hypnos, HypnosConfig, plan_savings
from repro.sweep.matrix import (
    JobSpec,
    SLEEP_PRESETS,
    ScenarioMatrix,
    TRAFFIC_PRESETS,
    build_topology,
)

#: Report schema identifier for sweep reports.
SCHEMA = "repro.sweep/v1"

_log = get_logger("sweep.runner")

M_JOBS = metrics.counter(
    "netpower_sweep_jobs_total",
    "Sweep jobs by outcome (ok / error / skipped-by-resume)",
    labels=("status",))
M_WORKERS = metrics.gauge(
    "netpower_sweep_workers",
    "Worker processes used by the last sweep run")
M_JOB_SECONDS = metrics.histogram(
    "netpower_sweep_job_seconds",
    "Wall-clock duration of one sweep job (build + plan + run)",
    buckets=(0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0))


def _sleep_events(network, plan) -> List[SetAdminState]:
    """Turn a Hypnos :class:`SleepPlan` into admin-state toggle events.

    Both ends of a sleeping internal link are shut at the window start
    and unshut when a later window wakes the link; consecutive windows
    with the same sleeping set emit nothing.  Link ids are walked in
    sorted order so the event list (and thus the event-boundary column
    refreshes) is deterministic.
    """
    by_id = {link.link_id: link for link in network.internal_links()}
    events: List[SetAdminState] = []
    asleep: set = set()
    for window in plan.windows:
        target = set(window.sleeping)
        for link_id in sorted(target - asleep):
            link = by_id[link_id]
            for end in (link.a, link.b):
                events.append(SetAdminState(
                    at_s=window.t_start_s, hostname=end.hostname,
                    port_index=end.port_index, up=False))
        for link_id in sorted(asleep - target):
            link = by_id[link_id]
            for end in (link.a, link.b):
                events.append(SetAdminState(
                    at_s=window.t_start_s, hostname=end.hostname,
                    port_index=end.port_index, up=True))
        asleep = target
    return events


def run_job(spec: JobSpec, root_seed: int,
            attribution: bool = False) -> Tuple[Dict, Dict]:
    """Execute one scenario; returns ``(report_entry, bench_row)``.

    The report entry contains only values that are deterministic in
    ``(spec, root_seed)``; everything wall-clock lives in the bench row
    (a :mod:`repro.bench` schema-v7-shaped case entry).
    With ``attribution`` on, the entry gains an ``"attribution"`` key
    (the run's energy-ledger rollup); off adds no keys at all, keeping
    pre-attribution reports byte-identical.
    """
    t0 = time.perf_counter()
    seed = spec.seed(root_seed)
    with tracing.span("sweep.job", key=spec.key, seed=seed):
        network = build_topology(spec.topology,
                                 rng=np.random.default_rng(seed))
        policy = SharingPolicy(spec.psu)
        for router in network.routers.values():
            router.set_sharing_policy(policy)
        traffic = FleetTrafficModel(
            network, rng=np.random.default_rng(seed + 1),
            **TRAFFIC_PRESETS[spec.traffic])

        events: List[SetAdminState] = []
        sleep_section: Optional[Dict] = None
        sleep_config = SLEEP_PRESETS[spec.sleep]
        if sleep_config is not None:
            hypnos = Hypnos(network, traffic.matrix,
                            HypnosConfig(**sleep_config))
            plan = hypnos.plan(0.0, spec.duration_s)
            events = _sleep_events(network, plan)
            reference_w = network.total_wall_power_w()
            estimate = plan_savings(network, plan, reference_w)
            sleeping = plan.ever_sleeping()
            internal = network.internal_links()
            sleep_section = {
                "internal_links": len(internal),
                "ever_asleep": len(sleeping),
                "mean_sleep_fraction": round(
                    sum(plan.sleep_fraction(link.link_id)
                        for link in internal) / len(internal)
                    if internal else 0.0, 6),
                "saving_lower_w": round(estimate.lower_w, 6),
                "saving_upper_w": round(estimate.upper_w, 6),
                "saving_lower_fraction": round(estimate.lower_fraction, 8),
                "saving_upper_fraction": round(estimate.upper_fraction, 8),
            }

        sim = NetworkSimulation(network, traffic,
                                rng=np.random.default_rng(seed + 2))
        aggregate = sim.add_observer(AggregatingObserver())
        result = sim.run(duration_s=spec.duration_s, step_s=spec.step_s,
                         events=events, detailed_hosts=(),
                         attribution=attribution)

    fleet_shape = {
        "routers": len(network.routers),
        "ports": sum(len(r.ports) for r in network.routers.values()),
        "links": len(network.links),
    }
    n_steps = int(round(spec.duration_s / spec.step_s))
    entry = {
        "key": spec.key,
        "seed": seed,
        "scenario": {"topology": spec.topology, "traffic": spec.traffic,
                     "sleep": spec.sleep, "psu": spec.psu},
        "fleet": fleet_shape,
        "run": {"engine": sim.engine_name, "n_steps": n_steps,
                "step_s": spec.step_s, "duration_s": spec.duration_s,
                "events": len(events)},
        "aggregates": aggregate.to_dict(),
        "power_median_w": round(result.network_median_power_w(), 6),
        "sleep": sleep_section,
    }
    if result.ledger is not None:
        entry["attribution"] = result.ledger.to_dict()
    wall_s = time.perf_counter() - t0
    M_JOB_SECONDS.observe(wall_s)
    bench_row = {
        "name": spec.key,
        **fleet_shape,
        "seed": seed,
        "n_steps": n_steps,
        "step_s": spec.step_s,
        sim.engine_name: {
            "wall_s": round(wall_s, 4),
            "ms_per_step": round(units.s_to_ms(wall_s) / max(n_steps, 1), 4),
        },
    }
    return entry, bench_row


def _execute_job(spec: JobSpec, root_seed: int,
                 collect_metrics: bool, attribution: bool,
                 capture_trace: bool = False,
                 trace_id: Optional[str] = None,
                 capture_profile: bool = False,
                 ) -> Tuple[str, str, object, object, Optional[Dict],
                            Optional[Dict],
                            Optional[profile.Profiler]]:
    """One job, optionally under a private registry; never raises.

    With ``capture_trace``, the job runs under a fresh per-job
    :class:`~repro.obs.tracing.Tracer` labelled with the job key and
    worker OS pid, and the exported span tree rides home as the sixth
    tuple slot -- the same code path inline and in a worker process, so
    the stitched document's *shape* does not depend on worker count.
    With ``capture_profile``, it likewise runs under a fresh per-job
    :class:`~repro.obs.profile.Profiler` that rides home as the seventh
    slot for the parent to merge, so ``--profile-out`` sees sweep-wide
    kernel totals at any worker count.
    """
    try:
        tracer: Optional[tracing.Tracer] = None
        scope = _KEEP_TRACER
        if capture_trace:
            tracer = tracing.Tracer(
                trace_id=trace_id,
                process={"job": spec.key, "os_pid": os.getpid()})
            scope = tracing.use_tracer(tracer)
        prof = profile.Profiler() if capture_profile else None
        prof_scope = (profile.use_profiler(prof) if capture_profile
                      else _KEEP_TRACER)
        with scope:
            with prof_scope:
                if collect_metrics:
                    with metrics.use_registry(
                            metrics.MetricsRegistry()) as registry:
                        entry, bench_row = run_job(spec, root_seed,
                                                   attribution)
                    state = registry.snapshot_state()
                else:
                    entry, bench_row = run_job(spec, root_seed,
                                               attribution)
                    state = None
        trace_doc = tracer.to_dict() if tracer is not None else None
        return ("ok", spec.key, entry, bench_row, state, trace_doc,
                prof)
    except Exception:
        return ("error", spec.key, traceback.format_exc(), None, None,
                None, None)


class _KeepTracerContext:
    """No-op stand-in for ``use_tracer`` when not capturing traces."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_KEEP_TRACER = _KeepTracerContext()


def _worker_main(task_queue, result_queue, root_seed: int,
                 collect_metrics: bool, attribution: bool,
                 capture_trace: bool = False,
                 trace_id: Optional[str] = None,
                 capture_profile: bool = False) -> None:
    """Worker process loop: pull specs until the ``None`` sentinel."""
    while True:
        spec = task_queue.get()
        if spec is None:
            return
        result_queue.put(
            _execute_job(spec, root_seed, collect_metrics,
                         attribution, capture_trace, trace_id,
                         capture_profile))


def _atomic_write(path: Path, text: str) -> None:
    """Crash-safe file replace (the resume state must never be torn)."""
    atomic_write_text(path, text)


def _report_document(matrix: ScenarioMatrix, root_seed: int,
                     completed: Dict[str, Dict],
                     attribution: bool = False) -> Dict:
    document = {
        "schema": SCHEMA,
        "generated_by": "netpower sweep",
        "root_seed": root_seed,
        "matrix": matrix.to_dict(),
        "n_jobs": matrix.n_jobs,
        "jobs": [completed[key] for key in sorted(completed)],
    }
    # Only stamped when on: attribution-off reports keep the exact
    # pre-attribution byte layout.
    if attribution:
        document["attribution"] = True
    return document


def _write_report(output: Path, document: Dict) -> None:
    _atomic_write(output, json.dumps(document, indent=2) + "\n")


def load_previous_jobs(output: Path, matrix: ScenarioMatrix,
                       root_seed: int,
                       attribution: bool = False) -> Dict[str, Dict]:
    """Completed job entries from an existing report (resume support).

    Missing or unreadable reports mean a fresh start; a *readable*
    report whose matrix or seed differ raises -- silently
    grafting jobs from a different sweep onto this one would corrupt
    the determinism guarantee resume exists to preserve.
    """
    if not output.exists():
        return {}
    try:
        previous = json.loads(output.read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return {}
    if not isinstance(previous, dict) or previous.get("schema") != SCHEMA:
        return {}
    for field, expected in (("root_seed", root_seed),
                            ("matrix", matrix.to_dict())):
        if previous.get(field) != expected:
            raise ValueError(
                f"cannot resume into {output}: its {field} "
                f"({previous.get(field)!r}) differs from this run's "
                f"({expected!r}); use a fresh output path")
    if bool(previous.get("attribution", False)) != attribution:
        raise ValueError(
            f"cannot resume into {output}: it was written with "
            f"attribution={bool(previous.get('attribution', False))}, "
            f"this run has attribution={attribution}; use a fresh "
            f"output path")
    jobs = previous.get("jobs")
    if not isinstance(jobs, list):
        return {}
    return {job["key"]: job for job in jobs
            if isinstance(job, dict) and isinstance(job.get("key"), str)}


def _write_bench_rows(bench_output: Path, root_seed: int,
                      step_s: float, rows: Dict[str, Dict]) -> None:
    """Per-job timing rows as a :mod:`repro.bench` schema v7 report.

    Re-run jobs replace their previous rows, kept rows survive (the
    same merge contract as ``repro.bench.run_benchmarks``), and the
    wall-clock numbers stay out of the deterministic sweep report.
    """
    merged = bench.previous_cases(bench_output)
    merged.update(rows)
    document = {
        "schema": bench.SCHEMA,
        "generated_by": "netpower sweep",
        "seed": root_seed,
        "step_s": step_s,
        "cases": [merged[name] for name in sorted(merged)],
    }
    _atomic_write(bench_output, json.dumps(document, indent=2) + "\n")


def default_bench_output(output: Path) -> Path:
    """Where a sweep's timing rows land: ``<report stem>.bench.json``."""
    return output.with_name(output.stem + ".bench.json")


def run_sweep(matrix: ScenarioMatrix,
              root_seed: int = 7,
              workers: int = 1,
              jobs: Optional[Sequence[JobSpec]] = None,
              resume: bool = False,
              output: Optional[Path] = None,
              bench_output: Optional[Path] = None,
              attribution: bool = False,
              progress: Optional[Callable[[str], None]] = None) -> Dict:
    """Run (part of) a scenario matrix and return the report document.

    Parameters
    ----------
    matrix:
        The declarative scenario matrix.
    root_seed:
        Root of every per-job seed derivation.
    workers:
        Worker processes; ``1`` runs jobs inline (same code path, same
        bytes).  Capped at the number of jobs to run.
    jobs:
        Explicit job subset (e.g. one shard from
        :func:`repro.sweep.matrix.shard_jobs`); defaults to the full
        expansion of ``matrix``.
    resume:
        Skip jobs whose keys already sit in the report at ``output``.
    output:
        Report path.  Rewritten atomically after every completed job;
        required when ``resume`` is set.
    bench_output:
        Timing-row path (default: next to ``output``; timings are
        dropped entirely when both are ``None``).
    attribution:
        Attach the energy attribution ledger to every job and include
        its per-job rollup in the report.  The report gains a top-level
        ``"attribution": true`` stamp; resume refuses to mix reports
        written with a different setting.
    progress:
        Callback for one-line progress messages (completion order, so
        only the report -- not the callback stream -- is deterministic).
    """
    from repro.sweep.matrix import expand

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if resume and output is None:
        raise ValueError("resume requires an output path to resume from")
    say = progress if progress is not None else (lambda message: None)
    job_list = list(jobs) if jobs is not None else expand(matrix)
    output = Path(output) if output is not None else None

    completed: Dict[str, Dict] = {}
    if resume and output is not None:
        completed = load_previous_jobs(output, matrix, root_seed,
                                       attribution)
        kept = [job.key for job in job_list if job.key in completed]
        if kept:
            M_JOBS.labels(status="skipped").inc(len(kept))
            say(f"resume: {len(kept)} of {len(job_list)} job(s) already "
                f"in {output}")
    to_run = [job for job in job_list if job.key not in completed]
    n_workers = max(1, min(workers, len(to_run)))
    collect_metrics = metrics.enabled()
    # Captured parent-side: forked workers inherit a *copy* of the
    # parent tracer, so span trees must ship home explicitly.
    capture_trace = tracing.enabled()
    trace_id = f"sweep-{root_seed}" if capture_trace else None
    capture_profile = profile.enabled()

    bench_rows: Dict[str, Dict] = {}
    metric_states: Dict[str, Dict] = {}
    job_traces: Dict[str, Dict] = {}
    job_profiles: Dict[str, profile.Profiler] = {}
    failures: Dict[str, str] = {}

    def absorb(status: str, key: str, payload, bench_row, state,
               trace_doc, job_prof) -> None:
        if status != "ok":
            failures[key] = payload
            M_JOBS.labels(status="error").inc()
            say(f"job {key} FAILED")
            return
        completed[key] = payload
        bench_rows[key] = bench_row
        if state is not None:
            metric_states[key] = state
        if trace_doc is not None:
            job_traces[key] = trace_doc
        if job_prof is not None:
            job_profiles[key] = job_prof
        M_JOBS.labels(status="ok").inc()
        if output is not None:
            _write_report(output, _report_document(
                matrix, root_seed, completed, attribution))
        aggregates = payload["aggregates"]
        say(f"job {key}: mean {aggregates['mean_power_w']:,.0f} W over "
            f"{aggregates['steps']} steps "
            f"[{len(completed)}/{len(job_list)}]")

    # Worker count stays out of the span attributes on purpose: it is
    # already the netpower_sweep_workers gauge, and omitting it keeps
    # the stitched trace byte-identical across --workers settings
    # (modulo the wall-clock readings).
    with tracing.span("sweep.run", n_jobs=len(job_list),
                      to_run=len(to_run), root_seed=root_seed):
        if n_workers == 1 or len(to_run) <= 1:
            for spec in to_run:
                absorb(*_execute_job(spec, root_seed,
                                     collect_metrics, attribution,
                                     capture_trace, trace_id,
                                     capture_profile))
        else:
            context = multiprocessing.get_context()
            task_queue = context.Queue()
            result_queue = context.Queue()
            for spec in to_run:
                task_queue.put(spec)
            for _ in range(n_workers):
                task_queue.put(None)
            procs = [
                context.Process(
                    target=_worker_main,
                    args=(task_queue, result_queue, root_seed,
                          collect_metrics, attribution, capture_trace,
                          trace_id, capture_profile),
                    daemon=True)
                for _ in range(n_workers)
            ]
            for proc in procs:
                proc.start()
            try:
                for _ in range(len(to_run)):
                    absorb(*result_queue.get())
            finally:
                for proc in procs:
                    proc.join(timeout=30.0)
                    if proc.is_alive():
                        proc.terminate()

        # Merge worker metrics in sorted-key order: counters and
        # histograms are order-free, gauges become deterministic.
        registry = metrics.get_registry()
        if registry is not None:
            for key in sorted(metric_states):
                registry.merge_state(metric_states[key])
        # After the merge: worker snapshots carry every declared gauge
        # (including this one, at zero) and gauges merge last-writer-wins.
        M_WORKERS.set(n_workers)
        # Stitch per-job span trees into the parent tracer in sorted
        # job-key order -- the document's structure is then a function
        # of the jobs alone, not of worker count or completion order.
        tracer = tracing.get_tracer()
        if tracer is not None and job_traces:
            tracer.trace_id = trace_id
            tracer.subtraces.extend(
                job_traces[key] for key in sorted(job_traces))
        # Merge per-job kernel profiles the same way, so --profile-out
        # reports sweep-wide totals regardless of worker count.
        session_prof = profile.get_profiler()
        if session_prof is not None:
            for key in sorted(job_profiles):
                session_prof.merge(job_profiles[key])

    if bench_rows and (bench_output is not None or output is not None):
        bench_path = (Path(bench_output) if bench_output is not None
                      else default_bench_output(output))
        _write_bench_rows(bench_path, root_seed, matrix.step_s, bench_rows)

    document = _report_document(matrix, root_seed, completed,
                                attribution)
    if output is not None:
        _write_report(output, document)
    _log.info("sweep complete",
              extra={"jobs": len(job_list), "ran": len(to_run),
                     "failed": len(failures), "workers": n_workers})
    if failures:
        details = "\n\n".join(
            f"[{key}]\n{trace}" for key, trace in sorted(failures.items()))
        raise RuntimeError(
            f"{len(failures)} sweep job(s) failed "
            f"({len(completed)} completed and saved):\n{details}")
    return document
