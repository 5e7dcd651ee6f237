"""Benchmark harness for the fleet-simulation engine.

Times the columnar engine (:mod:`repro.network.engine`) on fleets of
increasing size, optionally a second run with the energy ledger
attached, and writes a machine-readable report
(``BENCH_simulation.json`` by default).

Run it as a module::

    python -m repro.bench --quick          # small fleet only, seconds
    python -m repro.bench                  # small + medium
    python -m repro.bench --cases large    # 214 routers x 10k steps
    python -m repro.bench --cases xl xxl   # synthetic 1k / 10k fleets

or through the CLI: ``repro bench --quick``.  Agreement with the
per-object reference loop is a test (``tests/object_oracle.py``), not a
benchmark row.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import units
from repro.network import (
    FleetConfig,
    FleetTrafficModel,
    NetworkSimulation,
    build_switch_like_network,
    generate_synth_network,
    synth_config,
)
from repro.obs import profile, tracing

#: Simulation step used by every benchmark case (the SNMP poll period).
STEP_S = 300.0

#: Report schema identifier, bumped on layout changes.  v2 added the
#: per-phase timings (build / run per engine, cross-check) taken from
#: the observability spans.  v3 records the seed on every case entry and
#: merges subset runs into an existing report instead of discarding the
#: cases that were not re-run.  v4 adds the synthetic-topology cases:
#: per-case engine lists (``object``/``vector`` entries are ``null`` for
#: engines that did not run), columnar memory-footprint fields, the SNMP
#: poll period, and a per-1k-router ms/step normalization.  v5 adds the
#: per-case ``attribution`` block (a second vector run with the energy
#: ledger attached: ms/step, the delta against the plain vector run, the
#: overhead fraction, and the ledger's conservation residual) on cases
#: flagged for it; unflagged cases carry ``null``.  v6 adds a
#: ``profile`` block to every engine entry -- per-kernel call counts and
#: cumulative/self milliseconds from the kernel profiler attached around
#: each timed run -- which the regression sentinel (``--compare``,
#: :func:`compare_reports`) diffs against a baseline report.  v7 drops
#: the object-engine rows: every case times the one engine under
#: ``vector``, and ``engines``, ``object``, ``speedup``,
#: ``total_power_max_rel_err``, ``object_skipped`` and the crosscheck
#: phase are gone.
SCHEMA = "repro.bench.simulation/v7"

#: Schema identifier on ``BENCH_history.jsonl`` trajectory lines.
HISTORY_SCHEMA = "repro.bench.history/v1"

#: Default regression tolerance: a metric more than this fraction above
#: its baseline fails the comparison (0.15 trips on a 20% slowdown with
#: margin for timer noise; CI passes a looser value on shared runners).
DEFAULT_TOLERANCE = 0.15

#: Kernels whose baseline cumulative time is below this floor are
#: skipped by the comparison -- sub-millisecond kernels are timer noise.
DEFAULT_MIN_KERNEL_MS = 5.0


@dataclass(frozen=True)
class BenchCase:
    """One fleet size / duration combination to time."""

    name: str
    n_steps: int
    #: Paper fleet to build (mutually exclusive with ``synth``).
    config: Optional[FleetConfig] = None
    #: Synthetic preset name (:data:`repro.network.SYNTH_PRESETS`).
    synth: Optional[str] = None
    #: Demands drawn by the traffic model (None = model default).
    n_demands: Optional[int] = None
    #: SNMP poll period override (None = every 300 s step).
    snmp_period_s: Optional[float] = None
    #: Also time a vector run with the energy ledger attached and
    #: record the attribution overhead block.
    attribution: bool = False


def _scaled_counts(factor: int) -> tuple:
    return tuple((name, count * factor)
                 for name, count in FleetConfig.model_counts)


#: The benchmark suite, smallest first.  ``small`` finishes in seconds
#: and is what ``--quick`` (and the smoke test) runs; ``large`` is the
#: 2x-fleet, 10k-step case; the synthetic rungs (``xl``/``xxl``/``xxxl``)
#: exercise the generator from :mod:`repro.network.synth` at
#: 1k/10k/100k routers.  ``xxxl`` is
#: opt-in (never in :data:`DEFAULT_CASES`): pass ``--cases xxxl``.
CASES: Dict[str, BenchCase] = {
    "small": BenchCase(
        name="small",
        config=FleetConfig(
            model_counts=(
                ("8201-32FH", 2),
                ("NCS-55A1-24H", 2),
                ("NCS-55A1-24Q6H-SS", 2),
                ("ASR-920-24SZ-M", 4),
                ("N540-24Z8Q2C-M", 2),
            ),
            n_regional_pops=2,
            core_core_links=2,
        ),
        n_steps=300,
        n_demands=40,
    ),
    "medium": BenchCase(
        name="medium",
        config=FleetConfig(),
        n_steps=2000,
    ),
    "large": BenchCase(
        name="large",
        config=FleetConfig(
            model_counts=_scaled_counts(2),
            n_regional_pops=26,
            core_core_links=8,
        ),
        n_steps=10000,
        attribution=True,
    ),
    "xl": BenchCase(
        name="xl",
        synth="synth-1k",
        n_steps=600,
    ),
    "xxl": BenchCase(
        name="xxl",
        synth="synth-10k",
        n_steps=2000,
        snmp_period_s=3600.0,
        attribution=True,
    ),
    "xxxl": BenchCase(
        name="xxxl",
        synth="synth-100k",
        n_steps=50,
        n_demands=400,
        snmp_period_s=7200.0,
    ),
}

DEFAULT_CASES = ("small", "medium")


def _case_routers(case: BenchCase) -> int:
    """Router count a case will build, for the progress line."""
    if case.synth is not None:
        return synth_config(case.synth).n_routers
    config = case.config if case.config is not None else FleetConfig()
    return config.n_routers


def _build_simulation(case: BenchCase, seed: int) -> NetworkSimulation:
    """A fresh fleet + traffic + simulation from three derived seeds."""
    if case.synth is not None:
        network = generate_synth_network(
            synth_config(case.synth), rng=np.random.default_rng(seed))
    else:
        network = build_switch_like_network(
            case.config, rng=np.random.default_rng(seed))
    kwargs = {} if case.n_demands is None else {"n_demands": case.n_demands}
    traffic = FleetTrafficModel(
        network, rng=np.random.default_rng(seed + 1), **kwargs)
    return NetworkSimulation(
        network, traffic, rng=np.random.default_rng(seed + 2))


def run_case(case: BenchCase, seed: int,
             steps_override: Optional[int] = None) -> Dict:
    """Time a case and return its report entry.

    Timing comes from :mod:`repro.obs.tracing` spans -- one ``bench.case``
    root with ``bench.build`` / ``bench.run`` children (a second pair
    for the ledger run) -- so a ``--trace-out`` run shows the same
    numbers the report records.  A private tracer is installed when none
    is active, keeping the span durations available either way.
    """
    if tracing.enabled():
        return _run_case_traced(case, seed, steps_override)
    with tracing.use_tracer(tracing.Tracer()):
        return _run_case_traced(case, seed, steps_override)


def _timing_entry(wall_s: float, n_steps: int, routers: int,
                  prof: Optional[profile.Profiler] = None) -> Dict:
    """Timing dict for one timed run.

    ``ms_per_step`` is wall time over the step count, so one-time costs
    (fleet build happens outside this span, but columnar init and the
    final sensor export do not) amortize across the run the same way
    they do in production sweeps.  ``ms_per_step_per_1k_routers``
    normalizes by fleet size -- the number that must hold roughly flat
    (or shrink) up the ladder for scaling to be sublinear.  With a
    profiler, the entry carries a per-kernel ``profile`` block (calls,
    cumulative and self milliseconds) the regression sentinel diffs.
    """
    ms_per_step = units.s_to_ms(wall_s) / n_steps
    entry = {
        "wall_s": round(wall_s, 4),
        "ms_per_step": round(ms_per_step, 4),
        "ms_per_step_per_1k_routers": round(
            ms_per_step * units.KILO / routers, 4),
    }
    if prof is not None:
        entry["profile"] = {
            name: {
                "calls": stats["calls"],
                "cum_ms": round(units.s_to_ms(stats["cum_s"]), 3),
                "self_ms": round(units.s_to_ms(stats["self_s"]), 3),
            }
            for name, stats in prof.to_dict()["kernels"].items()
        }
    return entry


def _run_case_traced(case: BenchCase, seed: int,
                     steps_override: Optional[int] = None) -> Dict:
    n_steps = steps_override if steps_override else case.n_steps
    duration_s = n_steps * STEP_S
    snmp_period_s = float(case.snmp_period_s if case.snmp_period_s is not None
                          else units.SNMP_POLL_PERIOD_S)

    phases: Dict = {}
    session_prof = profile.get_profiler()
    with tracing.span("bench.case", case=case.name, n_steps=n_steps,
                      seed=seed):
        with tracing.span("bench.build", engine="vector") as build_span:
            sim = _build_simulation(case, seed)
        fleet_shape = {
            "routers": len(sim.network.routers),
            "ports": sum(len(r.ports) for r in sim.network.routers.values()),
            "links": len(sim.network.links),
        }
        # Each timed run gets a private profiler so its per-kernel
        # totals land in the report entry; stats merge into the session
        # profiler (--profile-out) afterwards.
        prof = profile.Profiler()
        with tracing.span("bench.run", engine="vector") as run_span:
            with profile.use_profiler(prof):
                result = sim.run(duration_s=duration_s, step_s=STEP_S,
                                 snmp_period_s=snmp_period_s)
        if session_prof is not None:
            session_prof.merge(prof)
        timing = _timing_entry(run_span.duration_s, n_steps,
                               fleet_shape["routers"], prof)
        phases["vector"] = {
            "build_s": round(build_span.duration_s, 4),
            "run_s": round(run_span.duration_s, 4),
        }
        assert sim.last_engine is not None
        footprint = sim.last_engine.state.memory_footprint()
        # ru_maxrss is KiB on Linux; a process-lifetime high-water mark,
        # so it includes the object fleet and earlier cases.
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        memory = {
            "state_bytes": int(footprint["bytes_total"]),
            "state_bytes_per_router": round(
                footprint["bytes_per_router"], 1),
            "peak_rss_bytes": int(peak_rss),
        }

        attribution: Optional[Dict] = None
        if case.attribution:
            # A second vector run with the energy ledger attached; the
            # delta against the plain run is the attribution overhead.
            with tracing.span("bench.build", engine="vector+ledger"):
                sim = _build_simulation(case, seed)
            # Private profiler here too, so the attribution delta
            # compares two runs carrying the same profiling overhead.
            attr_prof = profile.Profiler()
            with tracing.span("bench.run",
                              engine="vector+ledger") as attr_span:
                with profile.use_profiler(attr_prof):
                    attr_result = sim.run(duration_s=duration_s,
                                          step_s=STEP_S,
                                          snmp_period_s=snmp_period_s,
                                          attribution=True)
            if session_prof is not None:
                session_prof.merge(attr_prof)
            ms_on = units.s_to_ms(attr_span.duration_s) / n_steps
            ms_off = timing["ms_per_step"]
            ledger = attr_result.ledger
            assert ledger is not None
            attribution = {
                "ms_per_step": round(ms_on, 4),
                "ms_per_step_delta": round(ms_on - ms_off, 4),
                "overhead_fraction": (round(ms_on / ms_off - 1.0, 4)
                                      if ms_off > 0 else None),
                "max_residual_w": ledger.max_residual_w,
                "conserved": ledger.conserved(),
                "power_bitwise_identical": bool(np.array_equal(
                    attr_result.total_power.values,
                    result.total_power.values)),
            }
            phases["attribution_s"] = round(attr_span.duration_s, 4)
    return {
        "name": case.name,
        **fleet_shape,
        "seed": seed,
        "n_steps": n_steps,
        "step_s": STEP_S,
        "snmp_period_s": snmp_period_s,
        "vector": timing,
        "memory": memory,
        "phases": phases,
        "attribution": attribution,
    }


def previous_cases(output: Path) -> Dict[str, Dict]:
    """Case entries from an existing same-schema report at ``output``.

    Empty when the file is missing, unreadable, or from another schema
    version -- a subset run must never graft entries whose layout (or
    semantics) no longer matches onto a fresh report.  Shared with the
    sweep runner, which writes its per-job timing rows in this schema.
    """
    if not output.exists():
        return {}
    try:
        previous = json.loads(output.read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return {}
    if not isinstance(previous, dict) or previous.get("schema") != SCHEMA:
        return {}
    cases = previous.get("cases")
    if not isinstance(cases, list):
        return {}
    return {c["name"]: c for c in cases
            if isinstance(c, dict) and isinstance(c.get("name"), str)}


def _compare_metric(regressions: List[Dict], improvements: List[Dict],
                    case: str, metric: str,
                    base_value: Optional[float],
                    cur_value: Optional[float],
                    tolerance: float) -> int:
    """Classify one metric pair; returns 1 if it was comparable."""
    if not base_value or cur_value is None:
        return 0
    ratio = cur_value / base_value
    entry = {
        "case": case, "metric": metric,
        "baseline": base_value, "current": cur_value,
        "ratio": round(ratio, 4),
    }
    if ratio > 1.0 + tolerance:
        regressions.append(entry)
    elif ratio < 1.0 / (1.0 + tolerance):
        improvements.append(entry)
    return 1


def compare_reports(current: Dict, baseline: Dict,
                    tolerance: float = DEFAULT_TOLERANCE,
                    min_kernel_ms: float = DEFAULT_MIN_KERNEL_MS) -> Dict:
    """Diff a bench report against a baseline report.

    Compares ``ms_per_step`` and ``ms_per_step_per_1k_routers`` per
    case, plus per-kernel cumulative milliseconds from the
    v6 ``profile`` blocks (kernels whose baseline total is under
    ``min_kernel_ms`` are skipped as timer noise).  A metric more than
    ``tolerance`` (fractional) above its baseline is a regression; more
    than the inverse below, an improvement.  Cases or kernels present
    on only one side are ignored -- the sentinel guards what both runs
    measured.

    Raises :class:`ValueError` when either report is from a different
    schema version; a layout change invalidates the comparison.
    """
    for label, report in (("current", current), ("baseline", baseline)):
        if report.get("schema") != SCHEMA:
            raise ValueError(
                f"{label} report schema {report.get('schema')!r} != "
                f"{SCHEMA!r}; regenerate the baseline")
    base_cases = {c["name"]: c for c in baseline.get("cases", [])}
    regressions: List[Dict] = []
    improvements: List[Dict] = []
    checked = 0
    for entry in current.get("cases", []):
        base = base_cases.get(entry["name"])
        if base is None:
            continue
        cur_t, base_t = entry.get("vector"), base.get("vector")
        if not cur_t or not base_t:
            continue
        for metric in ("ms_per_step", "ms_per_step_per_1k_routers"):
            checked += _compare_metric(
                regressions, improvements, entry["name"], metric,
                base_t.get(metric), cur_t.get(metric), tolerance)
        cur_prof = cur_t.get("profile") or {}
        base_prof = base_t.get("profile") or {}
        for kernel in sorted(set(cur_prof) & set(base_prof)):
            base_ms = base_prof[kernel].get("cum_ms")
            if base_ms is None or base_ms < min_kernel_ms:
                continue
            checked += _compare_metric(
                regressions, improvements, entry["name"],
                f"kernel:{kernel}", base_ms,
                cur_prof[kernel].get("cum_ms"), tolerance)
    return {
        "tolerance": tolerance,
        "min_kernel_ms": min_kernel_ms,
        "checked": checked,
        "regressions": regressions,
        "improvements": improvements,
    }


def render_comparison(comparison: Dict, stream: object) -> None:
    """Print a comparison result as human-readable lines."""
    for kind in ("regressions", "improvements"):
        for item in comparison[kind]:
            arrow = "REGRESSION" if kind == "regressions" else "improved"
            print(f"{arrow}: [{item['case']}] "
                  f"{item['metric']}: {item['baseline']} -> "
                  f"{item['current']} ({item['ratio']:.2f}x)",
                  file=stream)
    print(f"compared {comparison['checked']} metrics at "
          f"+/-{comparison['tolerance']:.0%} tolerance: "
          f"{len(comparison['regressions'])} regressions, "
          f"{len(comparison['improvements'])} improvements",
          file=stream)


def _history_entry(report: Dict) -> Dict:
    """One compact trajectory line for ``BENCH_history.jsonl``.

    Per case: the two normalized step timings plus per-kernel
    cumulative milliseconds.  No wall-clock date -- the file is
    append-only, so line order *is* the trajectory, and the surrounding
    commit supplies the calendar.
    """
    cases: Dict[str, Dict] = {}
    for entry in report.get("cases", []):
        timing = entry.get("vector")
        if not timing:
            continue
        cases[entry["name"]] = {"vector": {
            "ms_per_step": timing.get("ms_per_step"),
            "ms_per_step_per_1k_routers": timing.get(
                "ms_per_step_per_1k_routers"),
            "kernel_cum_ms": {
                name: stats.get("cum_ms")
                for name, stats in (timing.get("profile") or {}).items()},
        }}
    return {"schema": HISTORY_SCHEMA, "seed": report.get("seed"),
            "cases": cases}


def append_history(history_path: Path, report: Dict) -> Path:
    """Append the report's trajectory line to ``history_path``."""
    line = json.dumps(_history_entry(report), sort_keys=True)
    with history_path.open("a") as fh:
        fh.write(line + "\n")
    return history_path


def _summary_line(entry: Dict) -> str:
    """One human line per finished case."""
    timing = entry["vector"]
    line = (f"{timing['wall_s']:.2f}s "
            f"({timing['ms_per_step']:.2f} ms/step)")
    memory = entry.get("memory")
    if memory:
        line += (f", columnar state "
                 f"{memory['state_bytes'] / units.MEGA:.1f} MB")
    attribution = entry.get("attribution")
    if attribution:
        line += (f", ledger +{attribution['ms_per_step_delta']:.2f} ms/step "
                 f"({attribution['overhead_fraction']:+.1%})")
    return line


def run_benchmarks(case_names: Sequence[str], seed: int,
                   output: Path,
                   steps_override: Optional[int] = None,
                   stream: Optional[object] = None,
                   history: Optional[Path] = None) -> Dict:
    """Run the named cases, print a summary line each, write the report.

    A subset run (``--quick``, ``--cases small``) merges into an existing
    report at ``output``: re-run cases replace their previous entries,
    the rest are kept, and the result stays in suite order -- so timing
    one case never silently discards the ``large`` numbers from the last
    full run.  With ``history``, a compact trajectory line is appended
    there as well (``BENCH_history.jsonl`` by convention).
    """
    stream = stream if stream is not None else sys.stdout
    merged = previous_cases(output)
    kept = [name for name in merged if name not in case_names]
    entries: List[Dict] = []
    for name in case_names:
        case = CASES[name]
        print(f"[{name}] {_case_routers(case)} routers, "
              f"{steps_override or case.n_steps} steps ...",
              file=stream, flush=True)
        entry = run_case(case, seed, steps_override=steps_override)
        entries.append(entry)
        merged[name] = entry
        print(f"[{name}] {_summary_line(entry)}", file=stream, flush=True)
    order = {name: i for i, name in enumerate(CASES)}
    report = {
        "schema": SCHEMA,
        "generated_by": "python -m repro.bench",
        "seed": seed,
        "step_s": STEP_S,
        "cases": sorted(merged.values(),
                        key=lambda c: (order.get(c["name"], len(order)),
                                       c["name"])),
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    if history is not None:
        append_history(history, report)
        print(f"trajectory appended to {history}", file=stream)
    if kept:
        print(f"kept previous entries for: {', '.join(sorted(kept))}",
              file=stream)
    print(f"report written to {output}", file=stream)
    return report


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark the simulation engine on fleets of growing "
                    "size.")
    parser.add_argument("--quick", action="store_true",
                        help="run only the small case (a few seconds)")
    parser.add_argument("--cases", nargs="+", choices=sorted(CASES),
                        metavar="CASE",
                        help=f"cases to run (default: {' '.join(DEFAULT_CASES)}"
                             "; choices: %(choices)s)")
    parser.add_argument("--steps", type=int, default=None,
                        help="override the per-case step count")
    parser.add_argument("--seed", type=int, default=7,
                        help="base RNG seed (default: %(default)s)")
    parser.add_argument("--output", "-o", type=Path,
                        default=Path("BENCH_simulation.json"),
                        help="report path (default: %(default)s)")
    parser.add_argument("--compare", type=Path, default=None,
                        metavar="BASELINE",
                        help="after running, diff the report against this "
                             "baseline report; exit 1 on regression")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="fractional slowdown tolerated by --compare "
                             "(default: %(default)s)")
    parser.add_argument("--min-kernel-ms", type=float,
                        default=DEFAULT_MIN_KERNEL_MS,
                        help="skip kernels whose baseline total is below "
                             "this in --compare (default: %(default)s)")
    parser.add_argument("--history", type=Path, default=None,
                        help="trajectory file to append to (default: "
                             "BENCH_history.jsonl next to the report; "
                             "'-' disables)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point for the engine benchmark harness."""
    args = _parser().parse_args(argv)
    if args.quick:
        case_names: Sequence[str] = ("small",)
    elif args.cases:
        case_names = args.cases
    else:
        case_names = DEFAULT_CASES
    if args.steps is not None and args.steps <= 0:
        print("--steps must be positive", file=sys.stderr)
        return 2
    parent = args.output.parent
    if parent and not parent.is_dir():
        # Fail before the benchmarks run, not after minutes of timing.
        print(f"output directory {parent} does not exist", file=sys.stderr)
        return 2
    if args.tolerance <= 0:
        print("--tolerance must be positive", file=sys.stderr)
        return 2
    baseline: Optional[Dict] = None
    if args.compare is not None:
        # Fail on a bad baseline before the benchmarks run.
        try:
            baseline = json.loads(args.compare.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            print(f"cannot read baseline {args.compare}: {exc}",
                  file=sys.stderr)
            return 2
        if (not isinstance(baseline, dict)
                or baseline.get("schema") != SCHEMA):
            print(f"baseline {args.compare} is not a {SCHEMA} report",
                  file=sys.stderr)
            return 2
    if args.history is None:
        history: Optional[Path] = args.output.parent / "BENCH_history.jsonl"
    elif str(args.history) == "-":
        history = None
    else:
        history = args.history
    report = run_benchmarks(case_names, seed=args.seed, output=args.output,
                            steps_override=args.steps, history=history)
    if baseline is not None:
        comparison = compare_reports(report, baseline,
                                     tolerance=args.tolerance,
                                     min_kernel_ms=args.min_kernel_ms)
        render_comparison(comparison, sys.stdout)
        if comparison["regressions"]:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
