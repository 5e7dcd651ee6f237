"""The simulation workloads: ``sim-10k-day`` and ``sleep-paper-month``.

Each measurement is a fresh child process (``python3 simbench.py child
...``) so that set-up includes interpreter start and imports, as it does
for a user.  The parent stamps the spawn time; the child stamps the
first call into ``NetworkSimulation.run``, its return, and the moment
the result's digest has been checked, all on the system-wide monotonic
clock, plus its own CPU time across the run call.

Inputs come from the workload seed through ``seed % INPUT_SETS``: the
same seed always builds the same fleet, and every input set has a
digest recorded in ``digests.json`` at the commit that defined the
benchmark.  ``python3 perfbench/simbench.py record`` rewrites it.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

#: Number of distinct recorded input sets a seed maps onto.
INPUT_SETS = 8

#: The ledger's conservation budget the benchmark enforces itself.
CONSERVATION_W = 1e-9

SIM_WORKLOADS = ("sim-10k-day", "sleep-paper-month")


def input_set(seed: int) -> int:
    """The recorded input set a workload seed selects."""
    return int(seed) % INPUT_SETS


# ---------------------------------------------------------------------------
# Child side: one scenario in this process
# ---------------------------------------------------------------------------


def _scenario(workload: str, inputs: int, scale: str) -> Optional[Dict]:
    """Run one scenario; returns the sweep report entry, if it has one."""
    import numpy as np

    from repro.network import FleetTrafficModel, NetworkSimulation, synth

    if workload == "sim-10k-day":
        preset, duration_s = ("synth-200", 3600.0) if scale == "tiny" \
            else ("synth-10k", 86400.0)
        network = synth.generate_synth_network(
            synth.synth_config(preset), rng=np.random.default_rng(inputs))
        traffic = FleetTrafficModel(
            network, rng=np.random.default_rng(inputs + 1))
        sim = NetworkSimulation(network, traffic,
                                rng=np.random.default_rng(inputs + 2))
        sim.run(duration_s=duration_s, step_s=300.0, snmp_period_s=300.0,
                engine="auto")
        return None
    if workload == "sleep-paper-month":
        from repro.sweep.matrix import JobSpec
        from repro.sweep.runner import run_job

        topology, days = ("tiny", 1) if scale == "tiny" else ("full", 28)
        spec = JobSpec(topology, "quiet", "hypnos-50", "balanced",
                       days * 86400.0, 300.0)
        entry, _bench_row = run_job(spec, inputs, attribution=True)
        return entry
    raise ValueError(f"unknown simulation workload {workload!r}")


def _array_bytes(values) -> bytes:
    import numpy as np

    array = np.asarray(values)
    if array.dtype == object:
        return repr(array.tolist()).encode()
    return array.tobytes()


def result_digest(result, entry: Optional[Dict]) -> str:
    """SHA-256 over the run's deterministic outputs.

    Covers the total-power and traffic series, every SNMP trace (power
    and any interface counters), the ledger roll-up and, for sweep
    jobs, the sweep report entry.
    """
    h = hashlib.sha256()
    for series in (result.total_power, result.total_traffic_bps):
        h.update(_array_bytes(series.timestamps))
        h.update(_array_bytes(series.values))
    for host in sorted(result.snmp):
        trace = result.snmp[host]
        h.update(host.encode())
        h.update(_array_bytes(trace.power.timestamps))
        h.update(_array_bytes(trace.power.values))
        for name in sorted(trace.interfaces):
            iface = trace.interfaces[name]
            for counter in (iface.rx_octets, iface.tx_octets,
                            iface.rx_packets, iface.tx_packets):
                h.update(_array_bytes(counter.timestamps))
                h.update(_array_bytes(counter.counts))
    for document in ((result.ledger.to_dict()
                      if result.ledger is not None else None), entry):
        h.update(json.dumps(document, sort_keys=True).encode())
    return h.hexdigest()


def _percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def child_main(workload: str, seed: int, trace: bool, scale: str) -> Dict:
    """Run the scenario in this process and report stamps and checks."""
    import resource

    from repro.network.engine import FleetState
    from repro.network.simulation import NetworkSimulation

    stamps: Dict[str, float] = {}
    step_marks: List[float] = []
    results: List = []
    layer_clock = profiler = tracer = registry = None
    if trace:
        from repro.obs import metrics, profile, tracing

        import layers
        layer_clock = layers.LayerClock()
        layer_clock.install(layers.BUILD_POINTS)
        profiler = profile.Profiler()
        tracer = tracing.Tracer()
        registry = metrics.MetricsRegistry()
        profile.set_profiler(profiler)
        tracing.set_tracer(tracer)
        metrics.set_registry(registry)

    run = NetworkSimulation.run
    apply_traffic = FleetState.apply_traffic
    clock = time.monotonic

    def timed_run(self, *args, **kwargs):
        stamps["run0"] = clock()
        stamps["cpu0"] = time.process_time()
        result = run(self, *args, **kwargs)
        stamps["cpu1"] = time.process_time()
        stamps["run1"] = clock()
        results.append(result)
        return result

    def marked_apply_traffic(self, t_s):
        step_marks.append(clock())
        return apply_traffic(self, t_s)

    NetworkSimulation.run = timed_run
    FleetState.apply_traffic = marked_apply_traffic
    try:
        entry = _scenario(workload, input_set(seed), scale)
    finally:
        NetworkSimulation.run = run
        FleetState.apply_traffic = apply_traffic
    result = results[0]
    digest = result_digest(result, entry)
    residual = (result.ledger.max_residual_w
                if result.ledger is not None else 0.0)
    expected = load_digests().get(scale, {}).get(workload, {}).get(
        str(input_set(seed)))
    conserved = residual <= CONSERVATION_W
    correct = conserved and expected == digest
    stamps["verified"] = clock()

    steps_ms = [1e3 * (b - a) for a, b in zip(step_marks, step_marks[1:])]
    report = {
        "stamps": stamps,
        "digest": digest,
        "expected_digest": expected,
        "max_residual_w": residual,
        "correct": correct,
        "n_steps": len(step_marks),
        "step_p50_ms": _percentile(steps_ms, 0.5),
        "step_p99_ms": _percentile(steps_ms, 0.99),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        report["layers"] = _traced_layers(layer_clock, profiler, tracer,
                                          registry)
    return report


def _traced_layers(layer_clock, profiler, tracer, registry) -> Dict:
    import layers

    values = {
        "topology.build_s": layer_clock.seconds("topology.build"),
        "traffic.build_s": layer_clock.seconds("traffic.build"),
        "sleep.plan_s": layer_clock.seconds("sleep.plan"),
        "sleep.levels": float(layer_clock.calls("sleep.levels")),
        "sleep.reroutes": float(layer_clock.calls("sleep.reroutes")),
        "engine.columns_s": layer_clock.seconds("engine.columns"),
        "state.columns_s": layer_clock.seconds("state.columns"),
        "snmp.collector_s": layer_clock.seconds("snmp.collector"),
        "sim.finalize_s": layers.span_seconds(tracer.roots, "sim.finalize"),
    }
    values.update(layers.kernel_seconds(profiler.to_dict()))
    values.update(layers.counter_totals(layers.registry_totals(registry)))
    return values


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


def load_digests() -> Dict:
    """The recorded digests, ``{scale: {workload: {input_set: hex}}}``."""
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text())


def spawn_child(workload: str, seed: int, trace: bool,
                scale: str = "full") -> Dict:
    """Run one scenario in a fresh interpreter; returns its report.

    ``t_spawn`` is stamped just before the process is created, on the
    same monotonic clock the child uses.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path("src").resolve()), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "simbench.py"), "child",
           workload, str(seed), "1" if trace else "0", scale]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          timeout=170, check=False)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} child exited with code {proc.returncode}")
    report = json.loads(lines[-1])
    report["t_spawn"] = t_spawn
    return report


def end_to_end(report: Dict) -> Dict[str, float]:
    """The end-to-end metrics of one child report, with the step
    latency and rate (``op.*``)."""
    stamps = report["stamps"]
    run_s = stamps["run1"] - stamps["run0"]
    return {
        "setup_s": stamps["run0"] - report["t_spawn"],
        "run_s": stamps["cpu1"] - stamps["cpu0"],
        "run_wall_s": run_s,
        "wall_s": stamps["verified"] - report["t_spawn"],
        "peak_rss_mb": report["peak_rss_mb"],
        "op.p50_ms": report["step_p50_ms"],
        "op.p99_ms": report["step_p99_ms"],
        "op.max_rps": report["n_steps"] / run_s,
    }


def run_workload(workload: str, seed: int, trace: bool,
                 scale: str = "full") -> Dict:
    """Measure one simulation workload.

    Untraced: one child.  Traced: an untraced reference child, then a
    traced child whose layer lines are split against its own totals;
    ``trace.overhead_ratio`` compares the two wall times.
    """
    reference = spawn_child(workload, seed, trace=False, scale=scale)
    e2e = end_to_end(reference)
    result = {"attempted": 1, "failed": 0 if reference["correct"] else 1,
              "e2e": e2e, "reports": [reference]}
    if not trace:
        return result
    traced = spawn_child(workload, seed, trace=True, scale=scale)
    result["attempted"] += 1
    result["failed"] += 0 if traced["correct"] else 1
    result["reports"].append(traced)
    traced_e2e = end_to_end(traced)
    values = dict(traced["layers"])
    values["trace.setup_s"] = traced_e2e["setup_s"]
    values["trace.run_s"] = traced_e2e["run_wall_s"]
    values["trace.overhead_ratio"] = traced_e2e["wall_s"] / e2e["wall_s"]
    result["layers"] = values
    return result


def record(scale: str, workloads, sets) -> None:
    """Recompute and store the digests of the given input sets."""
    digests = load_digests()
    for workload in workloads:
        for index in sets:
            report = spawn_child(workload, index, trace=False, scale=scale)
            digests.setdefault(scale, {}).setdefault(
                workload, {})[str(index)] = report["digest"]
            print(f"{scale} {workload} set {index}: {report['digest']}",
                  flush=True)
            DIGESTS.write_text(json.dumps(digests, indent=2,
                                          sort_keys=True) + "\n")


def main(argv: List[str]) -> int:
    """``child WORKLOAD SEED TRACE SCALE`` or ``record SCALE [WORKLOAD]``."""
    if argv[:1] == ["child"]:
        workload, seed, trace, scale = argv[1:5]
        report = child_main(workload, int(seed), trace == "1", scale)
        print(json.dumps(report))
        return 0
    if argv[:1] == ["record"]:
        scale = argv[1] if len(argv) > 1 else "full"
        workloads = argv[2:] or list(SIM_WORKLOADS)
        record(scale, workloads, range(INPUT_SETS))
        return 0
    print(main.__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
