"""Every metric the benchmark reports, with its unit and direction.

``BENCHMARK.json`` at the repository root must list exactly these
metrics (the benchmark's tests check it), and ``run.py`` refuses to
print a result whose metric names differ from them.
"""

import re

#: End-to-end metrics: ``(name, unit, better, bound)``.  Every workload
#: reports every one of them, measured with tracing off.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: Per-layer metrics from the traced run: ``(name, unit, better)``.
#: Every workload reports every one; a layer the workload does not
#: exercise reads 0.
PER_LAYER = (
    # set-up: trace.setup_s is the sum of the lines below it
    ("trace.setup_s", "s", "lower"),
    ("topology.build_s", "s", "lower"),
    ("traffic.build_s", "s", "lower"),
    ("sleep.plan_s", "s", "lower"),
    ("lab.derive_s", "s", "lower"),
    ("sim.warmup_s", "s", "lower"),
    ("state.columns_s", "s", "lower"),
    ("setup.unattributed_s", "s", "lower"),
    ("serve.boot_s", "s", "lower"),
    ("serve.load_s", "s", "lower"),
    ("sleep.reroutes", "count", "lower"),
    ("sleep.levels", "count", "lower"),
    # one NetworkSimulation.run: trace.run_s is the sum of the lines below
    ("trace.run_s", "s", "lower"),
    ("engine.columns_s", "s", "lower"),
    ("snmp.collector_s", "s", "lower"),
    ("engine.apply_traffic_s", "s", "lower"),
    ("engine.advance_counters_s", "s", "lower"),
    ("engine.advance_noise_s", "s", "lower"),
    ("engine.wall_power_s", "s", "lower"),
    ("engine.patch_routers_s", "s", "lower"),
    ("engine.refresh_s", "s", "lower"),
    ("snmp.poll_s", "s", "lower"),
    ("ledger.record_s", "s", "lower"),
    ("sweep.observers_s", "s", "lower"),
    ("sim.finalize_s", "s", "lower"),
    ("sim.unattributed_s", "s", "lower"),
    ("sim.steps", "count", "lower"),
    ("snmp.polls", "count", "lower"),
    ("engine.event_boundaries", "count", "lower"),
    ("engine.routers_patched", "count", "lower"),
    # request handling: serve.handle_s is the sum of the lines below
    ("serve.handle_s", "s", "lower"),
    ("schemas.parse_s", "s", "lower"),
    ("schemas.encode_s", "s", "lower"),
    ("cache.lookup_s", "s", "lower"),
    ("cache.insert_s", "s", "lower"),
    ("batching.wait_s", "s", "lower"),
    ("state.whatif_s", "s", "lower"),
    ("serve.unattributed_s", "s", "lower"),
    ("prediction.evaluate_s", "s", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("batching.mean_size", "count", "higher"),
    ("batching.flushes", "count", "lower"),
    ("state.whatifs", "count", "lower"),
    ("client.queue_ms", "ms", "lower"),
    ("gen.late_max_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    # per-operation figures of the untraced run (a simulation step, a
    # serve request); on a shared 2-vCPU host their run-to-run spread is
    # far wider than any usable bound, so they are reported, not gated
    ("op.p50_ms", "ms", "lower"),
    ("op.p99_ms", "ms", "lower"),
    ("op.max_rps", "1/s", "higher"),
)

#: Lines that add up to each traced total (the last one is the
#: remainder no layer accounts for).
SUMS = {
    "trace.setup_s": ("topology.build_s", "traffic.build_s",
                      "sleep.plan_s", "lab.derive_s", "sim.warmup_s",
                      "state.columns_s", "setup.unattributed_s"),
    "trace.run_s": ("engine.columns_s", "snmp.collector_s",
                    "engine.apply_traffic_s", "engine.advance_counters_s",
                    "engine.advance_noise_s", "engine.wall_power_s",
                    "engine.patch_routers_s", "engine.refresh_s",
                    "snmp.poll_s", "ledger.record_s", "sweep.observers_s",
                    "sim.finalize_s", "sim.unattributed_s"),
    "serve.handle_s": ("schemas.parse_s", "schemas.encode_s",
                       "cache.lookup_s", "cache.insert_s",
                       "batching.wait_s", "state.whatif_s",
                       "serve.unattributed_s"),
}

WORKLOADS = (
    ("sim-10k-day",
     "build-heavy: 10k routers, 320k ports, one day of wide 300 s steps; "
     "no sleeping, events or ledger"),
    ("sleep-paper-month",
     "the paper's 107-router fleet for 28 days with Hypnos link sleeping "
     "and the ledger: planner cost plus 8064 narrow steps"),
    ("serve-poll",
     "open-loop repeat polls of 64 bodies: HTTP, parse, cache hits and "
     "encode; bypasses the batcher"),
    ("serve-fresh",
     "open-loop 16-router bodies with fresh rates plus 1-in-20 /whatif: "
     "cache misses, batcher, prediction and the what-if lock"),
)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def unit_of(name: str) -> str:
    """The unit a metric is reported in."""
    for entry in END_TO_END + PER_LAYER:
        if entry[0] == name:
            return entry[1]
    raise KeyError(name)


def benchmark_document() -> dict:
    """The ``BENCHMARK.json`` document these tables describe."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 8,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
