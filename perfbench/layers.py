"""Outside-in layer timing for the traced benchmark runs.

A traced run replaces a handful of the program's public functions and
methods with thin timing wrappers before the workload starts, and reads
the instrumentation the program already carries (profiler kernel
regions, ``sim.*`` spans, metric counters).  Nothing here edits the
program; the untraced runs never import this module.

Wrapped callables run on at most one thread at a time per layer name
(the serve load runs in one executor thread, request handling on the
event loop), so the accumulators need no lock.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Dict, List, Tuple

#: Profiler kernel region -> per-layer metric carrying its self time.
KERNEL_LAYERS: Dict[str, str] = {
    "kernel.apply_traffic": "engine.apply_traffic_s",
    "kernel.advance_counters": "engine.advance_counters_s",
    "kernel.advance_noise": "engine.advance_noise_s",
    "kernel.wall_power": "engine.wall_power_s",
    "kernel.patch_routers": "engine.patch_routers_s",
    "kernel.refresh": "engine.refresh_s",
    "kernel.snmp_poll": "snmp.poll_s",
    "kernel.ledger_record": "ledger.record_s",
    "kernel.observers": "sweep.observers_s",
}

#: Metric counter families -> per-layer count metrics.
COUNTER_LAYERS: Dict[str, str] = {
    "netpower_sim_steps_total": "sim.steps",
    "netpower_sim_snmp_polls_total": "snmp.polls",
    "netpower_sim_engine_event_boundaries_total": "engine.event_boundaries",
    "netpower_sim_engine_router_columns_patched_total":
        "engine.routers_patched",
}

#: Build-phase callables shared by the sim workloads and the serve load:
#: ``(module, attribute path, layer)``.  Function attributes are
#: replaced in every module that imported them by name.
BUILD_POINTS: List[Tuple[str, str, str]] = [
    ("repro.network.synth", "generate_synth_network", "topology.build"),
    ("repro.network", "generate_synth_network", "topology.build"),
    ("repro.network.topology", "build_switch_like_network",
     "topology.build"),
    ("repro.network.traffic", "FleetTrafficModel.__init__",
     "traffic.build"),
    ("repro.network.engine", "FleetState.__init__", "engine.columns"),
    ("repro.telemetry.snmp", "SnmpCollector.__init__", "snmp.collector"),
    ("repro.network.simulation", "NetworkSimulation.run", "sim.run"),
    ("repro.sleep.hypnos", "Hypnos.plan", "sleep.plan"),
    ("repro.sleep.hypnos", "Hypnos.plan_window", "sleep.levels"),
    ("repro.network.traffic", "TrafficMatrix.reroute_without",
     "sleep.reroutes"),
]

#: Serve-path callables (timed inside the server process by the
#: launcher).  ``parse`` and ``encode`` are the names ``repro.serve.app``
#: calls; the batcher's ``submit`` is awaited, so its wall time is the
#: wait for the full tier (evaluation included).
SERVE_POINTS: List[Tuple[str, str, str]] = [
    ("repro.serve.state", "generate_synth_network", "topology.build"),
    ("repro.serve.state", "quick_lab_model", "lab.derive"),
    ("repro.serve.app", "parse_predict_request", "schemas.parse"),
    ("repro.serve.app", "parse_whatif_request", "schemas.parse"),
    ("repro.serve.app", "canonical_json", "schemas.encode"),
    ("repro.serve.cache", "PredictionCache.lookup", "cache.lookup"),
    ("repro.serve.cache", "PredictionCache.insert", "cache.insert"),
    ("repro.serve.batching", "PredictBatcher.submit", "batching.wait"),
    ("repro.serve.batching", "evaluate_group", "prediction.evaluate"),
    ("repro.serve.state", "FleetService.whatif", "state.whatif"),
]


#: Layers whose calls are booked elsewhere when no simulation run is
#: open: FleetState built for the serve what-if engine is not part of a
#: run.
OUTSIDE_RUN = {"engine.columns": "state.columns"}


class LayerClock:
    """Accumulated ``[calls, seconds]`` per layer name."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}
        self._runs_open = 0

    def seconds(self, layer: str) -> float:
        """Total wall seconds spent inside ``layer``'s callables."""
        return self.stats.get(layer, [0, 0.0])[1]

    def calls(self, layer: str) -> int:
        """How many times ``layer``'s callables were entered."""
        return int(self.stats.get(layer, [0, 0.0])[0])

    def _enter(self, layer: str) -> float:
        if layer == "sim.run":
            self._runs_open += 1
        return time.perf_counter()

    def _exit(self, layer: str, t0: float) -> None:
        elapsed = time.perf_counter() - t0
        if layer == "sim.run":
            self._runs_open -= 1
        elif not self._runs_open:
            layer = OUTSIDE_RUN.get(layer, layer)
        stat = self.stats.setdefault(layer, [0, 0.0])
        stat[0] += 1
        stat[1] += elapsed

    def _timed(self, fn, layer: str):
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def timed_async(*args, **kwargs):
                t0 = self._enter(layer)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._exit(layer, t0)
            return timed_async

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = self._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(layer, t0)
        return timed

    def install(self, points: List[Tuple[str, str, str]]) -> None:
        """Replace every listed callable with a timed wrapper.

        A callable already wrapped (the same function re-exported by
        another module) is wrapped only once, so its time is counted
        once.
        """
        wrapped: Dict[int, object] = {}
        for module_name, path, layer in points:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            if original in wrapped.values():
                continue  # imported by name after it was wrapped
            key = id(original)
            if key not in wrapped:
                wrapped[key] = self._timed(original, layer)
            setattr(owner, attr, wrapped[key])


def kernel_seconds(profile_doc: Dict) -> Dict[str, float]:
    """Self seconds per kernel layer from a ``Profiler.to_dict()``."""
    kernels = profile_doc.get("kernels", {})
    return {layer: float(kernels.get(kernel, {}).get("self_s", 0.0))
            for kernel, layer in KERNEL_LAYERS.items()}


def counter_totals(families: Dict[str, float]) -> Dict[str, float]:
    """Count metrics from summed counter families (missing -> 0)."""
    return {layer: float(families.get(name, 0.0))
            for name, layer in COUNTER_LAYERS.items()}


def registry_totals(registry) -> Dict[str, float]:
    """Each counter family of a live registry, summed over labels."""
    totals: Dict[str, float] = {}
    for family in registry.families():
        if family.kind != "counter":
            continue
        totals[family.name] = sum(float(inst.value)
                                  for _labels, inst in family.samples())
    return totals


def span_seconds(spans, name: str) -> float:
    """Total duration of every span called ``name`` in a span forest."""
    total = 0.0
    for span in spans:
        if span.name == name:
            total += span.duration_s
        total += span_seconds(span.children, name)
    return total


def parse_prometheus(text: str) -> Dict[str, float]:
    """Every sample of a Prometheus text page, keyed by its series.

    The key is the series as printed (``name{label="v"}``); each bare
    metric name additionally carries the sum over its label sets.
    """
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, raw = line.rpartition(" ")
        try:
            value = float(raw)
        except ValueError:
            continue
        samples[series] = value
        name = series.split("{", 1)[0]
        if name != series:
            samples[name] = samples.get(name, 0.0) + value
    return samples
