"""Time-stepped simulation of the ISP fleet under monitoring.

This is the stand-in for "running the Switch network for weeks while the
collectors watch": at every step the traffic model assigns loads to every
interface, routers advance (counters accumulate, ambient noise drifts),
due operational events fire, and the SNMP collector and any deployed
Autopower units take their samples.

The result object carries everything the §6-§9 analyses need: per-router
SNMP power traces, interface counter traces for the detailed routers,
Autopower ground truth, the one-time PSU sensor export, and the
network-wide power/traffic series of Fig. 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import units
from repro.network.events import FleetEvent
from repro.network.topology import ISPNetwork, Link
from repro.network.traffic import FleetTrafficModel
from repro.obs import metrics, tracing
from repro.obs.logging import get_logger
from repro.telemetry.autopower import (AutopowerClient, AutopowerServer,
                                       Transport, deploy_unit)
from repro.telemetry.snmp import PsuSensorExport, RouterTrace, SnmpCollector
from repro.telemetry.traces import TimeSeries

if TYPE_CHECKING:
    from repro.network.engine import VectorizedEngine
    from repro.obs.ledger import LedgerAccumulator

_log = get_logger("network.sim")

#: Step latencies span ~50 us (small fleets) to ~30 ms (synth-10k).
STEP_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 1.0)

M_ENGINE_RUNS = metrics.counter(
    "netpower_sim_engine_runs_total",
    "Simulation runs started, by engine", labels=("engine",))
M_STEPS = metrics.counter(
    "netpower_sim_steps_total",
    "Simulation steps executed, by engine", labels=("engine",))
M_EVENTS = metrics.counter(
    "netpower_sim_events_fired_total",
    "Operational fleet events fired, by event type", labels=("type",))
M_SNMP_POLLS = metrics.counter(
    "netpower_sim_snmp_polls_total",
    "SNMP collector poll rounds taken during simulation")
M_STEP_SECONDS = metrics.histogram(
    "netpower_sim_step_seconds",
    "Wall-clock latency of one simulation step", labels=("engine",),
    buckets=STEP_LATENCY_BUCKETS)
M_FLEET_POWER = metrics.gauge(
    "netpower_sim_fleet_power_watts",
    "Network-wide wall power at the last simulated step")
M_FLEET_TRAFFIC = metrics.gauge(
    "netpower_sim_fleet_traffic_bps",
    "Total external ingress traffic at the last simulated step")


def step_schedule(start_s: float, step_s: float, n_steps: int,
                  snmp_period_s: float) -> Tuple[np.ndarray, np.ndarray]:
    """Sample time of every step of a run, and which steps poll SNMP.

    The clock advances by repeated addition of ``step_s`` from
    ``start_s``; a step polls once its sample time reaches the next due
    poll, and polls fall due every ``max(snmp_period_s, step_s)`` from
    the start.  The engine steps on this schedule and sizes its blocks
    of pre-drawn sensor noise from it.
    """
    grid = np.empty(n_steps)
    polled = np.zeros(n_steps, dtype=bool)
    clock = next_poll_s = start_s
    for step in range(n_steps):
        clock += step_s
        grid[step] = clock
        if clock >= next_poll_s:
            polled[step] = True
            next_poll_s += max(snmp_period_s, step_s)
    return grid, polled


@dataclass(frozen=True)
class StepSnapshot:
    """What a :class:`StepObserver` sees after each simulation step.

    Values are read-only copies of the step's fresh state; observers must
    never mutate routers or draw from simulation RNG streams (the same
    contract as the obs instruments: byte-identical results with or
    without observers attached).
    """

    #: Step index (0-based) and the sample timestamp (end of the step).
    step: int
    t_s: float
    step_s: float
    total_power_w: float
    total_traffic_bps: float
    #: Per-router wall power, in fleet iteration order.
    power_by_host: Dict[str, float]
    #: Whether the SNMP collector polled on this step.
    snmp_polled: bool
    #: Fleet-level watts per attribution component, keyed by
    #: :data:`repro.obs.ledger.COMPONENTS` name -- ``None`` unless the
    #: run's energy ledger is active.
    attribution: Optional[Dict[str, float]] = None


class StepObserver:
    """Hook invoked once per simulation step.

    Subclass and override what you need; every method is a no-op by
    default.  Observers attach via :meth:`NetworkSimulation.add_observer`
    and receive one :class:`StepSnapshot` per step, *after* the step's
    SNMP poll and Autopower ticks -- so collector state and meter buffers
    are current when ``on_step`` runs.

    Observers never draw from a router's RNG: no
    ``psu_reported_power_w`` or ``psu_sensor_snapshots`` calls, read what
    the SNMP collector recorded instead (as
    :mod:`repro.telemetry.sources` does).  Between events the engine
    has already drawn each router's ambient and sensor noise for a block
    of steps (docs/PERFORMANCE.md, "Per-router draw order"), so an
    observer's draw would shift every later value of that router's
    stream.
    """

    def view_hosts(self) -> Sequence[str]:
        """Hostnames whose Port/router objects must stay fresh per step.

        The engine keeps only these routers' objects in sync
        with the columnar state during the run (the same mechanism that
        serves Autopower meters); list every router the observer reads
        object state from (``wall_power_w``, ``device_power_w``, port
        traffic).
        """
        return ()

    def on_run_start(self, sim: "NetworkSimulation", engine: str,
                     collector: SnmpCollector, step_s: float,
                     n_steps: int) -> None:
        """Called once before the first step of a run."""

    def on_step(self, snapshot: StepSnapshot) -> None:
        """Called after every step with that step's fresh state."""

    def on_run_end(self, result: "SimulationResult") -> None:
        """Called once after the run's result object is assembled."""


@dataclass
class SimulationResult:
    """Everything recorded during one fleet simulation run."""

    #: Network-wide totals on the simulation step grid (Fig. 1).
    total_power: TimeSeries
    total_traffic_bps: TimeSeries
    #: Finalised SNMP traces per router.
    snmp: Dict[str, RouterTrace]
    #: External (Autopower) power series per instrumented router.
    autopower: Dict[str, TimeSeries]
    #: One-time PSU sensor export taken at the end of the run (§9.2).
    sensor_exports: List[PsuSensorExport]
    #: Per-router, per-component energy ledger (``None`` unless the run
    #: was started with ``attribution=True``).
    ledger: Optional["LedgerAccumulator"] = None

    def network_median_power_w(self) -> float:
        """Median of the total network power over the run."""
        return self.total_power.median()


class NetworkSimulation:
    """Drives an :class:`ISPNetwork` through simulated wall-clock time."""

    #: Engine name reported to observers, metric labels and run reports.
    engine_name = "vector"

    def __init__(self, network: ISPNetwork, traffic: FleetTrafficModel,
                 rng: Optional[np.random.Generator] = None,
                 start_s: float = 0.0):
        self.network = network
        self.traffic = traffic
        self.rng = rng if rng is not None else np.random.default_rng()
        self.clock_s = start_s
        self.autopower_server = AutopowerServer()
        self.autopower_clients: Dict[str, AutopowerClient] = {}
        self.observers: List[StepObserver] = []
        self._new_external_link_ids: Set[int] = set()
        #: Engine retained from the last run so callers (the bench
        #: ladder) can read its memory footprint.
        self.last_engine: Optional[VectorizedEngine] = None

    # -- observers ------------------------------------------------------------------

    def add_observer(self, observer: StepObserver) -> StepObserver:
        """Attach a step observer (e.g. the fleet monitor) to this sim."""
        self.observers.append(observer)
        return observer

    def _view_hosts(self) -> tuple:
        """Routers whose objects the engine must keep synced:
        Autopower'd hosts plus everything the observers ask for."""
        hosts = dict.fromkeys(self.autopower_clients)
        for observer in self.observers:
            for host in observer.view_hosts():
                if host in self.network.routers:
                    hosts.setdefault(host)
        return tuple(hosts)

    # -- hooks used by events ------------------------------------------------------

    def deploy_autopower(self, hostname: str,
                         transport: Optional[Transport] = None,
                         ) -> AutopowerClient:
        """Install an Autopower unit on a router (power-cycles it).

        ``transport`` lets callers inject uplink outages on the unit.
        """
        router = self.network.router(hostname)
        client = deploy_unit(router, self.autopower_server,
                             rng=np.random.default_rng(
                                 self.rng.integers(2 ** 63)),
                             transport=transport)
        self.autopower_clients[hostname] = client
        return client

    def on_topology_change(self, new_external: Optional[Link] = None) -> None:
        """Notify the traffic model that links were added or removed."""
        if new_external is not None:
            self._new_external_link_ids.add(new_external.link_id)

    # -- the main loop -------------------------------------------------------------------

    def run(self, duration_s: float, step_s: float = 300.0,
            events: Sequence[FleetEvent] = (),
            snmp_period_s: float = units.SNMP_POLL_PERIOD_S,
            detailed_hosts: Optional[Sequence[str]] = None,
            engine: str = "auto",
            attribution: bool = False) -> SimulationResult:
        """Simulate ``duration_s`` seconds of fleet operation.

        Parameters
        ----------
        duration_s, step_s:
            Total simulated time and the stepping resolution.  Traffic,
            counters, and Autopower samples are updated once per step;
            SNMP polls happen every ``snmp_period_s`` (at least once per
            step).
        events:
            Operational events; each fires once when the clock passes its
            ``at_s``.
        detailed_hosts:
            Routers whose interface counters are recorded (all routers'
            power is always recorded).  Defaults to the Autopower'd hosts
            plus any event targets; pass explicitly for full control.
        engine:
            Accepted for compatibility: ``"auto"`` and ``"vector"`` both
            run the one columnar engine (:mod:`repro.network.engine`);
            anything else is a ``ValueError``.
        attribution:
            When ``True``, run an energy attribution ledger alongside the
            simulation: every step each router's wall power is split into
            the named :data:`repro.obs.ledger.COMPONENTS` and checked
            against a hard conservation invariant.  The ledger rides the
            result as ``result.ledger``; attribution never touches
            simulation state or RNG streams, so results are byte-identical
            either way.
        """
        if step_s <= 0 or duration_s <= 0:
            raise ValueError("duration and step must be positive")
        if engine not in ("auto", "vector"):
            raise ValueError(
                f"engine must be 'auto' or 'vector', got {engine!r}")
        engine = self.engine_name
        pending = sorted(events, key=lambda e: e.at_s)
        if detailed_hosts is None:
            detailed = {getattr(e, "hostname", "") for e in pending}
            detailed.discard("")
            detailed |= set(self.autopower_clients)
            detailed_hosts = sorted(h for h in detailed
                                    if h in self.network.routers)
        collector = SnmpCollector(
            list(self.network.routers.values()),
            detailed_hosts=detailed_hosts)
        ledger: Optional["LedgerAccumulator"] = None
        if attribution:
            from repro.obs.ledger import LedgerAccumulator
            ledger = LedgerAccumulator(list(self.network.routers),
                                       track_series=tracing.enabled())

        n_steps = int(round(duration_s / step_s))
        grid, polled_steps = step_schedule(self.clock_s, step_s, n_steps,
                                           snmp_period_s)
        collector.reserve(int(polled_steps.sum()))
        total_power = np.empty(n_steps)
        total_traffic = np.empty(n_steps)

        M_ENGINE_RUNS.labels(engine=engine).inc()
        with tracing.span("sim.run", sim_clock=lambda: self.clock_s,
                          engine=engine, n_steps=n_steps,
                          routers=len(self.network.routers)):
            for observer in self.observers:
                observer.on_run_start(self, engine, collector, step_s,
                                      n_steps)
            with tracing.span("sim.steps", sim_clock=lambda: self.clock_s):
                self._run_steps(step_s, pending, collector, grid,
                                polled_steps, total_power, total_traffic,
                                ledger)

            with tracing.span("sim.finalize",
                              sim_clock=lambda: self.clock_s):
                for client in self.autopower_clients.values():
                    client.try_upload(self.clock_s)
                autopower = {
                    host: self.autopower_server.download(client.unit_id)
                    for host, client in self.autopower_clients.items()
                }
                if ledger is not None:
                    ledger.finalize()
                    if tracing.enabled():
                        ledger.attach_counter_tracks(tracing.get_tracer())
                result = SimulationResult(
                    total_power=TimeSeries(grid, total_power),
                    total_traffic_bps=TimeSeries(grid, total_traffic),
                    snmp=collector.finalize(),
                    autopower=autopower,
                    sensor_exports=collector.sensor_exports(),
                    ledger=ledger,
                )
                for observer in self.observers:
                    observer.on_run_end(result)
        M_STEPS.labels(engine=engine).inc(n_steps)
        if n_steps:
            M_FLEET_POWER.set(float(total_power[-1]))
            M_FLEET_TRAFFIC.set(float(total_traffic[-1]))
        _log.info("simulation run complete",
                  extra={"engine": engine, "n_steps": n_steps,
                         "routers": len(self.network.routers),
                         "mean_power_w": round(float(total_power.mean()), 3)
                         if n_steps else 0.0})
        return result

    def _run_steps(self, step_s: float, pending: Sequence[FleetEvent],
                   collector: SnmpCollector, grid: np.ndarray,
                   polled_steps: np.ndarray, total_power: np.ndarray,
                   total_traffic: np.ndarray,
                   ledger: Optional["LedgerAccumulator"]) -> None:
        """Step the fleet through ``grid`` on the columnar engine."""
        from repro.network.engine import VectorizedEngine
        engine = self.last_engine = VectorizedEngine(self)
        engine.run_steps(step_s, pending, collector, grid, polled_steps,
                         total_power, total_traffic, ledger=ledger)
