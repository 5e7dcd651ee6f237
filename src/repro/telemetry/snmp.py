"""SNMP-style telemetry collection from deployed routers.

Reproduces the shape of the paper's 10-month Switch dataset: every poll
period (5 minutes), each router exports its PSU-reported input power (if
the platform reports one at all, §6.2) and its 64-bit interface counters.
A one-time *sensor export* additionally captures each PSU's input and
output power -- the snapshot §9.2 relies on, since the periodic traces
only contain ``P_in``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.hardware.psu import PsuSensorReading
from repro.hardware.router import Counters, VirtualRouter
from repro.obs import profile
from repro.telemetry.traces import CounterSeries, InterfaceTrace, TimeSeries

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.network.engine import FleetState

#: MIB object names used in record dictionaries, for readability.
IF_HC_IN_OCTETS = "ifHCInOctets"
IF_HC_OUT_OCTETS = "ifHCOutOctets"
IF_HC_IN_PKTS = "ifHCInUcastPkts"
IF_HC_OUT_PKTS = "ifHCOutUcastPkts"


@dataclass(frozen=True)
class PsuInventoryEntry:
    """One PSU as it appears in the router's hardware inventory (§9.2)."""

    router: str
    psu_index: int
    model: str
    capacity_w: float


@dataclass(frozen=True)
class PsuSensorExport:
    """One-time environment-sensor snapshot of a PSU (§9.2).

    ``input_w``/``output_w`` are raw sensor values; they are noisy and can
    imply an efficiency above 100 %, which analyses must cap.
    """

    router: str
    router_model: str
    psu_index: int
    capacity_w: float
    input_w: float
    output_w: float

    @property
    def load_fraction(self) -> float:
        """Reported output power over capacity."""
        return self.output_w / self.capacity_w

    @property
    def efficiency(self) -> float:
        """Implied efficiency, capped at 100 % like the paper does."""
        if self.input_w <= 0:
            return 0.0
        return min(1.0, self.output_w / self.input_w)


class SnmpAgent:
    """The SNMP view of one router: what a poller can read."""

    def __init__(self, router: VirtualRouter):
        self.router = router

    @property
    def hostname(self) -> str:
        """sysName of the device."""
        return self.router.hostname

    def poll_power(self) -> Optional[float]:
        """PSU-reported total input power, or None if unsupported."""
        return self.router.psu_reported_power_w()

    def poll_counters(self) -> Dict[str, Counters]:
        """Current 64-bit counters per interface."""
        return self.router.interface_counters()

    def psu_inventory(self) -> List[PsuInventoryEntry]:
        """PSU models and capacities from the hardware inventory."""
        return [
            PsuInventoryEntry(router=self.hostname, psu_index=i,
                              model=psu.model.name,
                              capacity_w=psu.capacity_w)
            for i, psu in enumerate(self.router.psu_group.instances)
        ]

    def sensor_export(self) -> List[PsuSensorExport]:
        """One-time P_in/P_out snapshot of every PSU (§9.2)."""
        readings = self.router.psu_sensor_snapshots()
        return [
            PsuSensorExport(
                router=self.hostname,
                router_model=self.router.model_name,
                psu_index=i,
                capacity_w=self.router.psu_group.instances[i].capacity_w,
                input_w=reading.input_w,
                output_w=reading.output_w,
            )
            for i, reading in enumerate(readings)
        ]


@dataclass
class RouterTrace:
    """Everything collected for one router over a monitoring campaign."""

    hostname: str
    router_model: str
    power: TimeSeries
    interfaces: Dict[str, InterfaceTrace] = field(default_factory=dict)
    inventory: Dict[str, Optional[str]] = field(default_factory=dict)

    def median_power_w(self) -> float:
        """Median of the PSU-reported power (the Table 1 statistic)."""
        return self.power.median()

    def total_octet_rate(self) -> TimeSeries:
        """Sum of rx+tx octet rates over all recorded interfaces."""
        if not self.interfaces:
            return TimeSeries(np.array([]), np.array([]))
        acc: Optional[np.ndarray] = None
        ts: Optional[np.ndarray] = None
        for iface in self.interfaces.values():
            rx, tx = iface.octet_rates()
            if len(rx) == 0:
                continue
            total = np.nan_to_num(rx.values) + np.nan_to_num(tx.values)
            if acc is None:
                acc, ts = total, rx.timestamps
            else:
                n = min(len(acc), len(total))
                acc = acc[:n] + total[:n]
                ts = ts[:n]
        if acc is None:
            return TimeSeries(np.array([]), np.array([]))
        return TimeSeries(ts, acc)


class SnmpCollector:
    """Polls a set of routers on a fixed period and accumulates traces.

    Counter collection is restricted to interfaces that have a module
    plugged (empty cages never count traffic), and can be further limited
    to a subset of routers via ``detailed_hosts`` to keep month-scale
    campaigns at fleet size tractable -- power is always recorded for
    every router.

    Power readings live in one float64 ``(hosts, polls)`` buffer, one
    row per router in fleet order and one column per poll (NaN where a
    router reports nothing); it grows by doubling unless
    :meth:`reserve` sized it up front.
    """

    def __init__(self, routers: Sequence[VirtualRouter],
                 detailed_hosts: Optional[Iterable[str]] = None):
        self.agents = {r.hostname: SnmpAgent(r) for r in routers}
        if detailed_hosts is None:
            self.detailed_hosts = set(self.agents)
        else:
            self.detailed_hosts = set(detailed_hosts)
            unknown = self.detailed_hosts - set(self.agents)
            if unknown:
                raise ValueError(
                    f"detailed hosts not in the fleet: {sorted(unknown)}")
        self._timestamps: List[float] = []
        self._row = {h: i for i, h in enumerate(self.agents)}
        self._power = np.empty((len(self.agents), 0))
        # host -> iface -> (ts, rx_oct, tx_oct, rx_pkt, tx_pkt) lists
        self._counters: Dict[str, Dict[str, List[List]]] = {
            h: {} for h in self.detailed_hosts}
        self._detailed_order = [h for h in self.agents
                                if h in self.detailed_hosts]

    def reserve(self, n_polls: int) -> None:
        """Make room for ``n_polls`` more polls without regrowing."""
        self._grow(len(self._timestamps) + n_polls)

    def _grow(self, n_polls: int) -> None:
        hosts, capacity = self._power.shape
        if n_polls > capacity:
            grown = np.empty((hosts, max(n_polls, 2 * capacity)))
            grown[:, :capacity] = self._power
            self._power = grown

    def _append(self, timestamp_s: float, power: np.ndarray) -> None:
        """Store one poll's power column (buffer row order)."""
        n = len(self._timestamps)
        self._grow(n + 1)
        self._power[:, n] = power
        self._timestamps.append(timestamp_s)

    def _record_counters(self, hostname: str, timestamp_s: float,
                         columns: Sequence[Sequence]) -> None:
        """Append one poll of a detailed host's plugged interfaces.

        ``columns`` holds the rx/tx octet and packet counters of every
        port of the router, in port order.
        """
        rx_oct, tx_oct, rx_pkt, tx_pkt = columns
        store = self._counters[hostname]
        for k, port in enumerate(self.agents[hostname].router.ports):
            if not port.plugged:
                continue
            slot = store.setdefault(port.name, [[], [], [], [], []])
            slot[0].append(timestamp_s)
            slot[1].append(int(rx_oct[k]))
            slot[2].append(int(tx_oct[k]))
            slot[3].append(int(rx_pkt[k]))
            slot[4].append(int(tx_pkt[k]))

    def record(self, timestamp_s: float) -> None:
        """Take one poll of the whole fleet."""
        with profile.region("kernel.snmp_poll"):
            power = np.full(len(self.agents), np.nan)
            for row, (hostname, agent) in enumerate(self.agents.items()):
                value = agent.poll_power()
                if value is not None:
                    power[row] = value
                if hostname in self.detailed_hosts:
                    counters = agent.poll_counters().values()
                    self._record_counters(hostname, timestamp_s, (
                        [c.rx_octets for c in counters],
                        [c.tx_octets for c in counters],
                        [c.rx_packets for c in counters],
                        [c.tx_packets for c in counters]))
            self._append(timestamp_s, power)

    def record_vector(self, timestamp_s: float, true_power_w: np.ndarray,
                      state: "FleetState") -> None:
        """Columnar-engine poll: byte-identical records, no object detour.

        The columnar engine hands its per-router wall-power column and
        its :class:`~repro.network.engine.FleetState` straight in: the
        PSU-reported power of the whole fleet is one
        :meth:`~repro.network.engine.FleetState.psu_reported_power` call
        (same sensor equation and per-router draws as :meth:`record`),
        and detailed-host counters are read directly off the columnar
        arrays (:meth:`~repro.network.engine.FleetState.counters_view`).
        The state must list the collector's routers in the same order.
        """
        with profile.region("kernel.snmp_poll"):
            self._append(timestamp_s, state.psu_reported_power(true_power_w))
            for hostname in self._detailed_order:
                self._record_counters(hostname, timestamp_s,
                                      state.counters_view(hostname))

    def last_poll_s(self) -> Optional[float]:
        """Timestamp of the most recent poll, or None before the first."""
        if not self._timestamps:
            return None
        return self._timestamps[-1]

    def last_power(self, hostname: str) -> Optional[float]:
        """Most recent PSU-reported power for one router.

        None if the router has never been polled or its platform does not
        report a power value (the NaN case, §6.2).
        """
        row = self._row.get(hostname)
        if row is None or not self._timestamps:
            return None
        value = float(self._power[row, len(self._timestamps) - 1])
        if np.isnan(value):
            return None
        return value

    def counters_tail(self, hostname: str, n: int = 2,
                      ) -> Dict[str, List[List]]:
        """Last ``n`` raw counter samples per interface of one router.

        Returns ``iface -> [ts, rx_oct, tx_oct, rx_pkt, tx_pkt]`` where
        each entry is the tail of the recorded lists -- exactly what a
        streaming consumer (the live model-prediction source) needs to
        recompute the most recent counter rate without holding the whole
        campaign in memory twice.
        """
        store = self._counters.get(hostname, {})
        return {iface: [column[-n:] for column in slot]
                for iface, slot in store.items()}

    def finalize(self) -> Dict[str, RouterTrace]:
        """Build immutable traces from everything recorded so far.

        Each router's power series is a read-only view of its buffer
        row; later polls write only columns past it (or a regrown
        buffer), so the view never changes.
        """
        ts = np.array(self._timestamps, dtype=float)
        power = self._power[:, :len(ts)]
        power.flags.writeable = False
        traces: Dict[str, RouterTrace] = {}
        for row, (hostname, agent) in enumerate(self.agents.items()):
            interfaces: Dict[str, InterfaceTrace] = {}
            for iface_name, slot in self._counters.get(hostname, {}).items():
                iface_ts = np.array(slot[0], dtype=float)
                # uint64 up front: a list mixing values on both sides
                # of 2^63 would otherwise become float64 and round.
                rx_oct, tx_oct, rx_pkt, tx_pkt = (
                    np.array(column, dtype=np.uint64)
                    for column in slot[1:])
                interfaces[iface_name] = InterfaceTrace(
                    name=iface_name,
                    rx_octets=CounterSeries(iface_ts, rx_oct),
                    tx_octets=CounterSeries(iface_ts, tx_oct),
                    rx_packets=CounterSeries(iface_ts, rx_pkt),
                    tx_packets=CounterSeries(iface_ts, tx_pkt),
                )
            traces[hostname] = RouterTrace(
                hostname=hostname,
                router_model=agent.router.model_name,
                power=TimeSeries(ts, power[row]),
                interfaces=interfaces,
                inventory=agent.router.inventory(),
            )
        return traces

    def sensor_exports(self) -> List[PsuSensorExport]:
        """One-time P_in/P_out snapshot across the fleet (§9.2)."""
        exports: List[PsuSensorExport] = []
        for agent in self.agents.values():
            exports.extend(agent.sensor_export())
        return exports
