"""Block stepping never changes a bit.

Between event boundaries the engine evaluates a block of steps per
kernel call (``repro.network.engine.BLOCK_ELEMENTS`` sizes it); these
tests pin every output of a run with the default blocks to the same run
stepped one step per block, on the paper's fleet with everything that
reads mid-block state attached: SNMP polls that land inside blocks, the
energy ledger, step observers, view-host syncing, Autopower ticks,
events, and a detailed host whose counters wrap at 2^64 inside a block.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.hardware.psu import SharingPolicy
from repro.monitor import FleetMonitor, build_snapshot, snapshot_json
from repro.monitor.aggregate import AggregatingObserver
from repro.monitor.core import MonitorConfig
from repro.network import (
    FleetTrafficModel,
    NetworkSimulation,
    OsUpdate,
    PowerCycle,
    SetAdminState,
    UnplugModule,
    build_switch_like_network,
    engine,
)
from repro.network.simulation import StepObserver

STEP_S = 300.0
DURATION_S = 12 * 3600.0


def _build():
    network = build_switch_like_network(rng=np.random.default_rng(7))
    traffic = FleetTrafficModel(network, rng=np.random.default_rng(8))
    sim = NetworkSimulation(network, traffic, rng=np.random.default_rng(9))
    return network, sim


def _hosts():
    hosts = sorted(_build()[0].routers)
    return {"wrap": hosts[5], "autopower": (hosts[20], hosts[40]),
            "events": (hosts[1], hosts[2], hosts[3])}


def _run(preload: Optional[Dict[str, Tuple[int, ...]]] = None):
    """The scenario; ``preload`` sets the wrap host's counters by port."""
    hosts = _hosts()
    network, sim = _build()
    wrap_host = hosts["wrap"]
    for port in network.routers[wrap_host].ports:
        if preload is not None and port.name in preload:
            counters = port.counters
            (counters.rx_octets, counters.tx_octets,
             counters.rx_packets, counters.tx_packets) = preload[port.name]
    for host in hosts["autopower"]:
        sim.deploy_autopower(host)
    aggregate = sim.add_observer(AggregatingObserver())
    monitor = sim.add_observer(FleetMonitor(
        config=MonitorConfig(hosts=hosts["autopower"])))
    h1, h2, h3 = hosts["events"]
    events = [
        # Off the block grid, and off the step grid.
        SetAdminState(at_s=2 * 3600.0, hostname=h1, port_index=0, up=False),
        OsUpdate(at_s=4 * 3600.0 + 100.0, hostname=h2),
        UnplugModule(at_s=5 * 3600.0 + 600.0, hostname=h3, port_index=1),
        PowerCycle(at_s=8 * 3600.0 + 900.0, hostname=h1),
    ]
    result = sim.run(duration_s=DURATION_S, step_s=STEP_S, events=events,
                     snmp_period_s=900.0,
                     detailed_hosts=[wrap_host, *hosts["autopower"]],
                     attribution=True)
    return network, sim, result, aggregate, monitor


def _wrap_preload() -> Dict[str, Tuple[int, ...]]:
    """Counter starts that wrap between the wrap host's 5th and 6th
    polls (steps 12 and 15), inside the first block."""
    network, _sim = _build()
    wrap_host = _hosts()["wrap"]
    start = {port.name: (port.counters.rx_octets, port.counters.tx_octets,
                         port.counters.rx_packets, port.counters.tx_packets)
             for port in network.routers[wrap_host].ports}
    _network, _sim, probe, _agg, _mon = _run()
    preload = {}
    for name, trace in probe.snmp[wrap_host].interfaces.items():
        starts = []
        for v0, series in zip(start[name], (
                trace.rx_octets, trace.tx_octets, trace.rx_packets,
                trace.tx_packets)):
            d4, d5 = (int(c) - v0 for c in series.counts[4:6])
            starts.append(2 ** 64 - (d4 + d5) // 2 if d5 > d4 else v0)
        preload[name] = tuple(starts)
    return preload


def _object_state(network) -> List:
    """Every router's and port's dynamic state, floats as hex (NaN
    plateaus compare equal)."""
    state: List = []
    for host in sorted(network.routers):
        router = network.routers[host]
        state.append((host, router.rng.bit_generator.state, *(
            float(v).hex() for v in (router._noise_state,
                                     router._pseudo_constant_basis,
                                     router._sensor_bias_w))))
        for port in router.ports:
            counters = port.counters
            traffic = port.traffic
            state.append((port.name, counters.rx_octets, counters.tx_octets,
                          counters.rx_packets, counters.tx_packets, *(
                              float(v).hex() for v in (
                                  traffic.rx_bps, traffic.tx_bps,
                                  traffic.packet_bytes))))
    return state


def test_block_length_never_changes_a_bit(monkeypatch):
    preload = _wrap_preload()
    blocked = _run(preload)
    monkeypatch.setattr(engine, "BLOCK_ELEMENTS", 1)
    stepped = _run(preload)

    net_b, sim_b, res_b, agg_b, mon_b = blocked
    net_s, sim_s, res_s, agg_s, mon_s = stepped
    assert sim_b.last_engine.state.block_steps > 16
    assert sim_s.last_engine.state.block_steps == 1

    for series in ("total_power", "total_traffic_bps"):
        b, s = getattr(res_b, series), getattr(res_s, series)
        assert b.timestamps.tobytes() == s.timestamps.tobytes()
        assert b.values.tobytes() == s.values.tobytes(), series
    assert sorted(res_b.snmp) == sorted(res_s.snmp)
    wrapped = 0
    for host, trace_b in res_b.snmp.items():
        trace_s = res_s.snmp[host]
        assert trace_b.power.timestamps.tobytes() == \
            trace_s.power.timestamps.tobytes()
        assert trace_b.power.values.tobytes() == \
            trace_s.power.values.tobytes(), host
        assert sorted(trace_b.interfaces) == sorted(trace_s.interfaces)
        for name, iface_b in trace_b.interfaces.items():
            iface_s = trace_s.interfaces[name]
            for field in ("rx_octets", "tx_octets", "rx_packets",
                          "tx_packets"):
                counts_b = getattr(iface_b, field).counts
                counts_s = getattr(iface_s, field).counts
                assert counts_b.tobytes() == counts_s.tobytes(), \
                    (host, name, field)
                wrapped += int(np.any(np.diff(counts_b.astype(object)) < 0))
    assert wrapped > 0
    assert res_b.ledger.energy_j.tobytes() == res_s.ledger.energy_j.tobytes()
    assert res_b.ledger.max_residual_w == res_s.ledger.max_residual_w
    assert res_b.ledger.conserved()
    assert res_b.autopower.keys() == res_s.autopower.keys()
    for host, series in res_b.autopower.items():
        assert series.values.tobytes() == \
            res_s.autopower[host].values.tobytes(), host
    assert agg_b.to_dict() == agg_s.to_dict()
    assert snapshot_json(build_snapshot(mon_b)) == \
        snapshot_json(build_snapshot(mon_s))
    assert _object_state(net_b) == _object_state(net_s)


class DevicePowerProbe(StepObserver):
    """Records one router's object-side device power every step."""

    def __init__(self, host: str) -> None:
        self.host = host
        self.device_w: List[float] = []
        self.router = None

    def view_hosts(self):
        return (self.host,)

    def on_run_start(self, sim, engine_name, collector, step_s,
                     n_steps) -> None:
        self.router = sim.network.routers[self.host]

    def on_step(self, snapshot) -> None:
        self.device_w.append(self.router.device_power_w())


def _overload_run(host: str, capacity_w: Optional[float] = None):
    network, sim = _build()
    router = network.routers[host]
    if capacity_w is not None:
        for psu in router.psu_group.instances:
            psu.model = dataclasses.replace(psu.model, capacity_w=capacity_w)
    probe = sim.add_observer(DevicePowerProbe(host))
    with pytest.raises(ValueError) as excinfo:
        sim.run(duration_s=DURATION_S, step_s=STEP_S)
    return str(excinfo.value), len(probe.device_w)


def test_psu_overload_inside_a_block_names_the_first_overloading_step(
        monkeypatch):
    network, sim = _build()
    host = next(h for h in sorted(network.routers)
                if network.routers[h].psu_group.policy
                == SharingPolicy.BALANCED)
    n_psus = len(network.routers[host].psu_group.instances)
    probe = sim.add_observer(DevicePowerProbe(host))
    sim.run(duration_s=DURATION_S, step_s=STEP_S)
    block_steps = sim.last_engine.state.block_steps
    share = np.array(probe.device_w[:block_steps]) / n_psus
    # The first block's busiest step m overloads a PSU sized between
    # its share and every earlier step's.
    m = int(np.argmax(share[1:])) + 1
    assert share[m] > share[:m].max()
    capacity_w = (share[m] + share[:m].max()) / 2.0 / 1.05

    blocked_message, blocked_steps = _overload_run(host, capacity_w)
    monkeypatch.setattr(engine, "BLOCK_ELEMENTS", 1)
    stepped_message, stepped_steps = _overload_run(host, capacity_w)
    # Stepping one step per block, steps 0..m-1 completed first.
    assert stepped_steps == m
    # The whole first block fails before any of its steps completes.
    assert blocked_steps == 0
    assert blocked_message == stepped_message
    assert blocked_message.startswith("PSU overloaded: asked for ")
    assert blocked_message.endswith(f" out of a {capacity_w:.0f} W supply")
