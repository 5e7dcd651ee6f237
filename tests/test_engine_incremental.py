"""Incremental event-boundary refresh on synthetic fleets.

The columnar engine patches router columns in place at event boundaries
(``FleetState.patch_routers``) instead of rebuilding the whole
configuration, and promises the optimization is *unobservable*: with
every event's dirty set withheld (:func:`full_rebuild`), the same seeded
run must produce bitwise-identical traces.  These tests drive randomized
seeded event schedules over a generated multi-tier fleet
(:mod:`repro.network.synth`) and compare three runs per schedule --
the object oracle (``tests/object_oracle.py``), incremental and full
rebuild -- plus the generator's own determinism contract and the
observability on/off byte-identity promise at the same scale.
"""

from __future__ import annotations

import contextlib
from typing import Optional

import numpy as np
import pytest

from repro.hardware.transceiver import compatible, transceiver
from repro.network import (
    AddExternalInterface,
    DeployAutopower,
    FleetEvent,
    FleetInventory,
    FleetTrafficModel,
    HeatWave,
    OsUpdate,
    PowerCycle,
    SetAdminState,
    UnplugModule,
    generate_synth_network,
    synth_config,
)
from repro.network.engine import FleetState
from repro.obs import metrics
from tests.object_oracle import SIMULATIONS

PRESET = "synth-200"
STEP_S = 300.0
N_STEPS = 40


def _build(seed: int = 11, engine: str = "vector"):
    network = generate_synth_network(synth_config(PRESET),
                                     rng=np.random.default_rng(seed))
    traffic = FleetTrafficModel(network, rng=np.random.default_rng(seed + 1),
                                n_demands=60)
    sim = SIMULATIONS[engine](network, traffic,
                              rng=np.random.default_rng(seed + 2))
    return network, sim


def _event_classes(cls=FleetEvent):
    yield cls
    for sub in cls.__subclasses__():
        yield from _event_classes(sub)


@contextlib.contextmanager
def full_rebuild():
    """Every event declares no dirty set, so every event boundary
    rebuilds the whole columnar configuration."""
    saved = {cls: cls.__dict__["dirty_hosts"] for cls in _event_classes()
             if "dirty_hosts" in cls.__dict__}
    try:
        for cls in saved:
            cls.dirty_hosts = lambda self, simulation: None
        yield
    finally:
        for cls, method in saved.items():
            cls.dirty_hosts = method


def _random_events(schedule_seed: int, hosts):
    """A seeded random mix of patchable events (no topology reshapes)."""
    rng = np.random.default_rng(schedule_seed)
    events = []
    for _ in range(int(rng.integers(5, 10))):
        at_s = float(rng.integers(1, N_STEPS)) * STEP_S
        host = hosts[int(rng.integers(len(hosts)))]
        kind = int(rng.integers(6))
        if kind == 0:
            events.append(SetAdminState(
                at_s=at_s, hostname=host,
                port_index=int(rng.integers(4)),
                up=bool(rng.integers(2))))
        elif kind == 1:
            events.append(UnplugModule(
                at_s=at_s, hostname=host,
                port_index=int(rng.integers(4))))
        elif kind == 2:
            events.append(PowerCycle(at_s=at_s, hostname=host))
        elif kind == 3:
            events.append(OsUpdate(at_s=at_s, hostname=host))
        elif kind == 4:
            events.append(HeatWave(
                at_s=at_s, ambient_c=25.0 + float(rng.integers(6))))
        else:
            events.append(DeployAutopower(at_s=at_s, hostname=host))
    events.sort(key=lambda e: e.at_s)
    return events


def preload_counters(network, value: int) -> None:
    """Start every counter of every port at ``value``."""
    for router in network.routers.values():
        for port in router.ports:
            counters = port.counters
            counters.rx_octets = counters.tx_octets = value
            counters.rx_packets = counters.tx_packets = value


def _run(engine: str, events, incremental: bool = True, seed: int = 11,
         preload: Optional[int] = None, **run_kwargs):
    """One seeded run; ``preload`` starts every counter at that value."""
    with contextlib.nullcontext() if incremental else full_rebuild():
        network, sim = _build(seed, engine)
        if preload is not None:
            preload_counters(network, preload)
        result = sim.run(duration_s=N_STEPS * STEP_S, step_s=STEP_S,
                         events=list(events), **run_kwargs)
    return network, result


def _assert_bitwise_identical(r1, r2):
    """Incremental vs full rebuild: every float and counter identical."""
    np.testing.assert_array_equal(r1.total_power.values,
                                  r2.total_power.values)
    np.testing.assert_array_equal(r1.total_traffic_bps.values,
                                  r2.total_traffic_bps.values)
    assert set(r1.snmp) == set(r2.snmp)
    for host in r1.snmp:
        np.testing.assert_array_equal(r1.snmp[host].power.values,
                                      r2.snmp[host].power.values,
                                      err_msg=host)
        for name, tr1 in r1.snmp[host].interfaces.items():
            tr2 = r2.snmp[host].interfaces[name]
            np.testing.assert_array_equal(tr1.rx_octets.counts,
                                          tr2.rx_octets.counts,
                                          err_msg=f"{host}/{name}")
            np.testing.assert_array_equal(tr1.tx_packets.counts,
                                          tr2.tx_packets.counts,
                                          err_msg=f"{host}/{name}")


def _assert_matches_object(net_obj, r_obj, net_vec, r_vec):
    """Engine vs oracle: power within 1e-9, counters bitwise equal."""
    np.testing.assert_allclose(r_obj.total_power.values,
                               r_vec.total_power.values, rtol=1e-9)
    np.testing.assert_allclose(r_obj.total_traffic_bps.values,
                               r_vec.total_traffic_bps.values, rtol=1e-9)
    for host in net_obj.routers:
        c1 = net_obj.routers[host].interface_counters()
        c2 = net_vec.routers[host].interface_counters()
        assert set(c1) == set(c2)
        for name in c1:
            assert c1[name] == c2[name], (host, name)


class TestSynthFleetEquivalence:
    def test_synth_fleet_is_vectorizable(self):
        network, sim = _build()
        FleetState(network, sim.traffic)   # raises on a curve it can't collapse

    @pytest.mark.parametrize("schedule_seed", [101, 202, 303])
    def test_random_schedule_incremental_full_and_object_agree(
            self, schedule_seed):
        hosts = sorted(_build()[0].routers)
        events = _random_events(schedule_seed, hosts)
        net_obj, r_obj = _run("object", events)
        net_inc, r_inc = _run("vector", events, incremental=True)
        net_full, r_full = _run("vector", events, incremental=False)
        _assert_bitwise_identical(r_inc, r_full)
        _assert_matches_object(net_obj, r_obj, net_inc, r_inc)

    @pytest.mark.parametrize("preload", [2 ** 53 + 1, 2 ** 64 - 10 ** 6])
    def test_random_schedule_agrees_at_large_counters(self, preload):
        hosts = sorted(_build()[0].routers)
        events = _random_events(202, hosts)
        net_obj, r_obj = _run("object", events, preload=preload)
        net_inc, r_inc = _run("vector", events, preload=preload)
        net_full, r_full = _run("vector", events, incremental=False,
                                preload=preload)
        _assert_bitwise_identical(r_inc, r_full)
        _assert_matches_object(net_obj, r_obj, net_inc, r_inc)
        _assert_matches_object(net_obj, r_obj, net_full, r_full)

    def test_full_rebuild_hook_forces_full_rebuilds(self):
        events = _random_events(101, sorted(_build()[0].routers))
        with metrics.use_registry(metrics.MetricsRegistry()) as reg:
            _run("vector", events, incremental=False)
            partial = reg.get("netpower_sim_engine_partial_refresh_total")
            assert partial is None or partial.default().value == 0

    def test_incremental_path_actually_ran(self):
        hosts = sorted(_build()[0].routers)
        events = _random_events(101, hosts)
        with metrics.use_registry(metrics.MetricsRegistry()) as reg:
            _run("vector", events, incremental=True)
            partial = reg.get(
                "netpower_sim_engine_partial_refresh_total")
            patched = reg.get(
                "netpower_sim_engine_router_columns_patched_total")
            assert partial is not None and partial.default().value > 0
            assert patched is not None and patched.default().value > 0

    def test_topology_reshape_forces_full_rebuild(self):
        network, _ = _build()
        target = None
        for host in sorted(network.routers):
            router = network.routers[host]
            for idx, port in enumerate(router.ports):
                if not port.plugged and compatible(
                        port.port_type, transceiver("SFP-1G-LX").model):
                    target = (host, idx)
                    break
            if target:
                break
        assert target, "synthetic fleet should keep spare SFP ports"
        events = [AddExternalInterface(at_s=5 * STEP_S, hostname=target[0],
                                       port_index=target[1],
                                       trx_name="SFP-1G-LX")]
        with metrics.use_registry(metrics.MetricsRegistry()) as reg:
            _, r_inc = _run("vector", events, incremental=True)
            partial = reg.get("netpower_sim_engine_partial_refresh_total")
            refresh = reg.get("netpower_sim_engine_refresh_total")
            # The reshape must fall back to a full rebuild: at least two
            # refreshes (construction + the boundary), zero patches.
            assert partial is None or partial.default().value == 0
            assert refresh is not None and refresh.default().value >= 2
        _, r_full = _run("vector", events, incremental=False)
        _assert_bitwise_identical(r_inc, r_full)


class TestSynthDeterminism:
    def test_same_seed_builds_byte_identical_fleet(self):
        net1 = generate_synth_network(synth_config(PRESET),
                                      rng=np.random.default_rng(11))
        net2 = generate_synth_network(synth_config(PRESET),
                                      rng=np.random.default_rng(11))
        json1 = FleetInventory.capture(net1).to_json()
        json2 = FleetInventory.capture(net2).to_json()
        assert json1 == json2

    def test_different_seed_differs(self):
        net1 = generate_synth_network(synth_config(PRESET),
                                      rng=np.random.default_rng(11))
        net2 = generate_synth_network(synth_config(PRESET),
                                      rng=np.random.default_rng(12))
        assert (FleetInventory.capture(net1).to_json()
                != FleetInventory.capture(net2).to_json())

    def test_same_seed_runs_byte_identical(self):
        _, r1 = _run("vector", _random_events(202, sorted(_build()[0].routers)))
        _, r2 = _run("vector", _random_events(202, sorted(_build()[0].routers)))
        _assert_bitwise_identical(r1, r2)


class TestObservabilityByteIdentity:
    """Metrics on vs off must not change a single simulated byte."""

    def test_live_registry_run_is_bitwise_identical(self):
        hosts = sorted(_build()[0].routers)
        events = _random_events(303, hosts)
        _, bare = _run("vector", events)
        with metrics.use_registry(metrics.MetricsRegistry()):
            _, observed = _run("vector", events)
        _assert_bitwise_identical(bare, observed)
