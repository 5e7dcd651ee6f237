"""The engine must reproduce the object oracle's results.

The columnar engine (:mod:`repro.network.engine`) promises stream-exact
RNG consumption, float-association-exact arithmetic and exact integer
counters, so two fleets built from identical seeds and run through the
engine and the per-object oracle (``tests/object_oracle.py``) must
agree on every observable: total power and traffic, per-router SNMP
power traces, interface counters (bitwise, at any magnitude up to and
across the 2^64 wrap), Autopower series, sensor exports, and the
post-run object state.  These tests run the comparison with and
without a mid-run event mix that exercises every invalidation path
(topology changes, power cycles, Autopower deployment, thermal events).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.psu import PSUInstance, make_psu_model
from repro.network import (
    AddExternalInterface,
    Commission,
    Decommission,
    DeployAutopower,
    FleetConfig,
    FleetTrafficModel,
    HeatWave,
    OsUpdate,
    PowerCycle,
    SetAdminState,
    UnplugModule,
    build_switch_like_network,
)
from repro.network.engine import FleetState
from tests.object_oracle import SIMULATIONS
from tests.test_engine_incremental import preload_counters

CONFIG = FleetConfig(
    model_counts=(("8201-32FH", 2), ("NCS-55A1-24H", 3),
                  ("NCS-55A1-24Q6H-SS", 3), ("ASR-920-24SZ-M", 6),
                  ("N540-24Z8Q2C-M", 4)),
    n_regional_pops=3, core_core_links=2)


def _build(engine: str = "vector"):
    network = build_switch_like_network(CONFIG, rng=np.random.default_rng(7))
    traffic = FleetTrafficModel(network, rng=np.random.default_rng(8))
    sim = SIMULATIONS[engine](network, traffic,
                              rng=np.random.default_rng(9))
    return network, sim


def _event_mix():
    """One of everything, aimed at stable hostnames of the test fleet."""
    network, _ = _build()
    hosts = sorted(network.routers)
    h0, h1, h2, h3 = hosts[0], hosts[3], hosts[6], hosts[10]
    return h2, [
        SetAdminState(at_s=1800, hostname=h0, port_index=0, up=False),
        UnplugModule(at_s=3600, hostname=h1, port_index=1),
        DeployAutopower(at_s=5400, hostname=h2),
        OsUpdate(at_s=7200, hostname=h0),
        PowerCycle(at_s=9000, hostname=h1),
        Decommission(at_s=10800, hostname=h3),
        Commission(at_s=14400, hostname=h3),
        AddExternalInterface(at_s=16200, hostname=h3, port_index=6,
                             trx_name="SFP-1G-LX"),
        HeatWave(at_s=18000, ambient_c=29.0),
    ]


def _run_both(duration_s, events=(), preload=None):
    """Oracle run, then engine run, on identical fleets.

    ``preload`` (a counter value) is written into every counter of
    every port before the runs start.
    """
    runs = []
    for engine in ("object", "vector"):
        network, sim = _build(engine)
        if preload is not None:
            preload_counters(network, preload)
        runs.append((network, sim.run(duration_s=duration_s, step_s=300.0,
                                      events=list(events))))
    return runs


def _assert_results_match(net1, r1, net2, r2):
    np.testing.assert_allclose(r1.total_power.values, r2.total_power.values,
                               rtol=1e-9)
    np.testing.assert_allclose(r1.total_traffic_bps.values,
                               r2.total_traffic_bps.values, rtol=1e-9)
    assert set(r1.snmp) == set(r2.snmp)
    for host in r1.snmp:
        p1, p2 = r1.snmp[host].power.values, r2.snmp[host].power.values
        nan1, nan2 = np.isnan(p1), np.isnan(p2)
        assert (nan1 == nan2).all(), host
        np.testing.assert_allclose(p1[~nan1], p2[~nan1], rtol=1e-9,
                                   err_msg=host)
        assert set(r1.snmp[host].interfaces) == set(r2.snmp[host].interfaces)
        for name, tr1 in r1.snmp[host].interfaces.items():
            tr2 = r2.snmp[host].interfaces[name]
            np.testing.assert_array_equal(
                tr1.rx_octets.counts, tr2.rx_octets.counts,
                err_msg=f"{host}/{name}")
            np.testing.assert_array_equal(
                tr1.tx_packets.counts, tr2.tx_packets.counts,
                err_msg=f"{host}/{name}")
    assert set(r1.autopower) == set(r2.autopower)
    for host in r1.autopower:
        np.testing.assert_allclose(r1.autopower[host].values,
                                   r2.autopower[host].values,
                                   rtol=1e-9, err_msg=host)
    assert len(r1.sensor_exports) == len(r2.sensor_exports) > 0
    for e1, e2 in zip(r1.sensor_exports, r2.sensor_exports):
        np.testing.assert_allclose([e1.input_w, e1.output_w],
                                   [e2.input_w, e2.output_w], rtol=1e-9)
    # The engines must leave the object world in the same state too.
    for host in net1.routers:
        c1 = net1.routers[host].interface_counters()
        c2 = net2.routers[host].interface_counters()
        assert set(c1) == set(c2)
        for name in c1:
            assert c1[name].rx_octets == c2[name].rx_octets, (host, name)
            assert c1[name].tx_octets == c2[name].tx_octets, (host, name)
            assert c1[name].rx_packets == c2[name].rx_packets, (host, name)
            assert c1[name].tx_packets == c2[name].tx_packets, (host, name)


class TestEngineEquivalence:
    def test_fleet_is_vectorizable(self):
        network, sim = _build()
        FleetState(network, sim.traffic)   # raises on a curve it can't collapse

    def test_plain_run_matches(self):
        (net1, r1), (net2, r2) = _run_both(duration_s=3600 * 4)
        _assert_results_match(net1, r1, net2, r2)

    def test_event_mix_matches(self):
        autopower_host, events = _event_mix()
        (net1, r1), (net2, r2) = _run_both(duration_s=3600 * 8,
                                           events=events)
        assert set(r1.autopower) == {autopower_host}
        _assert_results_match(net1, r1, net2, r2)

    @pytest.mark.parametrize("preload", [2 ** 53 + 1, 2 ** 64 - 1000])
    def test_counters_bitwise_at_large_magnitudes(self, preload):
        """Past 2^53 a float64 counter drops the increment's low bits,
        and near 2^64 it must wrap; both must match the oracle exactly."""
        (net1, r1), (net2, r2) = _run_both(duration_s=3600,
                                           preload=preload)
        _assert_results_match(net1, r1, net2, r2)
        wrapped = 0
        for router in net2.routers.values():
            for port in router.ports:
                for value in (port.counters.rx_octets,
                              port.counters.tx_packets):
                    assert 0 <= value < 2 ** 64
                    wrapped += value < preload
        assert wrapped > 0 if preload > 2 ** 63 else wrapped == 0


class TestEngineSelection:
    def test_auto_is_default_and_valid(self):
        _, sim = _build()
        result = sim.run(duration_s=1800, step_s=300.0)
        assert len(result.total_power.values) == 6

    def test_invalid_engine_rejected(self):
        _, sim = _build()
        with pytest.raises(ValueError, match="engine"):
            sim.run(duration_s=1800, step_s=300.0, engine="warp")

    def test_object_engine_is_no_longer_selectable(self):
        _, sim = _build()
        with pytest.raises(ValueError, match="engine"):
            sim.run(duration_s=1800, step_s=300.0, engine="object")

    def test_vector_is_accepted(self):
        _, sim = _build()
        result = sim.run(duration_s=1800, step_s=300.0, engine="vector")
        assert len(result.total_power.values) == 6


class TestCounterWrap:
    """An SNMP counter trace across the 2^64 wrap, end to end."""

    STEPS = 4

    def _run(self, engine, host, preload=None):
        network, sim = _build(engine)
        for port in network.routers[host].ports:
            if preload is not None and port.name in preload:
                counters = port.counters
                (counters.rx_octets, counters.tx_octets,
                 counters.rx_packets, counters.tx_packets) = preload[port.name]
        result = sim.run(duration_s=self.STEPS * 300.0, step_s=300.0,
                         snmp_period_s=300.0, detailed_hosts=[host])
        return network, result.snmp[host].interfaces

    def test_snmp_trace_across_the_wrap(self):
        host = sorted(_build()[0].routers)[0]
        # Each counter starts one step plus half of the next step's
        # increment below 2^64, so it wraps during the second step.
        _, probe = self._run("vector", host)
        preload = {}
        for name, trace in probe.items():
            starts = []
            for series in (trace.rx_octets, trace.tx_octets,
                           trace.rx_packets, trace.tx_packets):
                first, second = (int(c) for c in series.counts[:2])
                starts.append(2 ** 64 - first - (second - first) // 2 - 1)
            preload[name] = tuple(starts)
        traces = {engine: self._run(engine, host, preload)
                  for engine in ("object", "vector")}
        wrapped = 0
        for engine, (network, interfaces) in traces.items():
            for port in network.routers[host].ports:
                counters = port.counters
                assert max(counters.rx_octets, counters.tx_octets,
                           counters.rx_packets,
                           counters.tx_packets) < 2 ** 64, (engine, port)
        oracle = traces["object"][1]
        engine = traces["vector"][1]
        assert set(oracle) == set(engine) == set(probe)
        for name, trace in engine.items():
            for field in ("rx_octets", "tx_octets", "rx_packets",
                          "tx_packets"):
                series = getattr(trace, field)
                expected = getattr(oracle[name], field)
                assert series.counts.tobytes() == \
                    expected.counts.tobytes(), (name, field)
                wrapped += int(np.any(np.diff(series.counts.astype(
                    object)) < 0))
                rates = series.rates()
                assert not np.isnan(rates.values).any(), (name, field)
                assert rates.values.tobytes() == \
                    expected.rates().values.tobytes(), (name, field)
        assert wrapped > 0


class TestUnsupportedPsuCurve:
    def test_offset_curve_psu_raises_naming_the_router(self):
        network, sim = _build()
        host = sorted(network.routers)[3]
        group = network.routers[host].psu_group
        # make_psu_model's rating curve is an OffsetCurve, which has no
        # closed-form quadratic loss; the catalog routers never use it.
        group.instances[0] = PSUInstance(
            model=make_psu_model(group.instances[0].capacity_w))
        with pytest.raises(ValueError, match=f"{host}: PSU curve OffsetCurve"):
            sim.run(duration_s=1800, step_s=300.0)
