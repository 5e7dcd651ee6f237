"""The engine consumes each router's private RNG in the oracle's order.

Between events a router's generator feeds two consumers: the AR(1)
ambient noise (every step, when the router has noise and is powered) and
its PSU sensor (every SNMP poll, when powered and the platform reports
power).  The object oracle (``tests/object_oracle.py``) draws them one
scalar at a time; the engine draws each router's normals for a block of
steps in one call and applies both as column operations.  These tests pin the
two to bitwise-equal readings and identical generator states, over all
four §6.2 sensor quirks, noise on and off, both poll cadences, and the
events that change who draws (power cycles redraw the sensor bias and
reset the plateau; decommissioning stops both draws).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import pytest

from repro.hardware.catalog import PsuSensorQuirk
from repro.network import (
    Commission,
    Decommission,
    FleetConfig,
    FleetTrafficModel,
    PowerCycle,
    build_switch_like_network,
)
from repro.network.engine import DRAW_BLOCK_STEPS
from repro.network.simulation import StepObserver
from tests.object_oracle import SIMULATIONS

# OFFSET, PSEUDO_CONSTANT, ACCURATE and ABSENT platforms, two or more each.
CONFIG = FleetConfig(
    model_counts=(("8201-32FH", 2), ("NCS-55A1-24H", 2),
                  ("ASR-920-24SZ-M", 3), ("N540X-8Z16G-SYS-A", 2)),
    n_regional_pops=2, core_core_links=2)

#: Long enough for several draw blocks of 300 s steps.
DURATION_S = 12 * 3600.0


class LastPowerProbe(StepObserver):
    """Reads the collector's latest reading of every router each step."""

    def __init__(self) -> None:
        self.readings: List[Dict[str, Optional[float]]] = []
        self.collector = None

    def on_run_start(self, sim, engine, collector, step_s, n_steps) -> None:
        self.collector = collector

    def on_step(self, snapshot) -> None:
        self.readings.append({host: self.collector.last_power(host)
                              for host in self.collector.agents})


def _build(engine: str = "vector"):
    network = build_switch_like_network(CONFIG,
                                        rng=np.random.default_rng(21))
    by_quirk: Dict[PsuSensorQuirk, List[str]] = {}
    for host, router in network.routers.items():
        by_quirk.setdefault(router.spec.psu_quirk, []).append(host)
    # Ambient noise off on one router of every quirk, so every mix of
    # "draws ambient" x "draws sensor" is present.
    for hosts in by_quirk.values():
        network.routers[hosts[-1]].noise_std_w = 0.0
    traffic = FleetTrafficModel(network, rng=np.random.default_rng(22))
    sim = SIMULATIONS[engine](network, traffic,
                              rng=np.random.default_rng(23))
    return network, sim, by_quirk


def _events(by_quirk):
    pseudo = by_quirk[PsuSensorQuirk.PSEUDO_CONSTANT]
    accurate = by_quirk[PsuSensorQuirk.ACCURATE]
    absent = by_quirk[PsuSensorQuirk.ABSENT]
    return [
        PowerCycle(at_s=2 * 3600.0, hostname=pseudo[0]),
        # Off the step grid: fires at the next step start.
        PowerCycle(at_s=3 * 3600.0 + 100.0, hostname=pseudo[1]),
        Decommission(at_s=4 * 3600.0, hostname=accurate[0]),
        Decommission(at_s=4 * 3600.0, hostname=absent[0]),
        Commission(at_s=7 * 3600.0, hostname=accurate[0]),
        Commission(at_s=9 * 3600.0 + 300.0, hostname=absent[0]),
    ]


def _run(engine: str, snmp_period_s: float, with_events: bool):
    network, sim, by_quirk = _build(engine)
    probe = sim.add_observer(LastPowerProbe())
    events = _events(by_quirk) if with_events else []
    result = sim.run(duration_s=DURATION_S, step_s=300.0, events=events,
                     snmp_period_s=snmp_period_s)
    return network, result, probe


def test_fleet_covers_every_quirk_with_noise_on_and_off():
    network, _sim, by_quirk = _build()
    assert set(by_quirk) == set(PsuSensorQuirk)
    for hosts in by_quirk.values():
        noise = {network.routers[h].noise_std_w > 0.0 for h in hosts}
        assert noise == {True, False}
    assert DURATION_S / 300.0 > 2 * DRAW_BLOCK_STEPS


@pytest.mark.parametrize("with_events", [False, True])
@pytest.mark.parametrize("snmp_period_s", [300.0, 900.0])
def test_engines_draw_identically(snmp_period_s, with_events):
    net_o, res_o, probe_o = _run("object", snmp_period_s, with_events)
    net_v, res_v, probe_v = _run("vector", snmp_period_s, with_events)

    assert sorted(res_o.snmp) == sorted(res_v.snmp)
    reported = 0
    for host in res_o.snmp:
        power_o = res_o.snmp[host].power
        power_v = res_v.snmp[host].power
        assert power_o.timestamps.tobytes() == power_v.timestamps.tobytes()
        assert power_o.values.tobytes() == power_v.values.tobytes(), host
        reported += int(np.isfinite(power_o.values).sum())
    assert reported > 0
    for host in net_o.routers:
        state_o = net_o.routers[host].rng.bit_generator.state
        state_v = net_v.routers[host].rng.bit_generator.state
        assert state_o == state_v, host
        assert (net_o.routers[host]._noise_state
                == net_v.routers[host]._noise_state), host
    assert res_o.sensor_exports == res_v.sensor_exports
    assert len(probe_o.readings) == len(probe_v.readings) == int(
        DURATION_S / 300.0)
    assert probe_o.readings == probe_v.readings


def test_events_change_who_draws():
    """The event mix really toggles readings: dark routers report NaN
    while decommissioned, and a power cycle moves the pseudo-constant
    plateau by a fresh per-boot bias."""
    _net, result, _probe = _run("vector", 300.0, True)
    _net, quiet, _probe = _run("vector", 300.0, False)
    _network, _sim, by_quirk = _build()
    accurate = by_quirk[PsuSensorQuirk.ACCURATE][0]
    power = result.snmp[accurate].power
    dark = (power.timestamps > 4 * 3600.0) & (power.timestamps <= 7 * 3600.0)
    assert np.isnan(power.values[dark]).all()
    assert np.isfinite(power.values[~dark]).all()
    pseudo = by_quirk[PsuSensorQuirk.PSEUDO_CONSTANT][0]
    before = result.snmp[pseudo].power.timestamps <= 2 * 3600.0
    np.testing.assert_array_equal(
        result.snmp[pseudo].power.values[before],
        quiet.snmp[pseudo].power.values[before])
    assert not np.array_equal(result.snmp[pseudo].power.values[~before],
                              quiet.snmp[pseudo].power.values[~before])
