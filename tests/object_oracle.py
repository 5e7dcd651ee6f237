"""The per-object stepping loop: the reference oracle for the engine.

:class:`OracleSimulation` steps a fleet the slow, obvious way -- one
Python call per link, port and router, through the
:class:`~repro.hardware.router.VirtualRouter` objects' own methods --
and the columnar engine (:mod:`repro.network.engine`) must reproduce
its results: counters bit for bit, power within float-summation order.
It overrides only :meth:`NetworkSimulation._run_steps`, so events,
SNMP collection, Autopower, observers and the ledger go through the
same ``run()`` as the engine.

Tests that take an ``engine`` parameter map it to a simulation class
with :data:`SIMULATIONS`; ``"object"`` is this oracle.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro import units
from repro.hardware.router import VirtualRouter
from repro.network import FLEET_PACKET_BYTES, NetworkSimulation
from repro.network.simulation import (M_EVENTS, M_SNMP_POLLS,
                                      M_STEP_SECONDS, StepSnapshot)
from repro.obs import metrics, profile
from repro.obs.ledger import COMPONENTS, LedgerAccumulator


def router_breakdown(router: VirtualRouter, out: np.ndarray) -> float:
    """Fill ``out`` with one router's component watts; return wall power.

    The returned wall power is byte-identical to
    ``router.wall_power_w()``: the chain of method calls (wall-referred
    sum, DC inversion, noise clip, PSU curves) is the same.  Component
    column order matches :data:`repro.obs.ledger.COMPONENTS`; the
    per-port sums accumulate in port order, the same chain of additions
    as the engine's ``np.bincount`` segments.
    """
    if not router.powered:
        out[:] = 0.0
        return 0.0
    base = ((router.spec.p_base_w + router.fan_bump_w)
            + router.thermal_power_w())
    trx_in = 0.0
    port_static = 0.0
    trx_up = 0.0
    sleep = 0.0
    offset = 0.0
    bit = 0.0
    pkt = 0.0
    for port in router.ports:
        s_in, s_port, s_up = port.static_components()
        trx_in += s_in
        port_static += s_port
        trx_up += s_up
        sleep += port.sleep_savings_w()
        traffic = port.traffic
        if ((traffic.rx_bps or traffic.tx_bps) and port.link_up
                and traffic.total_bps > 0):
            truth = port.class_truth()
            if truth is not None:
                offset += truth.p_offset_w
                bit += truth.e_bit_j * traffic.total_bps
                pkt += truth.e_pkt_j * traffic.total_pps
    wall_ref = router.wall_referred_power_w()
    dc = router._dc_from_wall_referred(wall_ref)
    device = router.device_power_w()
    wall = router.psu_group.wall_power(device)
    out[0] = base
    out[1] = trx_in
    out[2] = port_static
    out[3] = trx_up
    out[4] = offset
    out[5] = bit
    out[6] = pkt
    out[7] = dc - wall_ref
    out[8] = device - dc
    out[9] = wall - device
    out[10] = sleep
    return wall


class OracleSimulation(NetworkSimulation):
    """A :class:`NetworkSimulation` stepped one object at a time."""

    engine_name = "object"

    def _apply_traffic(self, t_s: float) -> float:
        """Set offered traffic on every port; returns total ingress bps."""
        external_rates = self.traffic.external_rates_at(t_s)
        internal_rates = self.traffic.internal_rates_at(t_s)
        total_ingress = 0.0
        for link in self.network.links:
            port_a = self.network.port_of(link.a)
            if link.is_internal:
                rate = internal_rates.get(link.link_id, 0.0)
                rate = min(rate, 0.95 * units.gbps_to_bps(link.speed_gbps))
                port_b = self.network.port_of(link.b)
                port_a.offer_traffic(rx_bps=rate, tx_bps=rate,
                                     packet_bytes=FLEET_PACKET_BYTES)
                port_b.offer_traffic(rx_bps=rate, tx_bps=rate,
                                     packet_bytes=FLEET_PACKET_BYTES)
            else:
                rate = external_rates.get(link.link_id, 0.0)
                if rate == 0.0 and link.link_id in self._new_external_link_ids:
                    # Links added mid-run get a modest default demand.
                    rate = 0.02 * units.gbps_to_bps(link.speed_gbps)
                if not port_a.link_up:
                    rate = 0.0
                port_a.offer_traffic(rx_bps=rate, tx_bps=rate,
                                     packet_bytes=FLEET_PACKET_BYTES)
                total_ingress += rate
        return total_ingress

    def _run_steps(self, step_s, pending, collector, grid, polled_steps,
                   total_power, total_traffic,
                   ledger: Optional[LedgerAccumulator]) -> None:
        event_idx = 0
        region = profile.region
        observing = metrics.enabled()
        observers = self.observers
        step_durations: List[float] = []
        for step in range(len(grid)):
            if observing:
                step_t0 = time.perf_counter()
            t = self.clock_s
            while event_idx < len(pending) and pending[event_idx].at_s <= t:
                M_EVENTS.labels(type=type(pending[event_idx]).__name__).inc()
                pending[event_idx].apply(self)
                event_idx += 1
            with region("kernel.apply_traffic"):
                ingress = self._apply_traffic(t)
            with region("kernel.advance_counters"):
                for router in self.network.routers.values():
                    router.advance(step_s)
            t_sample = self.clock_s = float(grid[step])
            fleet_attr = None
            power_by_host: Dict[str, float] = {}
            if ledger is not None:
                # Summed in the same sequential order as
                # total_wall_power_w(), so totals stay byte-identical
                # with attribution on.
                buf = np.empty((1, len(self.network.routers),
                                len(COMPONENTS)))
                total = 0.0
                with region("kernel.wall_power"):
                    for i, (host, router) in enumerate(
                            self.network.routers.items()):
                        wall = router_breakdown(router, buf[0, i])
                        power_by_host[host] = wall
                        total += wall
                total_power[step] = total
                fleet_attr = ledger.record(
                    [t_sample], step_s, buf,
                    np.array([list(power_by_host.values())]))[0]
            elif observers:
                with region("kernel.wall_power"):
                    power_by_host = {host: router.wall_power_w()
                                     for host, router
                                     in self.network.routers.items()}
                    total = 0.0
                    for value in power_by_host.values():
                        total += value
                total_power[step] = total
            else:
                with region("kernel.wall_power"):
                    total_power[step] = self.network.total_wall_power_w()
            total_traffic[step] = ingress
            polled = bool(polled_steps[step])
            if polled:
                M_SNMP_POLLS.inc()
                collector.record(t_sample)
            for client in self.autopower_clients.values():
                client.tick(t_sample)
            if observers:
                with region("kernel.observers"):
                    snapshot = StepSnapshot(
                        step=step, t_s=t_sample, step_s=step_s,
                        total_power_w=float(total_power[step]),
                        total_traffic_bps=float(ingress),
                        power_by_host=power_by_host, snmp_polled=polled,
                        attribution=(None if fleet_attr is None else
                                     {name: float(fleet_attr[k])
                                      for k, name in enumerate(COMPONENTS)}))
                    for observer in observers:
                        observer.on_step(snapshot)
            if observing:
                step_durations.append(time.perf_counter() - step_t0)
        if step_durations:
            M_STEP_SECONDS.labels(engine=self.engine_name).observe_many(
                step_durations)


#: Simulation class per ``engine`` test parameter.
SIMULATIONS = {"object": OracleSimulation, "vector": NetworkSimulation}
