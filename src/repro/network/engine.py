"""The fleet-simulation stepping engine: columnar state over NumPy arrays.

Every port in the fleet is flattened into structure-of-arrays columns --
static power, ``e_bit``/``e_pkt``, offered rx/tx rates, link-up masks,
router ownership indices -- so a simulation step is a few array
operations (scatter the link rates, accumulate counters, segment-sum
power per router) instead of O(ports) Python calls through the
:class:`~repro.hardware.router.VirtualRouter` objects.  Between event
boundaries the kernels evaluate a block of steps per call, as ``(steps,
columns)`` matrices sized by :data:`BLOCK_ELEMENTS`: narrow fleets,
where NumPy call overhead rather than arithmetic sets the cost, step
dozens of steps per call, wide fleets one (docs/PERFORMANCE.md, "Block
stepping").

Contracts that keep the columns exactly equivalent to stepping the
objects one at a time (the per-object loop survives as the reference
oracle in ``tests/object_oracle.py``):

* **Objects stay the source of truth.**  Events mutate the
  :class:`~repro.hardware.router.VirtualRouter` objects; the columnar
  state is a *cache* that is flushed to the objects before any event
  fires and refreshed afterwards (the same ``_mark_dirty`` philosophy
  as the router's own static-power cache, hoisted to fleet scope).
  Events that declare a *dirty set* of routers
  (:meth:`~repro.network.events.FleetEvent.dirty_hosts`) get the
  incremental treatment: only those routers' columns are flushed,
  re-snapshot, and patched in place -- O(router), not O(fleet) -- while
  events that reshape the link list force a full rebuild.  Both paths
  produce bit-identical columns.  At the end of a run all counters,
  offered traffic, noise states and sensor plateaus are written back,
  so post-run object inspection sees the run's final state.
* **Identical RNG streams.**  NumPy ``Generator`` array draws consume the
  underlying bit stream in C order, exactly like the equivalent
  sequence of scalar draws.  The traffic model's demand noise for a
  block of steps is one ``lognormal`` call whose ``(steps, externals +
  1)`` sigma matrix lays each step's draws out in scalar order
  (externals, then the internal factor), so every value and the
  stream's final state match one scalar step after the other.
  Per-router draws (AR(1) ambient noise, PSU sensor noise) come from
  per-router generators: each router's standard normals for a block of
  steps are drawn in one call, laid out in the order a scalar step
  consumes them, and used one row per step (see
  :meth:`FleetState.draw_block` and docs/PERFORMANCE.md, "Per-router
  draw order").
* **Identical arithmetic where it matters.**  Elementwise array formulas
  mirror the scalar expressions' association order, and the
  DC-inversion interpolation reuses each router's own
  ``_inversion_grid``.  Remaining differences (pairwise vs. sequential
  summation, fused constant factors) stay within ~1e-12 relative error.
  The block length never changes a bit: a block's per-router sums use
  one ``np.bincount`` bucket per (step, router), filled in port order.
* **Exact counters.**  The four interface counters are ``uint64``
  columns that gain the whole part of each step's increment and wrap at
  2^64 natively -- the integer equation of
  :meth:`~repro.hardware.router.Counters.add` -- so they are exact at
  any magnitude.

PSU curves must collapse to scaled quadratics (:func:`_collapse_curve`);
every simulated router's ``rating_curve`` does, and any other curve is a
``ValueError`` naming the router.
"""

from __future__ import annotations

import time
from typing import (TYPE_CHECKING, Dict, FrozenSet, List, Optional,
                    Sequence, Tuple)

import numpy as np

from repro import units
from repro.activity import carrying_traffic_mask
from repro.hardware.psu import QuadraticLossCurve, ScaledLossCurve, SharingPolicy
from repro.hardware.router import (OfferedTraffic, Port, PsuSensorQuirk,
                                   VirtualRouter, ambient_noise_coefficients,
                                   ambient_noise_step, psu_sensor_power)
from repro.obs import metrics

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.network.events import FleetEvent
    from repro.obs.ledger import LedgerAccumulator
    from repro.telemetry.snmp import SnmpCollector

#: PSU sensor quirks in the order of the ``sensor_quirk`` column codes.
_QUIRKS: Tuple[PsuSensorQuirk, ...] = tuple(PsuSensorQuirk)
_ABSENT = _QUIRKS.index(PsuSensorQuirk.ABSENT)

#: Average payload size assigned to fleet traffic (IMIX-flavoured).
FLEET_PACKET_BYTES = 700.0

#: Most steps one block of pre-drawn per-router normals covers (at most
#: two draws per router per step: ambient noise and the SNMP poll), and
#: so the most steps one block of traffic, counters, noise and power
#: covers.
DRAW_BLOCK_STEPS = 64

#: Element budget of one block's ``(steps, active ports)`` matrices:
#: the paper's 107-router fleet (914 active ports) steps 35 steps per
#: kernel call, fleets with over 2^15 active ports one step at a time.
#: Twice the budget saves roughly another 10 % of run time there, at
#: ~4 % more peak RSS over a simulated month (allocator growth).
BLOCK_ELEMENTS = 2 ** 15

M_REFRESH = metrics.counter(
    "netpower_sim_engine_refresh_total",
    "Columnar configuration rebuilds (construction + event boundaries)")
M_EVENT_BOUNDARIES = metrics.counter(
    "netpower_sim_engine_event_boundaries_total",
    "Vectorized-run steps that flushed columns to apply events")
M_PARTIAL_REFRESH = metrics.counter(
    "netpower_sim_engine_partial_refresh_total",
    "Event boundaries served by incremental column patches "
    "(no full rebuild)")
M_ROUTERS_PATCHED = metrics.counter(
    "netpower_sim_engine_router_columns_patched_total",
    "Routers whose columns were patched in place at event boundaries")
M_PATCH_SECONDS = metrics.histogram(
    "netpower_sim_engine_patch_seconds",
    "Wall time of one incremental column patch (per event boundary)",
    buckets=(1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3))


def _collapse_curve(curve, hostname: str) -> Tuple[Tuple[float, ...],
                                                   float, float, float]:
    """Reduce a PSU efficiency curve to ``(scales, a, b, c)``.

    Ground-truth PSU instances are ``ScaledLossCurve`` wrappers (possibly
    nested) around the quadratic PFE600 loss model; their loss fraction is
    ``s_n * (... * (s_1 * (a + b*x + c*x^2)))``.  The scales are returned
    innermost-first so callers can apply them in the same multiplication
    order as the nested objects (bit-identical results).  Any other
    curve has no closed form here: a ``ValueError`` names the router
    (``hostname``) and the curve type.
    """
    scales: List[float] = []
    inner = curve
    while isinstance(inner, ScaledLossCurve):
        scales.append(inner.scale)
        inner = inner.base
    if not isinstance(inner, QuadraticLossCurve):
        raise ValueError(
            f"{hostname}: PSU curve {type(inner).__name__} (inside "
            f"{type(curve).__name__}) does not collapse to a scaled "
            f"quadratic loss curve")
    return tuple(reversed(scales)), inner.a, inner.b, inner.c


class _Block:
    """The rows of one block of consecutive steps (see
    :meth:`FleetState.plan_traffic`).

    ``rx``/``tx`` hold each step's offered traffic on the active ports
    and ``ingress`` its external ingress; ``counters`` (rx octets, rx
    packets, tx octets, tx packets) and ``noise`` hold each step's
    counters and AR(1) noise once advanced (``None``: unchanged by the
    block); ``pps`` holds ``rx + tx`` and the total packet rate once
    :meth:`FleetState.advance_counters` has computed them for
    :meth:`FleetState.wall_power`; ``next`` is the row
    :meth:`FleetState.apply_traffic` makes current next.
    """

    __slots__ = ("rx", "tx", "times", "ingress", "counters", "noise",
                 "pps", "next")

    def __init__(self, rx: np.ndarray, tx: np.ndarray):
        self.rx = rx
        self.tx = tx
        self.times: Optional[np.ndarray] = None
        self.ingress: Optional[np.ndarray] = None
        self.counters: Optional[Tuple[np.ndarray, ...]] = None
        self.noise: Optional[np.ndarray] = None
        self.pps: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.next = len(rx)


class FleetState:
    """Structure-of-arrays snapshot of every port and router in a fleet.

    Two kinds of columns live here:

    * **Dynamic state** (counters, offered traffic, noise) is owned by the
      columns while a vectorized run is in flight and written back to the
      objects via :meth:`flush_counters` / :meth:`flush_traffic` /
      :meth:`flush_noise`.  It survives :meth:`refresh`.  The sensor
      plateau is dynamic too, but is flushed by :meth:`flush_noise`
      before every boundary and re-read from the objects after it.
    * **Configuration** (static power, link-up masks, PSU coefficients,
      link wiring) is derived from the objects and rebuilt wholesale by
      :meth:`refresh` whenever an event may have mutated topology or
      config -- the fleet-level analogue of the router ``_mark_dirty``
      hooks.
    """

    def __init__(self, network, traffic, new_external_link_ids=frozenset(),
                 view_hosts: Sequence[str] = ()):
        self.network = network
        self.traffic = traffic
        self.routers: List[VirtualRouter] = list(network.routers.values())
        self.n_routers = len(self.routers)
        self.router_index: Dict[str, int] = {
            r.hostname: i for i, r in enumerate(self.routers)}
        self.ports: List[Port] = [p for r in self.routers for p in r.ports]
        self.n_ports = len(self.ports)
        counts = [len(r.ports) for r in self.routers]
        starts = np.concatenate([[0], np.cumsum(counts)])
        self._router_start = starts[:-1]
        self._router_stop = starts[1:]
        self.port_router = np.repeat(np.arange(self.n_routers), counts)

        # Configuration columns, allocated once and refilled in place by
        # refresh()/patch_routers() -- no per-refresh reallocation.
        self.static_w = np.zeros(self.n_ports)
        self.link_up = np.zeros(self.n_ports, dtype=bool)
        self.p_offset_w = np.zeros(self.n_ports)
        self.e_bit_j = np.zeros(self.n_ports)
        self.e_pkt_j = np.zeros(self.n_ports)
        self._has_truth = np.zeros(self.n_ports, dtype=bool)
        self.dyn_ok = np.zeros(self.n_ports, dtype=bool)
        self.port_powered = np.zeros(self.n_ports, dtype=bool)
        self.powered = np.zeros(self.n_routers, dtype=bool)
        self.base_fixed = np.zeros(self.n_routers)
        self.noise_std = np.zeros(self.n_routers)
        self.static_sum = np.zeros(self.n_routers)
        # PSU sensor inputs of repro.hardware.router.psu_sensor_power;
        # the plateau (sensor_basis_w) is moved by polls.
        self.sensor_quirk = np.zeros(self.n_routers, dtype=np.int8)
        self.sensor_offset_w = np.zeros(self.n_routers)
        self.sensor_quantum_w = np.ones(self.n_routers)
        self.sensor_bias_w = np.zeros(self.n_routers)
        self.sensor_basis_w = np.full(self.n_routers, np.nan)
        # Attribution split of the per-port static power (the three
        # catalog terms of static_w) plus the sleep counterfactual, and
        # their per-router sums -- consumed by the energy ledger, kept
        # current alongside static_w/static_sum either way.
        self.trx_in_w = np.zeros(self.n_ports)
        self.port_w = np.zeros(self.n_ports)
        self.trx_up_w = np.zeros(self.n_ports)
        self.sleep_w = np.zeros(self.n_ports)
        self.trx_in_sum = np.zeros(self.n_routers)
        self.port_sum = np.zeros(self.n_routers)
        self.trx_up_sum = np.zeros(self.n_routers)
        self.sleep_sum = np.zeros(self.n_routers)

        # Dynamic state, seeded from the objects once.
        self.rx_bps = np.array([p.traffic.rx_bps for p in self.ports])
        self.tx_bps = np.array([p.traffic.tx_bps for p in self.ports])
        self.packet_bytes = np.array(
            [p.traffic.packet_bytes for p in self.ports])
        self.noise = np.array([r._noise_state for r in self.routers])
        # Between configuration boundaries the per-step kernels work on
        # compact copies of the active ports' dynamic state (see
        # _refresh_active_cache); these flags track whether those copies
        # hold updates not yet spilled back into the full-width columns.
        self._traffic_dirty = False
        self._counters_dirty = False
        self._cache_ap: Optional[np.ndarray] = None
        self.snapshot_counters()
        self.refresh(new_external_link_ids, view_hosts)

    # -- dynamic state <-> objects ------------------------------------------------

    def snapshot_counters(self,
                          hostnames: Optional[Sequence[str]] = None) -> None:
        """Load the ``uint64`` counter columns from the Port objects (they
        are authoritative across events: a power cycle zeroes them on
        the object).

        With ``hostnames``, only those routers' ports are re-read; the
        columns of untouched routers already hold the objects' values.
        """
        self._spill_counters()
        if hostnames is None:
            self.c_rx_oct = np.array(
                [p.counters.rx_octets for p in self.ports], dtype=np.uint64)
            self.c_tx_oct = np.array(
                [p.counters.tx_octets for p in self.ports], dtype=np.uint64)
            self.c_rx_pkt = np.array(
                [p.counters.rx_packets for p in self.ports], dtype=np.uint64)
            self.c_tx_pkt = np.array(
                [p.counters.tx_packets for p in self.ports], dtype=np.uint64)
            return
        for host in hostnames:
            r = self.router_index[host]
            for f in range(self._router_start[r], self._router_stop[r]):
                counters = self.ports[f].counters
                self.c_rx_oct[f] = counters.rx_octets
                self.c_tx_oct[f] = counters.tx_octets
                self.c_rx_pkt[f] = counters.rx_packets
                self.c_tx_pkt[f] = counters.tx_packets

    def flush_counters(self, hostnames: Optional[Sequence[str]] = None) -> None:
        """Write counter columns back into the Port objects.

        The full flush only visits the active ports: every other port's
        counters never advance (see :meth:`_refresh_links`), so its
        column still equals the object's value -- every configuration
        boundary flushes under the epoch that advanced the counters
        before the active set can change.
        """
        self._spill_counters()
        if hostnames is None:
            indices = self._active_ports.tolist()
        else:
            indices = []
            for host in hostnames:
                r = self.router_index[host]
                indices.extend(range(self._router_start[r],
                                     self._router_stop[r]))
        for f in indices:
            counters = self.ports[f].counters
            counters.rx_octets = int(self.c_rx_oct[f])
            counters.tx_octets = int(self.c_tx_oct[f])
            counters.rx_packets = int(self.c_rx_pkt[f])
            counters.tx_packets = int(self.c_tx_pkt[f])

    def counters_view(self, hostname: str) -> Tuple[np.ndarray, np.ndarray,
                                                    np.ndarray, np.ndarray]:
        """Read-only counter slices for one router's ports, in port order.

        Returns ``(rx_octets, tx_octets, rx_packets, tx_packets)`` views
        of the full-width columns (compact copies spilled first), so an
        SNMP poll can read a detailed host's counters without the
        object-write-back round trip.
        """
        self._spill_counters()
        i = self.router_index[hostname]
        rows = slice(int(self._router_start[i]), int(self._router_stop[i]))
        return (self.c_rx_oct[rows], self.c_tx_oct[rows],
                self.c_rx_pkt[rows], self.c_tx_pkt[rows])

    def flush_traffic(self, flat_indices: Optional[Sequence[int]] = None) -> None:
        """Write offered-traffic columns back into the Port objects."""
        self._spill_traffic()
        if flat_indices is None:
            flat_indices = self._linked_flat
        for f in flat_indices:
            self.ports[f].traffic = OfferedTraffic(
                rx_bps=float(self.rx_bps[f]), tx_bps=float(self.tx_bps[f]),
                packet_bytes=float(self.packet_bytes[f]))

    def flush_noise(self, hostnames: Optional[Sequence[str]] = None) -> None:
        """Write the AR(1) noise states and the PSU sensors' plateaus
        back into the routers."""
        if hostnames is None:
            indices: Sequence[int] = range(self.n_routers)
        else:
            indices = [self.router_index[host] for host in hostnames]
        for i in indices:
            router = self.routers[i]
            router._noise_state = float(self.noise[i])
            router._pseudo_constant_basis = float(self.sensor_basis_w[i])

    def flush_all(self) -> None:
        """Full write-back: counters, traffic, noise and sensor plateaus."""
        self.flush_counters()
        self.flush_traffic()
        self.flush_noise()

    # -- compact active-port working set -------------------------------------------

    def _spill_traffic(self) -> None:
        """Scatter the compact offered-traffic copies back into the
        full-width columns (no-op unless a step has run since the last
        spill or cache rebuild)."""
        if not self._traffic_dirty:
            return
        ap = self._cache_ap
        self.rx_bps[ap] = self._ap_rx
        self.tx_bps[ap] = self._ap_tx
        self._traffic_dirty = False

    def _spill_counters(self) -> None:
        """Scatter the compact counter copies back into the full-width
        columns (no-op unless a step has run since the last spill or
        cache rebuild)."""
        if not self._counters_dirty:
            return
        ap = self._cache_ap
        self.c_rx_oct[ap] = self._ap_c_rx_oct
        self.c_tx_oct[ap] = self._ap_c_tx_oct
        self.c_rx_pkt[ap] = self._ap_c_rx_pkt
        self.c_tx_pkt[ap] = self._ap_c_tx_pkt
        self._counters_dirty = False

    def _refresh_active_cache(self) -> None:
        """(Re)build the compact per-active-port working set.

        Called at the end of every :meth:`refresh` and
        :meth:`patch_routers`, i.e. at configuration boundaries only.
        The block kernels (:meth:`plan_traffic`,
        :meth:`advance_counters`, :meth:`wall_power`) then run entirely
        on length-``len(_active_ports)`` rows: configuration columns are
        gathered once here instead of once per block, and the dynamic
        state (offered traffic, counters) lives compactly between
        boundaries, spilled back by :meth:`_spill_traffic` /
        :meth:`_spill_counters` before any full-width read.  Every
        cached value is a pure gather of the full-width columns, so the
        block arithmetic is element-for-element identical to the
        full-width formulation.  The current block collapses to its
        current row.
        """
        self._spill_traffic()
        self._spill_counters()
        ap = self._active_ports
        self._cache_ap = ap
        # Configuration gathers (invalidated by refresh/patch only).
        self._ap_up_powered = self.link_up[ap] & self.port_powered[ap]
        self._ap_dyn_ok = self.dyn_ok[ap]
        self._ap_p_offset = self.p_offset_w[ap]
        self._ap_e_bit = self.e_bit_j[ap]
        self._ap_e_pkt = self.e_pkt_j[ap]
        # Packet sizes are constant between boundaries (the scatter
        # ports are pinned to FLEET_PACKET_BYTES in _refresh_links, the
        # rest keep their seeded values), so the pps denominator and
        # octet frame factors are too.
        pb = self.packet_bytes[ap]
        self._ap_denom = units.BITS_PER_BYTE * (pb + units.L_HEADER_BYTES)
        self._ap_frame = pb + units.ETHERNET_HEADER_BYTES
        # Compact dynamic state, authoritative until the next spill.
        self._ap_rx = self.rx_bps[ap]
        self._ap_tx = self.tx_bps[ap]
        self._ap_c_rx_oct = self.c_rx_oct[ap]
        self._ap_c_tx_oct = self.c_tx_oct[ap]
        self._ap_c_rx_pkt = self.c_rx_pkt[ap]
        self._ap_c_tx_pkt = self.c_tx_pkt[ap]
        # External-link admin state, hoisted out of plan_traffic; when
        # every external link is up the masking is the identity and is
        # skipped wholesale.
        self._ext_link_up = self.link_up[self.ext_a]
        self._ext_all_up = bool(self._ext_link_up.all())
        self._ext_any_new = bool(self.ext_is_new.any())
        # Block length and the segment-sum keys of a full block: row r
        # of a block sums into buckets r * n_routers + router, and a
        # k-row block uses the leading k rows' keys.
        self.block_steps = max(1, min(DRAW_BLOCK_STEPS,
                                      BLOCK_ELEMENTS // max(1, len(ap))))
        offsets = np.arange(self.block_steps)[:, None] * self.n_routers
        self._port_keys = (offsets + self._active_router).ravel()
        self._psu_keys = (offsets + self.psu_router).ravel()
        self._block = _Block(self._ap_rx[None], self._ap_tx[None])

    # -- configuration rebuild ------------------------------------------------------

    def refresh(self,
                new_external_link_ids: FrozenSet[int] = frozenset(),
                view_hosts: Sequence[str] = ()) -> None:
        """Rebuild every configuration column from the object model.

        Called once at construction and again after any event fires --
        the invalidation contract is "any object mutation invalidates the
        whole columnar config", which costs O(ports + links) on the rare
        event steps and keeps the hot loop free of staleness checks.
        """
        M_REFRESH.inc()
        self._refresh_ports()
        self._refresh_routers()
        self._refresh_psus()
        self._refresh_links(new_external_link_ids)
        self._refresh_views(view_hosts)
        self._refresh_active_cache()

    def _patch_port(self, f: int) -> None:
        """Recompute one port's configuration columns from its object."""
        port = self.ports[f]
        s_in, s_port, s_up = port.static_components()
        self.trx_in_w[f] = s_in
        self.port_w[f] = s_port
        self.trx_up_w[f] = s_up
        # Same accumulation chain as Port.static_power_w(), so the
        # column equals the pre-split value bit for bit.
        static = 0.0
        static += s_in
        static += s_port
        static += s_up
        self.static_w[f] = static
        self.sleep_w[f] = port.sleep_savings_w()
        self.link_up[f] = port.link_up
        truth = port.class_truth()
        if truth is None:
            self._has_truth[f] = False
            self.p_offset_w[f] = 0.0
            self.e_bit_j[f] = 0.0
            self.e_pkt_j[f] = 0.0
        else:
            self._has_truth[f] = True
            self.p_offset_w[f] = truth.p_offset_w
            self.e_bit_j[f] = truth.e_bit_j
            self.e_pkt_j[f] = truth.e_pkt_j

    def _refresh_ports(self) -> None:
        for f in range(self.n_ports):
            self._patch_port(f)
        np.logical_and(self.link_up, self._has_truth, out=self.dyn_ok)
        self.static_sum = np.bincount(self.port_router,
                                      weights=self.static_w,
                                      minlength=self.n_routers)
        self.trx_in_sum = np.bincount(self.port_router,
                                      weights=self.trx_in_w,
                                      minlength=self.n_routers)
        self.port_sum = np.bincount(self.port_router,
                                    weights=self.port_w,
                                    minlength=self.n_routers)
        self.trx_up_sum = np.bincount(self.port_router,
                                      weights=self.trx_up_w,
                                      minlength=self.n_routers)
        self.sleep_sum = np.bincount(self.port_router,
                                     weights=self.sleep_w,
                                     minlength=self.n_routers)

    def _patch_router_scalars(self, i: int) -> None:
        """Recompute one router's scalar columns from its object.

        ``(p_base + fan_bump) + thermal`` matches the association order
        of ``VirtualRouter.wall_referred_power_w``.  The sensor plateau
        is read back too: boundaries flush it first, and a power cycle
        resets it on the object.
        """
        router = self.routers[i]
        spec = router.spec
        self.powered[i] = router.powered
        self.base_fixed[i] = ((spec.p_base_w + router.fan_bump_w)
                              + router.thermal_power_w())
        self.noise_std[i] = router.noise_std_w
        self.sensor_quirk[i] = _QUIRKS.index(spec.psu_quirk)
        self.sensor_offset_w[i] = spec.psu_report_offset_w
        self.sensor_quantum_w[i] = router.sensor_quantum_w
        self.sensor_bias_w[i] = router._sensor_bias_w
        self.sensor_basis_w[i] = router._pseudo_constant_basis

    def _refresh_routers(self) -> None:
        for i in range(self.n_routers):
            self._patch_router_scalars(i)
        np.take(self.powered, self.port_router, out=self.port_powered)
        # Per-router wall->DC inversion grids (reuse each router's own
        # lazily built grid so interpolation matches np.interp on it).
        # The grid depends only on the *nominal* PSU group, which is a
        # pure function of the router model, so routers of one model
        # share a single grid pair and the batched inversion works on
        # one model group at a time instead of a dense (routers x grid)
        # matrix.
        grid_by_model: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        members: Dict[str, List[int]] = {}
        for i, router in enumerate(self.routers):
            cached = grid_by_model.get(router.spec.name)
            if router._inversion_grid is None:
                if cached is None:
                    router._dc_from_wall_referred(0.0)
                else:
                    router._inversion_grid = cached
            if cached is None:
                grid_by_model[router.spec.name] = router._inversion_grid
            members.setdefault(router.spec.name, []).append(i)
        self._grid_groups: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = [
            (np.array(members[name], dtype=np.int64),
             grid_by_model[name][0], grid_by_model[name][1])
            for name in grid_by_model]

    def _psu_rows_of(self, i: int) -> List[Tuple[float, Tuple[float, ...],
                                                 float, float, float,
                                                 float, bool]]:
        """Coefficient rows ``(cap, scales, a, b, c, div, zero)`` for one
        router's PSUs under its sharing policy."""
        router = self.routers[i]
        group = router.psu_group
        n = len(group.instances)
        rows = []
        for j, psu in enumerate(group.instances):
            scales, a, b, c = _collapse_curve(psu.curve, router.hostname)
            if group.policy == SharingPolicy.BALANCED:
                div, zero = float(n), False
            elif j == 0:
                div, zero = 1.0, False
            elif group.policy == SharingPolicy.HOT_STANDBY:
                div, zero = 1.0, True      # powered but idle
            else:                          # SINGLE: spare draws nothing
                continue
            rows.append((psu.capacity_w, scales, a, b, c, div, zero))
        return rows

    def _refresh_psus(self) -> None:
        rows_router: List[int] = []
        rows_cap: List[float] = []
        rows_scales: List[Tuple[float, ...]] = []
        rows_a: List[float] = []
        rows_b: List[float] = []
        rows_c: List[float] = []
        rows_div: List[float] = []
        rows_zero: List[bool] = []
        row_start = np.zeros(self.n_routers, dtype=np.int64)
        row_stop = np.zeros(self.n_routers, dtype=np.int64)
        for i in range(self.n_routers):
            row_start[i] = len(rows_router)
            for cap, scales, a, b, c, div, zero in self._psu_rows_of(i):
                rows_router.append(i)
                rows_cap.append(cap)
                rows_scales.append(scales)
                rows_a.append(a)
                rows_b.append(b)
                rows_c.append(c)
                rows_div.append(div)
                rows_zero.append(zero)
            row_stop[i] = len(rows_router)
        self._psu_row_start = row_start
        self._psu_row_stop = row_stop
        self.psu_router = np.array(rows_router, dtype=np.int64)
        self.psu_cap = np.array(rows_cap)
        # Scale chain padded with exact 1.0 so every row multiplies in the
        # same nesting order as its ScaledLossCurve stack.
        depth = max((len(s) for s in rows_scales), default=0)
        self.psu_scales = np.ones((len(rows_scales), depth))
        for row, scales in enumerate(rows_scales):
            self.psu_scales[row, :len(scales)] = scales
        self.psu_a = np.array(rows_a)
        self.psu_b = np.array(rows_b)
        self.psu_c = np.array(rows_c)
        self.psu_div = np.array(rows_div)
        self.psu_zero = np.array(rows_zero, dtype=bool)

    def _flat_of(self, hostname: str, port_index: int) -> int:
        return int(self._router_start[self.router_index[hostname]]
                   + port_index)

    def _refresh_links(self, new_external_link_ids) -> None:
        """Columnise the link list.

        ``scatter_ports`` and the rate row of each entry replay a
        per-link walk that offers each link's rate to its ports:
        entries are emitted in link-list order (both ends of an internal
        link, then the local end of an external link), so a port
        referenced by two links -- possible when a freed port is
        re-provisioned while a stale link lingers in the list -- keeps
        the last link's rate.  ``_scatter_pos``/``_scatter_rate`` keep
        only that last entry per port, so one fancy assignment writes
        every row of a block.
        """
        int_rows: List[Tuple[int, int, float, int]] = []   # a, b, cap95, id
        ext_rows: List[Tuple[int, float, bool]] = []       # a, cap, is_new
        scatter_ports: List[int] = []
        scatter_src: List[int] = []
        ext_ids: List[int] = []
        for link in self.network.links:
            fa = self._flat_of(link.a.hostname, link.a.port_index)
            if link.is_internal:
                src = len(int_rows)
                fb = self._flat_of(link.b.hostname, link.b.port_index)
                int_rows.append((fa, fb,
                                 0.95 * units.gbps_to_bps(link.speed_gbps),
                                 link.link_id))
                scatter_ports.extend((fa, fb))
                scatter_src.extend((src, src))
            else:
                src = len(ext_rows)
                ext_rows.append((fa, units.gbps_to_bps(link.speed_gbps),
                                 link.link_id in new_external_link_ids))
                ext_ids.append(link.link_id)
                scatter_ports.append(fa)
                scatter_src.append(~src)    # ones' complement marks external
        self.int_a = np.array([r[0] for r in int_rows], dtype=np.int64)
        self.int_b = np.array([r[1] for r in int_rows], dtype=np.int64)
        self.int_cap95 = np.array([r[2] for r in int_rows])
        self.ext_a = np.array([r[0] for r in ext_rows], dtype=np.int64)
        self.ext_cap = np.array([r[1] for r in ext_rows])
        self.ext_is_new = np.array([r[2] for r in ext_rows], dtype=bool)
        self.scatter_ports = np.array(scatter_ports, dtype=np.int64)
        src = np.array(scatter_src, dtype=np.int64)
        # Map external rows (encoded as ~row) past the internal block.
        src = np.where(src >= 0, src, len(int_rows) + ~src)
        # Base internal loads aligned to the internal-link rows.
        base_loads = self.traffic._base_internal_loads
        self.int_loads = np.array(
            [base_loads.get(r[3], 0.0) for r in int_rows])
        # Demand list -> external-row scatter for the traffic model.
        row_of = {link_id: row for row, link_id in enumerate(ext_ids)}
        self.ext_demand_rows = np.array(
            [row_of[d.link_id] for d in self.traffic.externals],
            dtype=np.int64)
        self._linked_flat = sorted(set(scatter_ports))
        self._linked_set = frozenset(self._linked_flat)
        # Ports that can ever carry traffic during this configuration:
        # the scatter targets, plus any port whose object held a nonzero
        # offered rate when the columns were (re)built.  Every other
        # port's dynamic power is exactly 0.0 and its counters never
        # move, so the per-step kernels skip them wholesale -- the same
        # floats as full-width arithmetic, a fraction of the bandwidth.
        seeded = np.nonzero(carrying_traffic_mask(self.rx_bps,
                                                  self.tx_bps))[0]
        self._active_ports = np.union1d(
            self.scatter_ports, seeded).astype(np.int64)
        self._active_router = self.port_router[self._active_ports]
        # Linked ports always carry the fleet packet mix; pinning the
        # column here (instead of re-writing the same constant every
        # apply_traffic) is what lets the active cache precompute the
        # pps denominators.  Nothing reads packet sizes between a
        # refresh and the next apply_traffic, so the write point is
        # unobservable.
        self.packet_bytes[self.scatter_ports] = FLEET_PACKET_BYTES
        # Scatter targets as positions within the active-port set (the
        # active set contains every scatter port by construction), each
        # fed by its last entry in link-list order.
        pos = np.searchsorted(self._active_ports, self.scatter_ports)
        last = len(pos) - 1 - np.unique(pos[::-1], return_index=True)[1]
        self._scatter_pos = pos[last]
        self._scatter_rate = src[last]

    def _refresh_views(self, view_hosts: Sequence[str]) -> None:
        """Ports whose objects must track columnar traffic every step.

        Autopower meters read ``router.wall_power_w`` off the object, and
        step observers (the fleet monitor) may read object state of the
        routers they watch, so those routers keep their Port objects'
        offered traffic in sync (see :meth:`sync_views`).
        """
        linked = self._linked_set
        self._view_routers: List[Tuple[int, VirtualRouter, List[int]]] = []
        for host in view_hosts:
            i = self.router_index[host]
            flats = [f for f in range(self._router_start[i],
                                      self._router_stop[i]) if f in linked]
            self._view_routers.append((i, self.routers[i], flats))

    def sync_views(self) -> None:
        """Flush traffic + noise of the view routers to their objects."""
        for i, router, flats in self._view_routers:
            self.flush_traffic(flats)
            router._noise_state = float(self.noise[i])

    # -- incremental refresh ---------------------------------------------------------

    def patch_routers(self, hostnames: Sequence[str]) -> None:
        """Patch the configuration columns of the named routers in place.

        The incremental counterpart of :meth:`refresh`: the port, router,
        and PSU columns of exactly these routers are recomputed from
        their objects, and everything else -- including the link/scatter
        layout, which no patchable event can change -- stays untouched.
        The result is bit-identical to a full :meth:`refresh` because
        every patched value is a pure function of the router's own
        object state, and the per-router static sum replays
        ``np.bincount``'s sequential accumulation order.
        """
        M_ROUTERS_PATCHED.inc(len(hostnames))
        for host in hostnames:
            i = self.router_index[host]
            start = int(self._router_start[i])
            stop = int(self._router_stop[i])
            for f in range(start, stop):
                self._patch_port(f)
            np.logical_and(self.link_up[start:stop],
                           self._has_truth[start:stop],
                           out=self.dyn_ok[start:stop])
            # np.bincount accumulates weights one float64 addition at a
            # time in index order; a running scalar sum over the
            # router's ports is the identical chain of additions.
            acc = 0.0
            acc_in = 0.0
            acc_port = 0.0
            acc_up = 0.0
            acc_sleep = 0.0
            for f in range(start, stop):
                acc += float(self.static_w[f])
                acc_in += float(self.trx_in_w[f])
                acc_port += float(self.port_w[f])
                acc_up += float(self.trx_up_w[f])
                acc_sleep += float(self.sleep_w[f])
            self.static_sum[i] = acc
            self.trx_in_sum[i] = acc_in
            self.port_sum[i] = acc_port
            self.trx_up_sum[i] = acc_up
            self.sleep_sum[i] = acc_sleep
            self._patch_router_scalars(i)
            self.port_powered[start:stop] = self.powered[i]
            self._patch_psu_rows(i)
        self._refresh_active_cache()

    def _patch_psu_rows(self, i: int) -> None:
        """Recompute one router's PSU coefficient rows in place.

        PSU aging (``DegradePsu``) can deepen a curve's scale chain; the
        shared scale matrix is widened with exact-1.0 columns when
        needed, which multiplies identically to a full rebuild's
        padding.
        """
        rows = self._psu_rows_of(i)
        r0 = int(self._psu_row_start[i])
        r1 = int(self._psu_row_stop[i])
        if len(rows) != r1 - r0:
            raise ValueError(
                f"{self.routers[i].hostname}: PSU row count changed "
                f"({r1 - r0} -> {len(rows)}); a sharing-policy change "
                f"mid-run requires a full refresh()")
        depth = max((len(r[1]) for r in rows), default=0)
        if depth > self.psu_scales.shape[1]:
            pad = np.ones((self.psu_scales.shape[0],
                           depth - self.psu_scales.shape[1]))
            self.psu_scales = np.concatenate([self.psu_scales, pad], axis=1)
        for k, (cap, scales, a, b, c, div, zero) in enumerate(rows):
            row = r0 + k
            self.psu_cap[row] = cap
            self.psu_scales[row, :] = 1.0
            self.psu_scales[row, :len(scales)] = scales
            self.psu_a[row] = a
            self.psu_b[row] = b
            self.psu_c[row] = c
            self.psu_div[row] = div
            self.psu_zero[row] = zero

    def memory_footprint(self) -> Dict[str, float]:
        """Bytes held by the columnar arrays (the object fleet excluded).

        ``bytes_total`` sums every NumPy column plus the shared
        per-model inversion grids; ``bytes_per_router`` divides by fleet
        size -- the figure the bench report tracks so the columnar
        footprint provably stays linear in fleet size.  The current
        block's matrices are scratch bounded by :data:`BLOCK_ELEMENTS`
        per matrix and are not counted.
        """
        total = 0
        for name in sorted(vars(self)):
            value = vars(self)[name]
            if isinstance(value, np.ndarray):
                total += value.nbytes
        for indices, wall_grid, dc_grid in self._grid_groups:
            total += indices.nbytes + wall_grid.nbytes + dc_grid.nbytes
        return {"bytes_total": float(total),
                "bytes_per_router": total / max(1, self.n_routers)}

    # -- a block of simulation steps, vectorized ---------------------------------------

    def plan_traffic(self, times_s: np.ndarray) -> None:
        """Plan the offered traffic of a block of steps starting at
        ``times_s``.

        Row ``r`` of the block holds every active port's rates after
        step ``r``'s demand is offered; :meth:`apply_traffic` makes the
        rows current one step at a time.  The block consumes the
        traffic model's RNG exactly like one scalar
        ``external_rates_at`` / ``internal_rates_at`` pair per step
        (:meth:`~repro.network.traffic.FleetTrafficModel.rates_block`).
        The block's counters and noise start unchanged until
        :meth:`advance_counters` / :meth:`advance_noise` advance them.
        """
        if len(self._block.rx) > 1:
            # The current rows outlive their block: copies let the
            # previous block's matrices go before this block's are built.
            self._ap_rx = self._ap_rx.copy()
            self._ap_tx = self._ap_tx.copy()
            self._ap_c_rx_oct = self._ap_c_rx_oct.copy()
            self._ap_c_tx_oct = self._ap_c_tx_oct.copy()
            self._ap_c_rx_pkt = self._ap_c_rx_pkt.copy()
            self._ap_c_tx_pkt = self._ap_c_tx_pkt.copy()
            self.noise = self.noise.copy()
        demand, mult, noise = self.traffic.rates_block(times_s)
        k = len(times_s)
        n_int = len(self.int_a)
        # External rows sit past the internal ones; the masked
        # assignments write exactly the floats the equivalent np.where
        # chains would select.
        rates = np.empty((k, n_int + len(self.ext_a)))
        ext_rates = rates[:, n_int:]
        ext_rates.fill(0.0)
        if len(self.ext_demand_rows):
            ext_rates[:, self.ext_demand_rows] = demand
        if self._ext_any_new:
            seed = (ext_rates == 0.0) & self.ext_is_new
            ext_rates[seed] = np.broadcast_to(0.02 * self.ext_cap,
                                              ext_rates.shape)[seed]
        if not self._ext_all_up:
            ext_rates[:, ~self._ext_link_up] = 0.0
        int_rates = rates[:, :n_int]
        np.multiply(self.int_loads, mult[:, None], out=int_rates)
        np.multiply(int_rates, noise[:, None], out=int_rates)
        np.minimum(int_rates, self.int_cap95, out=int_rates)
        values = rates[:, self._scatter_rate]
        rx = np.repeat(self._ap_rx[None], k, axis=0)
        tx = np.repeat(self._ap_tx[None], k, axis=0)
        rx[:, self._scatter_pos] = values
        tx[:, self._scatter_pos] = values
        block = self._block = _Block(rx, tx)
        block.times = times_s
        block.ingress = ext_rates.sum(axis=1)
        block.next = 0

    def apply_traffic(self, t_s: float) -> float:
        """Offer the demand of the step starting at ``t_s``; returns the
        total external ingress bps.

        Makes the next planned row of the block current -- its offered
        traffic and, where the block advanced them, its counters and
        noise.  Without a planned row left, plans a one-step block at
        ``t_s`` first (:meth:`plan_traffic`).
        """
        block = self._block
        if block.next == len(block.rx):
            self.plan_traffic(np.array([t_s]))
            block = self._block
        r = block.next
        if block.times[r] != t_s:
            raise ValueError(
                f"step at t={t_s} s does not match the planned block "
                f"row at t={block.times[r]} s")
        block.next = r + 1
        self._ap_rx = block.rx[r]
        self._ap_tx = block.tx[r]
        self._traffic_dirty = True
        if block.counters is not None:
            rx_oct, rx_pkt, tx_oct, tx_pkt = block.counters
            self._ap_c_rx_oct = rx_oct[r]
            self._ap_c_tx_oct = tx_oct[r]
            self._ap_c_rx_pkt = rx_pkt[r]
            self._ap_c_tx_pkt = tx_pkt[r]
            self._counters_dirty = True
        if block.noise is not None:
            self.noise = block.noise[r]
        return float(block.ingress[r])

    def advance_counters(self, dt_s: float) -> None:
        """Accumulate counters over every step of the block (mirrors
        ``Port.advance``).

        Each ``uint64`` counter gains the whole part of each step's
        increment and wraps at 2^64 -- exactly :meth:`Counters.add
        <repro.hardware.router.Counters.add>`: the increments are cast
        first and added along the steps one row after the other, and
        uint64 addition modulo 2^64 is exact, so every row is.  (A row
        loop, because ``np.cumsum`` along the first axis runs one inner
        loop per column.)  Only the active ports (see
        :meth:`_refresh_links`) are touched: every other port carries
        zero traffic for the whole configuration, so its increment is
        zero.
        """
        block = self._block
        rx_tx = block.rx + block.tx
        idle = ~(self._ap_up_powered & (rx_tx > 0.0))
        rx_pps = block.rx / self._ap_denom
        tx_pps = block.tx / self._ap_denom
        # Shared with wall_power, which evaluates the same block.
        block.pps = (rx_tx, rx_pps + tx_pps)
        counters = []
        for pps, oct_start, pkt_start in (
                (rx_pps, self._ap_c_rx_oct, self._ap_c_rx_pkt),
                (tx_pps, self._ap_c_tx_oct, self._ap_c_tx_pkt)):
            packets = pps * dt_s
            np.copyto(packets, 0.0, where=idle)
            for inc, start in ((packets * self._ap_frame, oct_start),
                               (packets, pkt_start)):
                # The cast truncates the non-negative increments like
                # int().
                rows = inc.astype(np.uint64)
                rows[0] += start
                for r in range(1, len(rows)):
                    rows[r] += rows[r - 1]
                counters.append(rows)
        block.counters = tuple(counters)

    def draw_block(self, polled: np.ndarray) -> None:
        """Pre-draw every router's standard normals for the next steps.

        ``polled`` flags which steps of the block poll SNMP.  Each
        drawing router makes one ``rng.standard_normal`` call, laid out
        in the order a scalar step consumes them (per step: ambient
        draw, then sensor draw) and split into a ``(steps, routers)``
        ambient and a ``(polls, routers)`` sensor matrix, read in
        order by :meth:`advance_noise` and :meth:`psu_reported_power`.
        The caller ends blocks at event boundaries, where other draws
        may happen (docs/PERFORMANCE.md, "Per-router draw order").

        Powered routers draw once per step if their ambient noise is on
        and once per poll if their PSU reports power; dark routers draw
        nothing.
        """
        self._noise_on = self.powered & (self.noise_std > 0.0)
        reports = self.powered & (self.sensor_quirk != _ABSENT)
        self._sensor_groups = [
            (quirk, np.flatnonzero(reports & (self.sensor_quirk == code)))
            for code, quirk in enumerate(_QUIRKS) if code != _ABSENT]
        polled = np.asarray(polled, dtype=bool)
        poll_steps = np.flatnonzero(polled)
        ambient_z = np.zeros((len(polled), self.n_routers))
        sensor_z = np.zeros((len(poll_steps), self.n_routers))
        for ambient, sensor, mask in (
                (1, 1, self._noise_on & reports),
                (1, 0, self._noise_on & ~reports),
                (0, 1, ~self._noise_on & reports)):
            rows = np.flatnonzero(mask)
            per_step = ambient + sensor * polled.astype(np.int64)
            first = np.cumsum(per_step) - per_step
            count = int(per_step.sum())
            if count == 0:
                continue
            block = np.empty((len(rows), count))
            for k, i in enumerate(rows.tolist()):
                self.routers[i].rng.standard_normal(out=block[k])
            if ambient:
                ambient_z[:, rows] = block[:, first].T
            if sensor:
                sensor_z[:, rows] = block[:, first[poll_steps] + ambient].T
        self._ambient_z = ambient_z
        self._sensor_z = sensor_z
        self._ambient_next = 0
        self._sensor_next = 0

    def advance_noise(self, rho: float, innovation_std: np.ndarray) -> None:
        """AR(1) noise rows for every step of the block: each powered
        router with noise on updates from the previous row and the next
        row of the draw block (see :meth:`draw_block`)."""
        block = self._block
        k = len(block.rx)
        z = self._ambient_z[self._ambient_next:self._ambient_next + k]
        self._ambient_next += k
        noise = np.empty((k, self.n_routers))
        previous = self.noise
        for r in range(k):
            noise[r] = np.where(
                self._noise_on,
                ambient_noise_step(previous, rho, innovation_std, z[r]),
                previous)
            previous = noise[r]
        block.noise = noise

    def psu_reported_power(self, wall: np.ndarray) -> np.ndarray:
        """Every router's PSU-reported input power for one SNMP poll.

        ``wall`` is this step's row of :meth:`wall_power`.  Routers are
        evaluated one quirk group at a time through
        :func:`~repro.hardware.router.psu_sensor_power` with the next
        row of the draw block; dark routers and ABSENT platforms report
        NaN.  PSEUDO_CONSTANT plateaus advance in ``sensor_basis_w``,
        one poll after the other.
        """
        z = self._sensor_z[self._sensor_next]
        self._sensor_next += 1
        power = np.full(self.n_routers, np.nan)
        for quirk, rows in self._sensor_groups:
            power[rows], self.sensor_basis_w[rows] = psu_sensor_power(
                quirk, wall[rows], z[rows], self.sensor_offset_w[rows],
                self.sensor_quantum_w[rows], self.sensor_bias_w[rows],
                self.sensor_basis_w[rows])
        return power

    def wall_power(self,
                   components: Optional[np.ndarray] = None) -> np.ndarray:
        """Wall power of every router at every row of the block,
        including noise: a ``(steps, n_routers)`` matrix.

        Between blocks (after construction, :meth:`refresh` or
        :meth:`patch_routers`) the block is the current state alone, so
        the result has one row.  The dynamic term is evaluated over the
        active ports only (see :meth:`advance_counters`); inactive ports
        contribute exactly 0.0 in the full-width formula, and adding 0.0
        never changes a partial sum.  Row ``r``'s ports sum into
        ``np.bincount`` buckets ``r * n_routers + router`` in port
        order, so every per-router segment sum is the same chain of
        additions as a one-row sum.

        With ``components`` (a ``(steps, n_routers, len(COMPONENTS))``
        buffer, see :mod:`repro.obs.ledger`), the attribution split is
        written into it without changing the returned power by a single
        bit: the dynamic term decomposes as ``np.where(mask, (a + b) +
        c, 0) == (np.where(mask, a, 0) + np.where(mask, b, 0)) +
        np.where(mask, c, 0)`` elementwise, so the masked total is the
        exact float the fused expression produces.
        """
        block = self._block
        rx = block.rx
        tx = block.tx
        noise = self.noise if block.noise is None else block.noise
        k = len(rx)
        keys = self._port_keys[:k * len(self._cache_ap)]
        n_rows = k * self.n_routers

        def per_router(values: np.ndarray) -> np.ndarray:
            return np.bincount(keys, weights=values.ravel(),
                               minlength=n_rows).reshape(k, self.n_routers)

        if block.pps is None:
            rx_tx = rx + tx
            total_pps = rx / self._ap_denom + tx / self._ap_denom
        else:
            rx_tx, total_pps = block.pps
        mask = self._ap_dyn_ok & carrying_traffic_mask(rx, tx)
        bit = self._ap_e_bit * rx_tx
        pkt = self._ap_e_pkt * total_pps
        if components is None:
            dyn_sum = per_router(np.where(
                mask, (self._ap_p_offset + bit) + pkt, 0.0))
        else:
            off = np.where(mask, self._ap_p_offset, 0.0)
            bit = np.where(mask, bit, 0.0)
            pkt = np.where(mask, pkt, 0.0)
            dyn_sum = per_router((off + bit) + pkt)
            dyn_parts = [per_router(part) for part in (off, bit, pkt)]
        wall_ref = (self.base_fixed + self.static_sum) + dyn_sum
        dc = self._dc_from_wall_referred(wall_ref)
        device = np.maximum(0.0, dc + noise)
        wall = self._psu_wall(device)
        powered = self.powered
        result = np.where(powered, wall, 0.0)
        if components is not None:
            # Column order matches repro.obs.ledger.COMPONENTS.  Every
            # component is zeroed where the router is unpowered, like
            # the returned wall power.
            components[..., 0] = np.where(powered, self.base_fixed, 0.0)
            components[..., 1] = np.where(powered, self.trx_in_sum, 0.0)
            components[..., 2] = np.where(powered, self.port_sum, 0.0)
            components[..., 3] = np.where(powered, self.trx_up_sum, 0.0)
            for column, part in enumerate(dyn_parts, start=4):
                components[..., column] = np.where(powered, part, 0.0)
            components[..., 7] = np.where(powered, dc - wall_ref, 0.0)
            components[..., 8] = np.where(powered, device - dc, 0.0)
            components[..., 9] = np.where(powered, wall - device, 0.0)
            components[..., 10] = np.where(powered, self.sleep_sum, 0.0)
        return result

    def _dc_from_wall_referred(self, wall_ref: np.ndarray) -> np.ndarray:
        """Batched equivalent of ``VirtualRouter._dc_from_wall_referred``
        over ``(..., n_routers)`` wall-referred power.

        Works one model group at a time (routers of a model share one
        inversion grid): ``np.searchsorted(side="left")`` counts grid
        points strictly below each value -- exactly the dense form's
        ``(grids < wall).sum(axis=1)`` -- so the interpolation arithmetic
        is element-for-element identical at a fraction of the memory
        traffic.
        """
        dc = np.empty_like(wall_ref)
        for indices, wall_grid, dc_grid in self._grid_groups:
            w = wall_ref[..., indices]
            idx = np.clip(np.searchsorted(wall_grid, w, side="left") - 1,
                          0, len(wall_grid) - 2)
            w0 = wall_grid[idx]
            w1 = wall_grid[idx + 1]
            d0 = dc_grid[idx]
            d1 = dc_grid[idx + 1]
            out = ((d1 - d0) / (w1 - w0)) * (w - w0) + d0
            out = np.where(w < wall_grid[0], dc_grid[0], out)
            dc[..., indices] = np.where(w >= wall_grid[-1], dc_grid[-1], out)
        return dc

    def _psu_wall(self, device_w: np.ndarray) -> np.ndarray:
        """Per-router wall power through the PSU curves
        (``PSUGroup.wall_power``) for ``(steps, n_routers)`` device power.

        An overload names the first overloading row's worst PSU, as
        stepping the rows one at a time would.
        """
        share = np.where(self.psu_zero, 0.0,
                         device_w[:, self.psu_router] / self.psu_div)
        overloaded = np.any(share > self.psu_cap * 1.05, axis=1)
        if overloaded.any():
            row = share[int(np.argmax(overloaded))]
            worst = int(np.argmax(row / self.psu_cap))
            raise ValueError(
                f"PSU overloaded: asked for {row[worst]:.1f} W out of a "
                f"{self.psu_cap[worst]:.0f} W supply")
        positive = share > 0.0
        x = share / self.psu_cap
        loss_frac = (self.psu_a + self.psu_b * x) + self.psu_c * x ** 2
        idle_in = self.psu_a * self.psu_cap
        for k in range(self.psu_scales.shape[1]):
            loss_frac = self.psu_scales[:, k] * loss_frac
            idle_in = self.psu_scales[:, k] * idle_in
        safe = np.where(positive, x + loss_frac, 1.0)
        eff = np.where(positive, x / safe, 1.0)
        active_in = share + (share / np.where(positive, eff, 1.0) - share)
        psu_in = np.where(positive, active_in, idle_in)
        k = len(device_w)
        return np.bincount(
            self._psu_keys[:k * len(self.psu_router)],
            weights=psu_in.ravel(),
            minlength=k * self.n_routers).reshape(k, self.n_routers)


class VectorizedEngine:
    """Drives one :class:`NetworkSimulation` run over a :class:`FleetState`.

    Each block of steps runs events, then traffic, then counter/noise
    advance, then power sampling and the ledger, with all O(ports) work
    columnar; each step then makes its row current and runs SNMP polls,
    view syncing, Autopower ticks and observers.
    """

    def __init__(self, simulation):
        self.sim = simulation
        self.state = FleetState(
            simulation.network, simulation.traffic,
            new_external_link_ids=simulation._new_external_link_ids,
            view_hosts=simulation._view_hosts())

    def run_steps(self, step_s: float, pending: Sequence["FleetEvent"],
                  collector: "SnmpCollector", grid: np.ndarray,
                  polled_steps: np.ndarray, total_power: np.ndarray,
                  total_traffic: np.ndarray,
                  ledger: Optional["LedgerAccumulator"] = None) -> None:
        """Advance the fleet one columnar step per entry of ``grid``.

        Events fire at step boundaries and SNMP polls on the
        ``polled_steps`` of the run's schedule (``grid`` holds the sample
        times); observer and Autopower hooks run after each step.  The
        caller's pre-allocated ``total_power`` / ``total_traffic``
        columns are filled in place.  With a ``ledger``, each block
        additionally computes the attribution split and folds it into
        the ledger (see :meth:`FleetState.wall_power`); the wall-power
        floats are unchanged either way.

        Per-router normals come in blocks (:meth:`FleetState.draw_block`)
        of at most :data:`DRAW_BLOCK_STEPS` steps that end at event
        boundaries: events may draw from a router's RNG or change who
        draws.  Each draw block is stepped in blocks of at most
        :attr:`FleetState.block_steps` steps: traffic, counters, noise,
        wall power and the ledger are evaluated for the whole block up
        front, then :meth:`FleetState.apply_traffic` makes one row
        current per step for the SNMP poll, view syncing, Autopower
        ticks and observers.  A PSU overload anywhere in a block raises
        before any of its steps runs, naming the first overloading
        step's worst PSU.
        """
        sim = self.sim
        state = self.state
        n_steps = len(grid)
        rho, innovation_scale = ambient_noise_coefficients(step_s)
        innovation_std = state.noise_std * innovation_scale
        # Clock at the start of every step: what events are due against.
        step_starts = np.concatenate(([sim.clock_s], grid[:-1]))
        block_start = block_end = draw_end = 0
        event_idx = 0
        hostnames = [r.hostname for r in state.routers]
        # Step latencies are collected locally and handed to the
        # histogram in one batched observe_many after the loop, so the
        # hot path never crosses the instrument layer per step.
        from repro.network.simulation import (M_EVENTS, M_SNMP_POLLS,
                                              M_STEP_SECONDS, StepSnapshot)
        from repro.obs import profile
        from repro.obs.ledger import COMPONENTS
        # Kernel regions resolve to a shared no-op context while
        # profiling is disabled; timing stays in the profiler
        # side-channel and never touches simulation state.
        region = profile.region
        observing = metrics.enabled()
        observers = sim.observers
        step_durations: List[float] = []
        patch_durations: List[float] = []

        for step in range(n_steps):
            if observing:
                # netpower: ignore[NP-DET-001] -- wall-clock here only
                # feeds the step-latency histogram (an observability
                # side-channel); it never reaches simulation state or
                # any deterministic report.
                step_t0 = time.perf_counter()
            t = sim.clock_s
            if event_idx < len(pending) and pending[event_idx].at_s <= t:
                # Event boundary: hand authority back to the objects,
                # apply, then refresh the columnar config -- patched in
                # place when every event declares its dirty routers,
                # rebuilt wholesale when any event reshapes the links.
                M_EVENT_BOUNDARIES.inc()
                boundary: List["FleetEvent"] = []
                while (event_idx < len(pending)
                       and pending[event_idx].at_s <= t):
                    boundary.append(pending[event_idx])
                    event_idx += 1
                dirty: Optional[set] = set()
                for event in boundary:
                    declared = event.dirty_hosts(sim)
                    if declared is None:
                        dirty = None
                        break
                    dirty.update(declared)
                if dirty is None:
                    with region("kernel.refresh"):
                        state.flush_counters()
                        state.flush_noise()
                        for event in boundary:
                            M_EVENTS.labels(
                                type=type(event).__name__).inc()
                            event.apply(sim)
                        state.snapshot_counters()
                        state.refresh(sim._new_external_link_ids,
                                      sim._view_hosts())
                else:
                    if observing:
                        # netpower: ignore[NP-DET-001] -- wall-clock here
                        # only feeds the patch-latency histogram; it
                        # never reaches simulation state.
                        patch_t0 = time.perf_counter()
                    hosts = sorted(dirty)
                    with region("kernel.patch_routers"):
                        state.flush_counters(hosts)
                        state.flush_noise(hosts)
                        for event in boundary:
                            M_EVENTS.labels(
                                type=type(event).__name__).inc()
                            event.apply(sim)
                        state.snapshot_counters(hosts)
                        state.patch_routers(hosts)
                        state._refresh_views(sim._view_hosts())
                    M_PARTIAL_REFRESH.inc()
                    if observing:
                        # netpower: ignore[NP-DET-001] -- same
                        # side-channel as patch_t0 above.
                        patch_dt = time.perf_counter() - patch_t0
                        patch_durations.append(patch_dt)
                innovation_std = state.noise_std * innovation_scale
            if step == block_end:
                if step == draw_end:
                    draw_end = min(step + DRAW_BLOCK_STEPS, n_steps)
                    if event_idx < len(pending):
                        draw_end = min(draw_end, int(np.searchsorted(
                            step_starts, pending[event_idx].at_s)))
                    with region("kernel.advance_noise"):
                        state.draw_block(polled_steps[step:draw_end])
                block_start = step
                block_end = min(step + state.block_steps, draw_end)
                rows = slice(block_start, block_end)
                with region("kernel.apply_traffic"):
                    state.plan_traffic(step_starts[rows])
                with region("kernel.advance_counters"):
                    state.advance_counters(step_s)
                with region("kernel.advance_noise"):
                    state.advance_noise(rho, innovation_std)
                if ledger is None:
                    with region("kernel.wall_power"):
                        walls = state.wall_power()
                else:
                    parts = np.empty((block_end - block_start,
                                      state.n_routers, len(COMPONENTS)))
                    with region("kernel.wall_power"):
                        walls = state.wall_power(components=parts)
                    block_attr = ledger.record(grid[rows], step_s, parts,
                                               walls)
                total_power[rows] = walls.sum(axis=1)
            with region("kernel.apply_traffic"):
                ingress = state.apply_traffic(t)
            t_sample = sim.clock_s = float(grid[step])
            wall = walls[step - block_start]
            fleet_attr = (None if ledger is None
                          else block_attr[step - block_start])
            total_traffic[step] = ingress
            polled = bool(polled_steps[step])
            if polled:
                M_SNMP_POLLS.inc()
                collector.record_vector(t_sample, wall, state)
            if state._view_routers:
                state.sync_views()
            if sim.autopower_clients:
                for client in sim.autopower_clients.values():
                    client.tick(t_sample)
            if observers:
                with region("kernel.observers"):
                    power_by_host = dict(zip(hostnames, wall.tolist()))
                    snapshot = StepSnapshot(
                        step=step, t_s=t_sample, step_s=step_s,
                        total_power_w=float(total_power[step]),
                        total_traffic_bps=float(ingress),
                        power_by_host=power_by_host, snmp_polled=polled,
                        attribution=(
                            None if fleet_attr is None else
                            {name: float(fleet_attr[k])
                             for k, name in enumerate(COMPONENTS)}))
                    for observer in observers:
                        observer.on_step(snapshot)
            if observing:
                # netpower: ignore[NP-DET-001] -- same side-channel as
                # step_t0 above.
                step_durations.append(time.perf_counter() - step_t0)
        state.flush_all()
        if step_durations:
            M_STEP_SECONDS.labels(engine="vector").observe_many(
                step_durations)
        if patch_durations:
            M_PATCH_SECONDS.observe_many(patch_durations)
