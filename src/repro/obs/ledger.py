"""Energy attribution ledger: account for every joule a fleet draws.

The engines compute every named power component of the paper's model --
``P = P_sta(C) + P_dyn(C, L)`` split across chassis base, per-port
statics, per-port traffic dynamics, and the PSU conversion chain -- but
normally collapse them into one wall-power scalar per router.  The
ledger keeps the split: a fixed-memory per-router x per-component
energy matrix accumulated step by step, with a hard conservation
invariant (the conserved components sum to the engine's wall power
within :data:`RESIDUAL_TOLERANCE_W` per router per step).

Component semantics (watts at the instant of a step):

* ``p_base`` -- chassis base draw incl. fan and thermal bumps.
* ``p_trx_in`` / ``p_port`` / ``p_trx_up`` -- per-port static terms.
* ``p_offset`` / ``e_bit_traffic`` / ``e_pkt_traffic`` -- dynamic
  traffic terms (offset, per-bit, per-packet).
* ``dc_referral`` -- DC-side referral correction (``dc - wall_ref``;
  negative, removes the nominal PSU conversion baked into the
  wall-referred catalog parameters).
* ``ambient_noise`` -- device-level AR(1) measurement/ambient noise,
  including the non-negativity clip.
* ``psu_conversion_loss`` -- wall minus device power (the PSUs' cut).
* ``sleep_savings_realized`` -- counterfactual: static power *not*
  drawn by plugged, admin-down ports.  Excluded from conservation.

All components are zero for unpowered routers, matching the engines'
wall power.  The ledger never draws randomness and only reads values,
so attribution on/off cannot perturb a seeded run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.obs import metrics, profile

#: Component names, in ledger column order.  The first
#: :data:`N_CONSERVED` sum to wall power; the tail entries are
#: counterfactuals excluded from the conservation check.
COMPONENTS = (
    "p_base",
    "p_trx_in",
    "p_port",
    "p_trx_up",
    "p_offset",
    "e_bit_traffic",
    "e_pkt_traffic",
    "dc_referral",
    "ambient_noise",
    "psu_conversion_loss",
    "sleep_savings_realized",
)

#: How many leading :data:`COMPONENTS` participate in conservation.
N_CONSERVED = 10

#: Conservation budget: per-router absolute residual between the
#: conserved component sum and the engine's wall power, per step.
#: Observed float error is ~1e-11 W worst case at 10k routers.
RESIDUAL_TOLERANCE_W = 1e-9

#: Joules per kilowatt-hour.
J_PER_KWH = 3.6e6

M_LEDGER_STEPS = metrics.counter(
    "netpower_ledger_steps_total",
    "Simulation steps recorded by the energy attribution ledger.")
M_LEDGER_RESIDUAL = metrics.gauge(
    "netpower_ledger_max_residual_w",
    "Worst per-router conservation residual seen by the ledger (W).")
M_LEDGER_ENERGY = metrics.gauge(
    "netpower_ledger_component_energy_kwh",
    "Accumulated fleet energy per attribution component (kWh).",
    labels=("component",))


class LedgerAccumulator:
    """Fixed-memory per-router, per-component energy accounting.

    One instance rides along a single simulation run.  The engine hands
    :meth:`record` a ``(steps, n_routers, n_components)`` watt matrix
    for a block of consecutive steps; the ledger integrates energy,
    checks conservation against the engine's own wall-power rows, and
    optionally keeps a fleet-level per-step series for Chrome-trace
    counter tracks.
    """

    def __init__(self, hostnames: Sequence[str],
                 track_series: bool = False):
        self.hostnames = tuple(hostnames)
        self._index = {h: i for i, h in enumerate(self.hostnames)}
        n = len(self.hostnames)
        #: Accumulated joules per router per component.
        self.energy_j = np.zeros((n, len(COMPONENTS)))
        #: The most recent step's watt matrix.
        self.last_power_w = np.zeros((n, len(COMPONENTS)))
        self.max_residual_w = 0.0
        self.n_steps = 0
        self.duration_s = 0.0
        self._track_series = bool(track_series)
        self._series_t: List[float] = []
        self._series_w: List[np.ndarray] = []

    # -- recording -----------------------------------------------------------

    def record(self, t_s: Sequence[float], step_s: float,
               power_w: np.ndarray, total_w: np.ndarray) -> np.ndarray:
        """Fold a block of steps in; returns fleet watts per component.

        ``power_w`` holds one ``(n_routers, n_components)`` watt matrix
        per step sampled at ``t_s``; ``total_w`` is the engine's own
        ``(steps, n_routers)`` wall power, the conservation reference.
        Energy accumulates one step's joules after the other, the same
        chain of additions whatever the block length.  Returns a
        ``(steps, n_components)`` matrix.
        """
        with profile.region("kernel.ledger_record"):
            residual = float(np.max(np.abs(
                power_w[..., :N_CONSERVED].sum(axis=-1) - total_w),
                initial=0.0))
            if residual > self.max_residual_w:
                self.max_residual_w = residual
            for energy in power_w * step_s:
                self.energy_j += energy
            np.copyto(self.last_power_w, power_w[-1])
            self.n_steps += len(power_w)
            for _ in range(len(power_w)):
                self.duration_s += step_s
            fleet_w = power_w.sum(axis=1)
            if self._track_series:
                self._series_t.extend(float(t) for t in t_s)
                self._series_w.extend(fleet_w.copy())
            if metrics.enabled():
                M_LEDGER_STEPS.inc(len(power_w))
                M_LEDGER_RESIDUAL.set(self.max_residual_w)
            return fleet_w

    def finalize(self) -> None:
        """Publish end-of-run gauges (no-op while metrics are disabled)."""
        if not metrics.enabled():
            return
        fleet = self.fleet_energy_j()
        for i, name in enumerate(COMPONENTS):
            M_LEDGER_ENERGY.labels(component=name).set(
                float(fleet[i]) / J_PER_KWH)

    # -- accessors -----------------------------------------------------------

    def conserved(self) -> bool:
        """Whether every step so far satisfied the conservation budget."""
        return self.max_residual_w <= RESIDUAL_TOLERANCE_W

    def index_of(self, hostname: str) -> int:
        """Row index of ``hostname`` in the ledger matrices."""
        return self._index[hostname]

    def fleet_energy_j(self) -> np.ndarray:
        """Total fleet joules per component, in ledger column order."""
        return self.energy_j.sum(axis=0)

    def router_energy_j(self, hostname: str) -> np.ndarray:
        """One router's joules per component, in ledger column order."""
        return self.energy_j[self._index[hostname]]

    def router_last_power_w(self, hostname: str) -> np.ndarray:
        """One router's most recent per-component watts."""
        return self.last_power_w[self._index[hostname]]

    def group_energy_j(self, hostnames: Sequence[str]) -> np.ndarray:
        """Summed joules per component over a hostname group."""
        idx = [self._index[h] for h in hostnames]
        return self.energy_j[idx].sum(axis=0)

    @staticmethod
    def component_dict(values: np.ndarray,
                       ndigits: int = 6) -> Dict[str, float]:
        """A component vector as a ``{name: rounded value}`` mapping."""
        return {name: round(float(values[i]), ndigits)
                for i, name in enumerate(COMPONENTS)}

    def to_dict(self) -> Dict:
        """Deterministic fleet-level rollup for reports.

        Energies are rounded to 6 decimals (the repo-wide aggregate
        convention); the residual keeps full precision because it lives
        many orders of magnitude below the rounding grid yet is exactly
        reproducible for a seeded run.
        """
        fleet = self.fleet_energy_j()
        duration = self.duration_s
        mean_w = fleet / duration if duration > 0 else np.zeros_like(fleet)
        return {
            "components": list(COMPONENTS),
            "n_steps": self.n_steps,
            "duration_s": round(duration, 6),
            "max_residual_w": self.max_residual_w,
            "tolerance_w": RESIDUAL_TOLERANCE_W,
            "conserved": self.conserved(),
            "energy_kwh": self.component_dict(fleet / J_PER_KWH),
            "mean_power_w": self.component_dict(mean_w),
        }

    # -- trace export --------------------------------------------------------

    def attach_counter_tracks(self, tracer: Optional[object]) -> None:
        """Hand the fleet component series to a tracer as counter tracks.

        Populates ``tracer.counter_tracks`` (consumed by
        :func:`repro.obs.export.chrome_trace` as ``ph: "C"`` events).
        Requires the accumulator to have been built with
        ``track_series=True``; silently does nothing otherwise.
        """
        if tracer is None or not self._series_t:
            return
        tracks = getattr(tracer, "counter_tracks", None)
        if tracks is None:
            return
        series = np.vstack(self._series_w)
        for i, name in enumerate(COMPONENTS):
            tracks.append({
                "name": f"attribution/{name}",
                "t_s": list(self._series_t),
                "values": [float(v) for v in series[:, i]],
            })
