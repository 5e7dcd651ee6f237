"""Energy attribution drill-down: the ``netpower explain`` document.

The engine writes each step's attribution split straight out of its
component columns (:meth:`repro.network.engine.FleetState.wall_power`)
into the ledger; this module rolls a finished run's ledger up into the
versioned fleet -> region -> router -> port report the CLI renders
(:func:`build_explain_document`), with per-port rows read off the
router objects (:func:`port_breakdown_rows`).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.hardware.router import VirtualRouter
from repro.obs.ledger import (COMPONENTS, J_PER_KWH, N_CONSERVED,
                              RESIDUAL_TOLERANCE_W, LedgerAccumulator)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.network.topology import ISPNetwork

#: Version stamp on every ``netpower explain`` document.
EXPLAIN_SCHEMA = "repro.explain/v1"


def port_breakdown_rows(router: VirtualRouter) -> List[Dict]:
    """Per-port drill-down rows from a router's current object state.

    One row per port with the static split, the instantaneous dynamic
    terms for the currently offered traffic, and the sleep
    counterfactual -- the port level of ``netpower explain --host``.
    Rows reflect the state at the moment of the call (after a run, the
    final step's state).
    """
    rows: List[Dict] = []
    for port in router.ports:
        s_in, s_port, s_up = port.static_components()
        truth = port.class_truth()
        traffic = port.traffic
        dynamic = ((traffic.rx_bps or traffic.tx_bps) and port.link_up
                   and traffic.total_bps > 0 and truth is not None)
        rows.append({
            "name": port.name,
            "plugged": port.plugged,
            "admin_up": port.admin_up,
            "link_up": port.link_up,
            "p_trx_in_w": round(s_in, 6),
            "p_port_w": round(s_port, 6),
            "p_trx_up_w": round(s_up, 6),
            "p_offset_w": round(truth.p_offset_w if dynamic else 0.0, 6),
            "e_bit_traffic_w": round(
                truth.e_bit_j * traffic.total_bps if dynamic else 0.0, 6),
            "e_pkt_traffic_w": round(
                truth.e_pkt_j * traffic.total_pps if dynamic else 0.0, 6),
            "sleep_savings_w": round(port.sleep_savings_w(), 6),
        })
    return rows


def _group_block(ledger: LedgerAccumulator, hostnames: List[str],
                 duration_s: float) -> Dict:
    """Energy/mean-power rollup for one hostname group."""
    energy = ledger.group_energy_j(hostnames)
    mean = energy / duration_s if duration_s > 0 else np.zeros_like(energy)
    return {
        "hosts": len(hostnames),
        "energy_kwh": ledger.component_dict(energy / J_PER_KWH),
        "mean_power_w": ledger.component_dict(mean),
    }


def build_explain_document(ledger: LedgerAccumulator,
                           network: "ISPNetwork", *, engine: str,
                           scenario: Dict,
                           host: Optional[str] = None,
                           top: int = 10) -> Dict:
    """Assemble the ``repro.explain/v1`` drill-down document.

    ``scenario`` carries run metadata (preset, seed, steps) verbatim;
    ``top`` bounds the per-router section to the N largest energy
    consumers (the region and fleet sections always cover everything);
    ``host`` adds a single router's port-level drill-down.
    """
    duration = ledger.duration_s
    regions = {}
    for pop in sorted(network.pops):
        hosts = [h for h in network.pops[pop] if h in network.routers]
        if hosts:
            regions[pop] = _group_block(ledger, hosts, duration)
    conserved = ledger.energy_j[:, :N_CONSERVED].sum(axis=1)
    ranked = sorted(ledger.hostnames,
                    key=lambda h: (-conserved[ledger.index_of(h)], h))
    routers = {}
    for hostname in ranked[:max(0, top)]:
        energy = ledger.router_energy_j(hostname)
        mean = (energy / duration if duration > 0
                else np.zeros_like(energy))
        routers[hostname] = {
            "model": network.routers[hostname].model_name,
            "energy_kwh": ledger.component_dict(energy / J_PER_KWH),
            "mean_power_w": ledger.component_dict(mean),
        }
    document = {
        "schema": EXPLAIN_SCHEMA,
        "engine": engine,
        "scenario": scenario,
        "components": list(COMPONENTS),
        "conservation": {
            "max_residual_w": ledger.max_residual_w,
            "tolerance_w": RESIDUAL_TOLERANCE_W,
            "ok": ledger.conserved(),
            "n_steps": ledger.n_steps,
        },
        "fleet": _group_block(ledger, list(ledger.hostnames), duration),
        "regions": regions,
        "routers": routers,
        "top": top,
    }
    if host is not None:
        if host not in network.routers:
            raise ValueError(f"unknown router {host!r}")
        energy = ledger.router_energy_j(host)
        document["router"] = {
            "hostname": host,
            "model": network.routers[host].model_name,
            "energy_kwh": ledger.component_dict(energy / J_PER_KWH),
            "last_power_w": ledger.component_dict(
                ledger.router_last_power_w(host)),
            "ports": port_breakdown_rows(network.routers[host]),
        }
    return document


def explain_to_json(document: Dict) -> str:
    """Serialize an explain document deterministically (sorted keys)."""
    return json.dumps(document, indent=2, sort_keys=True)


def _component_table(energies: Dict[str, float], means: Dict[str, float],
                     indent: str = "  ",
                     power_label: str = "mean W") -> List[str]:
    """Rows of one group's per-component energy/power table."""
    conserved_kwh = sum(energies[name] for name in COMPONENTS[:N_CONSERVED])
    lines = [f"{indent}{'component':24s} {'energy kWh':>12s} "
             f"{power_label:>12s} {'share':>7s}"]
    for name in COMPONENTS:
        share = (100.0 * energies[name] / conserved_kwh
                 if conserved_kwh else 0.0)
        marker = "*" if name in COMPONENTS[N_CONSERVED:] else " "
        lines.append(f"{indent}{name:24s} {energies[name]:12,.3f} "
                     f"{means[name]:12,.2f} {share:6.1f}%{marker}")
    lines.append(f"{indent}{'total (conserved)':24s} "
                 f"{conserved_kwh:12,.3f}")
    return lines


def render_explain_text(document: Dict) -> str:
    """Render an explain document as the CLI's text drill-down."""
    scenario = document["scenario"]
    conservation = document["conservation"]
    lines = [f"energy attribution ({document['schema']})"]
    lines.append("scenario           : " + " ".join(
        [f"engine={document['engine']}"]
        + [f"{key}={scenario[key]}" for key in sorted(scenario)]))
    lines.append(
        f"conservation       : max residual "
        f"{conservation['max_residual_w']:.3e} W over "
        f"{conservation['n_steps']} steps (tolerance "
        f"{conservation['tolerance_w']:.0e}) -- "
        f"{'OK' if conservation['ok'] else 'VIOLATED'}")
    fleet = document["fleet"]
    lines.append(f"fleet              : {fleet['hosts']} routers "
                 f"(* = counterfactual, excluded from the total)")
    lines.extend(_component_table(fleet["energy_kwh"],
                                  fleet["mean_power_w"]))
    lines.append("regions:")
    for pop, block in document["regions"].items():
        energies = block["energy_kwh"]
        conserved_kwh = sum(energies[name]
                            for name in COMPONENTS[:N_CONSERVED])
        lines.append(f"  {pop:18s} {block['hosts']:4d} hosts "
                     f"{conserved_kwh:12,.3f} kWh")
    lines.append(f"top {document['top']} routers by energy:")
    for hostname, block in document["routers"].items():
        energies = block["energy_kwh"]
        conserved_kwh = sum(energies[name]
                            for name in COMPONENTS[:N_CONSERVED])
        lines.append(f"  {hostname:18s} {block['model']:22s} "
                     f"{conserved_kwh:12,.3f} kWh")
    router = document.get("router")
    if router is not None:
        lines.append(f"router {router['hostname']} ({router['model']}):")
        lines.extend(_component_table(router["energy_kwh"],
                                      router["last_power_w"],
                                      power_label="last W"))
        lines.append("  ports (instantaneous, final step):")
        lines.append(f"    {'port':16s} {'state':8s} {'static W':>10s} "
                     f"{'dynamic W':>10s} {'sleep W':>9s}")
        for row in router["ports"]:
            state = ("unplug" if not row["plugged"]
                     else "down" if not row["admin_up"]
                     else "up" if row["link_up"] else "no-link")
            static = (row["p_trx_in_w"] + row["p_port_w"]
                      + row["p_trx_up_w"])
            dynamic = (row["p_offset_w"] + row["e_bit_traffic_w"]
                       + row["e_pkt_traffic_w"])
            lines.append(f"    {row['name']:16s} {state:8s} "
                         f"{static:10.3f} {dynamic:10.3f} "
                         f"{row['sleep_savings_w']:9.3f}")
    return "\n".join(lines)
