"""The deployment substrate: a synthetic Switch-like Tier-2 ISP.

* :mod:`repro.network.topology` -- fleet generation (107 routers, PoPs,
  internal/external links, spare modules);
* :mod:`repro.network.synth` -- deterministic multi-tier synthetic
  fleets (1k-100k routers) for the scale benchmarks and sweeps;
* :mod:`repro.network.traffic` -- diurnal demand processes and the routed
  internal traffic matrix;
* :mod:`repro.network.events` -- operational events (module swaps, OS
  updates, decommissioning, Autopower deployment);
* :mod:`repro.network.simulation` -- the time-stepped run loop feeding
  the SNMP and Autopower collectors.
"""

from repro.network.topology import (
    ExternalPeerPort,
    FleetConfig,
    ISPNetwork,
    Link,
    LinkEnd,
    LinkKind,
    build_switch_like_network,
    CORE_MODELS,
    AGG_MODELS,
    ACCESS_MODELS,
)
from repro.network.synth import (
    SYNTH_PRESETS,
    SynthConfig,
    generate_synth_network,
    synth_config,
)
from repro.network.traffic import (
    Demand,
    DiurnalProfile,
    ExternalDemand,
    FleetTrafficModel,
    TrafficMatrix,
)
from repro.network.events import (
    AddExternalInterface,
    AmbientChange,
    HeatWave,
    Commission,
    Decommission,
    DegradePsu,
    DeployAutopower,
    FleetEvent,
    OsUpdate,
    PowerCycle,
    SetAdminState,
    UnplugModule,
)
from repro.network.inventory import (
    FleetInventory,
    InterfaceEntry,
    InventoryChange,
    RouterInventory,
    diff_inventories,
)
from repro.network.simulation import (
    NetworkSimulation,
    SimulationResult,
    StepObserver,
    StepSnapshot,
)
from repro.network.engine import (
    FLEET_PACKET_BYTES,
    FleetState,
    VectorizedEngine,
)

__all__ = [
    "ExternalPeerPort",
    "FleetConfig",
    "ISPNetwork",
    "Link",
    "LinkEnd",
    "LinkKind",
    "build_switch_like_network",
    "CORE_MODELS",
    "AGG_MODELS",
    "ACCESS_MODELS",
    "SYNTH_PRESETS",
    "SynthConfig",
    "generate_synth_network",
    "synth_config",
    "Demand",
    "DiurnalProfile",
    "ExternalDemand",
    "FleetTrafficModel",
    "TrafficMatrix",
    "AddExternalInterface",
    "AmbientChange",
    "HeatWave",
    "Commission",
    "Decommission",
    "DegradePsu",
    "DeployAutopower",
    "FleetEvent",
    "OsUpdate",
    "PowerCycle",
    "SetAdminState",
    "UnplugModule",
    "FleetInventory",
    "InterfaceEntry",
    "InventoryChange",
    "RouterInventory",
    "diff_inventories",
    "FLEET_PACKET_BYTES",
    "NetworkSimulation",
    "SimulationResult",
    "StepObserver",
    "StepSnapshot",
    "FleetState",
    "VectorizedEngine",
]
