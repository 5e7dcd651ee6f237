"""Sharded, multiprocess scenario sweeps over the fleet simulation.

* :mod:`repro.sweep.matrix` -- the declarative scenario matrix (topology
  x traffic x sleep policy x PSU sharing) and its deterministic per-job
  seeding;
* :mod:`repro.sweep.runner` -- job execution across worker processes,
  resume-able report assembly, and cross-process metrics merging.

The headline guarantee: a sweep report is a pure function of
``(matrix, root_seed)`` -- worker count, sharding, resume
boundaries, and completion order never change a byte (docs/SWEEP.md).
"""

from repro.sweep.matrix import (
    AXES,
    JobSpec,
    MATRIX_PRESETS,
    PSU_PRESETS,
    ScenarioMatrix,
    SLEEP_PRESETS,
    TOPOLOGY_PRESETS,
    TRAFFIC_PRESETS,
    build_topology,
    expand,
    parse_shard,
    shard_jobs,
    topology_config,
    topology_preset_names,
)
from repro.sweep.runner import (
    SCHEMA,
    default_bench_output,
    load_previous_jobs,
    run_job,
    run_sweep,
)

__all__ = [
    "AXES",
    "JobSpec",
    "MATRIX_PRESETS",
    "PSU_PRESETS",
    "ScenarioMatrix",
    "SLEEP_PRESETS",
    "TOPOLOGY_PRESETS",
    "TRAFFIC_PRESETS",
    "build_topology",
    "expand",
    "parse_shard",
    "shard_jobs",
    "topology_config",
    "topology_preset_names",
    "SCHEMA",
    "default_bench_output",
    "load_previous_jobs",
    "run_job",
    "run_sweep",
]
