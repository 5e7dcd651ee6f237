"""Observability must not perturb seeded results.

The contract (docs/OBSERVABILITY.md): instruments and spans only *read*
values -- they never draw randomness and never feed back into the
simulation -- so every seeded output is byte-identical whether a
registry/tracer is installed or not.
"""

from __future__ import annotations

import numpy as np

from repro.network import (
    FleetConfig,
    FleetTrafficModel,
    build_switch_like_network,
)
from repro.obs import metrics, tracing
from tests.object_oracle import SIMULATIONS

SMALL = FleetConfig(
    model_counts=(("8201-32FH", 1), ("NCS-55A1-24H", 2),
                  ("ASR-920-24SZ-M", 2)),
    n_regional_pops=1, core_core_links=1)


def _run(seed: int, engine: str, n_autopower: int = 1):
    network = build_switch_like_network(
        SMALL, rng=np.random.default_rng(seed))
    traffic = FleetTrafficModel(
        network, rng=np.random.default_rng(seed + 1), n_demands=30)
    sim = SIMULATIONS[engine](network, traffic,
                              rng=np.random.default_rng(seed + 2))
    for hostname in sorted(network.routers)[:n_autopower]:
        sim.deploy_autopower(hostname)
    return sim.run(duration_s=40 * 300.0, step_s=300.0)


class TestSimulationDeterminism:
    def _compare(self, engine: str):
        baseline = _run(seed=11, engine=engine)
        with metrics.use_registry(metrics.MetricsRegistry()):
            with tracing.use_tracer(tracing.Tracer()):
                observed = _run(seed=11, engine=engine)
        np.testing.assert_array_equal(
            baseline.total_power.values, observed.total_power.values)
        np.testing.assert_array_equal(
            baseline.total_traffic_bps.values,
            observed.total_traffic_bps.values)
        assert set(baseline.autopower) == set(observed.autopower)
        for host in baseline.autopower:
            np.testing.assert_array_equal(
                baseline.autopower[host].values,
                observed.autopower[host].values)
        assert len(baseline.sensor_exports) == len(observed.sensor_exports)

    def test_object_engine_identical_with_obs(self):
        self._compare("object")

    def test_vector_engine_identical_with_obs(self):
        self._compare("vector")


class TestDerivationDeterminism:
    def test_model_identical_with_obs(self):
        from repro.core import derive_power_model
        from repro.hardware import VirtualRouter, router_spec
        from repro.lab import ExperimentPlan, Orchestrator

        def derive(seed):
            rng = np.random.default_rng(seed)
            dut = VirtualRouter(router_spec("NCS-55A1-24H"), rng=rng,
                                noise_std_w=0.2)
            plan = ExperimentPlan(
                trx_name="QSFP28-100G-DAC", n_pairs_values=(1, 2),
                rates_gbps=(10, 100), packet_sizes=(256, 1500),
                measure_duration_s=5, settle_time_s=1)
            suite = Orchestrator(dut, rng=rng).run_suite(plan)
            model, _ = derive_power_model([suite])
            return model

        baseline = derive(seed=3)
        with metrics.use_registry(metrics.MetricsRegistry()):
            with tracing.use_tracer(tracing.Tracer()):
                observed = derive(seed=3)
        assert baseline.to_dict() == observed.to_dict()


class TestMetricsReflectTheRun:
    def test_sim_counters_match_run_shape(self):
        registry = metrics.MetricsRegistry()
        with metrics.use_registry(registry):
            result = _run(seed=11, engine="vector")
        steps = registry.get("netpower_sim_steps_total")
        assert steps.labels(engine="vector").value == len(
            result.total_power.values)
        runs = registry.get("netpower_sim_engine_runs_total")
        assert runs.labels(engine="vector").value == 1
        hist = registry.get("netpower_sim_step_seconds")
        assert hist.labels(engine="vector").count == len(
            result.total_power.values)
        power = registry.get("netpower_sim_fleet_power_watts")
        assert power.default().value == result.total_power.values[-1]

    def test_autopower_counters_track_uploads(self):
        registry = metrics.MetricsRegistry()
        with metrics.use_registry(registry):
            result = _run(seed=11, engine="vector", n_autopower=2)
        uploaded = registry.get("netpower_autopower_samples_uploaded_total")
        total = sum(inst.value for _, inst in uploaded.samples())
        assert total == sum(len(s) for s in result.autopower.values())
        deploys = registry.get("netpower_autopower_deploys_total")
        assert deploys.default().value == 2
