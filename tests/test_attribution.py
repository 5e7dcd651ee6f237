"""Energy attribution ledger: conservation, agreement, byte identity.

The ledger's headline contracts, exercised over the same randomized
seeded event schedules as the incremental-refresh suite (helpers are
imported from :mod:`tests.test_engine_incremental`):

* **Conservation** -- the conserved components sum to the engine's wall
  power within 1e-9 W per router per step, on the engine and the object
  oracle, for any seeded schedule (a Hypothesis property over schedule
  seeds).
* **Engine agreement** -- oracle and engine ledgers attribute the same
  joules to the same components wherever their wall power agrees.
* **Byte identity** -- attribution on vs off never changes a simulated
  byte, and the ledger itself is bitwise stable across the incremental
  vs full-rebuild engine paths.
* **Surfaces** -- the ``repro.explain/v1`` document is deterministic,
  the dashboard carries the attribution block exactly when the ledger
  ran, and sweep resume refuses to mix attribution modes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor import FleetMonitor, build_snapshot, snapshot_json
from repro.network.attribution import (
    EXPLAIN_SCHEMA,
    build_explain_document,
    explain_to_json,
    render_explain_text,
)
from repro.obs.ledger import (
    COMPONENTS,
    N_CONSERVED,
    RESIDUAL_TOLERANCE_W,
)
from repro.sweep import JobSpec, ScenarioMatrix, run_job, run_sweep
from tests.test_engine_incremental import (
    N_STEPS,
    STEP_S,
    _assert_bitwise_identical,
    _build,
    _random_events,
    _run,
)


def _run_attr(engine: str, events, attribution: bool = True,
              incremental: bool = True, seed: int = 11):
    """One seeded run with the energy ledger attached (or not)."""
    return _run(engine, events, incremental=incremental, seed=seed,
                attribution=attribution)


def _hosts():
    return sorted(_build()[0].routers)


class TestConservation:
    @pytest.mark.parametrize("engine", ["object", "vector"])
    @pytest.mark.parametrize("schedule_seed", [101, 303])
    def test_events_never_break_conservation(self, engine, schedule_seed):
        events = _random_events(schedule_seed, _hosts())
        _, result = _run_attr(engine, events)
        ledger = result.ledger
        assert ledger is not None
        assert ledger.n_steps == N_STEPS
        assert ledger.max_residual_w <= RESIDUAL_TOLERANCE_W
        assert ledger.conserved()

    def test_conserved_energy_matches_the_power_trace(self):
        events = _random_events(101, _hosts())
        _, result = _run_attr("vector", events)
        ledger = result.ledger
        conserved_j = float(ledger.fleet_energy_j()[:N_CONSERVED].sum())
        trace_j = float(np.sum(result.total_power.values) * STEP_S)
        assert conserved_j == pytest.approx(trace_j, rel=1e-12)

    @given(schedule_seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_conservation_is_a_property_of_any_schedule(self, schedule_seed):
        events = _random_events(schedule_seed, _hosts())
        _, result = _run_attr("vector", events)
        ledger = result.ledger
        assert ledger.max_residual_w <= RESIDUAL_TOLERANCE_W


class TestEngineAgreement:
    def test_ledgers_attribute_the_same_joules(self):
        events = _random_events(202, _hosts())
        _, r_obj = _run_attr("object", events)
        _, r_vec = _run_attr("vector", events)
        assert r_obj.ledger.hostnames == r_vec.ledger.hostnames
        np.testing.assert_allclose(r_obj.ledger.energy_j,
                                   r_vec.ledger.energy_j,
                                   rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(r_obj.ledger.last_power_w,
                                   r_vec.ledger.last_power_w,
                                   rtol=1e-9, atol=1e-9)


class TestByteIdentity:
    @pytest.mark.parametrize("engine", ["object", "vector"])
    def test_attribution_off_is_bitwise_untouched(self, engine):
        events = _random_events(303, _hosts())
        _, r_off = _run_attr(engine, events, attribution=False)
        _, r_on = _run_attr(engine, events, attribution=True)
        assert r_off.ledger is None
        _assert_bitwise_identical(r_off, r_on)

    def test_incremental_vs_full_rebuild_ledger_is_bitwise(self):
        events = _random_events(101, _hosts())
        _, r_inc = _run_attr("vector", events, incremental=True)
        _, r_full = _run_attr("vector", events, incremental=False)
        np.testing.assert_array_equal(r_inc.ledger.energy_j,
                                      r_full.ledger.energy_j)
        np.testing.assert_array_equal(r_inc.ledger.last_power_w,
                                      r_full.ledger.last_power_w)
        assert r_inc.ledger.max_residual_w == r_full.ledger.max_residual_w


class TestExplainDocument:
    def _document(self, host=None):
        events = _random_events(101, _hosts())
        network, result = _run_attr("vector", events)
        return build_explain_document(
            result.ledger, network, engine="vector",
            scenario={"preset": "synth-200", "seed": 11,
                      "steps": N_STEPS, "step_s": STEP_S},
            host=host)

    def test_document_is_deterministic(self):
        assert explain_to_json(self._document()) == \
            explain_to_json(self._document())

    def test_document_shape(self):
        document = self._document()
        assert document["schema"] == EXPLAIN_SCHEMA
        assert document["conservation"]["ok"] is True
        assert document["components"] == list(COMPONENTS)
        regions = list(document["regions"])
        assert regions == sorted(regions)
        assert len(document["routers"]) <= 10
        text = render_explain_text(document)
        assert "total (conserved)" in text
        assert "engine=vector" in text

    def test_host_drill_down_lists_ports(self):
        host = _hosts()[0]
        document = self._document(host=host)
        router = document["router"]
        assert router["hostname"] == host
        assert router["ports"], "expected per-port rows"
        assert "port" in render_explain_text(document)


class TestDashboard:
    def _snapshot(self, attribution: bool):
        network, sim = _build()
        monitor = FleetMonitor()
        sim.add_observer(monitor)
        sim.run(duration_s=10 * STEP_S, step_s=STEP_S,
                attribution=attribution)
        return build_snapshot(monitor)

    def test_attribution_block_present_exactly_when_ledger_ran(self):
        on = self._snapshot(True)
        off = self._snapshot(False)
        assert off["attribution"] is None
        block = on["attribution"]
        assert block["n_steps"] == 10
        assert set(block["energy_kwh"]) == set(COMPONENTS)
        assert set(block["last_power_w"]) == set(COMPONENTS)
        snapshot_json(on)  # must stay serializable / schema-shaped


class TestSweepAttribution:
    MATRIX = ScenarioMatrix(
        topologies=("tiny",), traffics=("quiet",), sleeps=("none",),
        psus=("balanced",), duration_s=2 * 900.0, step_s=900.0)

    def test_rollup_rides_along_without_touching_the_entry(self):
        spec = JobSpec("tiny", "quiet", "none", "balanced",
                       2 * 900.0, 900.0)
        on, _ = run_job(spec, root_seed=7, attribution=True)
        off, _ = run_job(spec, root_seed=7)
        assert "attribution" not in off
        block = on.pop("attribution")
        assert block["conserved"] is True
        assert block["max_residual_w"] <= RESIDUAL_TOLERANCE_W
        assert on == off

    def test_resume_refuses_to_mix_attribution_modes(self, tmp_path):
        output = tmp_path / "sweep.json"
        run_sweep(self.MATRIX, root_seed=7, workers=1, output=output)
        with pytest.raises(ValueError, match="attribution"):
            run_sweep(self.MATRIX, root_seed=7, workers=1, resume=True,
                      output=output, attribution=True)
