"""The kernel profiler: stats, exports, and the zero-cost-off contract.

The headline contract: profiling only *times* code.  Turning it on must
never change a byte of any seeded output -- the determinism tests here
run the same seeded sweep with profiling (and tracing) on and off and
require identical report bytes.
"""

from __future__ import annotations

import json

from repro.obs import metrics, profile, tracing
from repro.obs.profile import Profiler
from repro.sweep import ScenarioMatrix, run_sweep

#: Two fast jobs; enough to exercise every instrumented hot path.
FAST = ScenarioMatrix(
    topologies=("tiny",), traffics=("quiet", "busy"), sleeps=("none",),
    psus=("balanced",), duration_s=2 * 3600.0, step_s=900.0)


class TestProfilerStats:
    def test_nested_regions_split_self_and_cumulative(self):
        prof = Profiler()
        with prof.region("outer"):
            with prof.region("inner"):
                pass
            with prof.region("inner"):
                pass
        doc = prof.to_dict()
        assert doc["schema"] == profile.PROFILE_SCHEMA
        outer, inner = doc["kernels"]["outer"], doc["kernels"]["inner"]
        assert outer["calls"] == 1 and inner["calls"] == 2
        # Outer's cumulative time covers the children; its self time
        # excludes them.
        assert outer["cum_s"] >= inner["cum_s"]
        assert outer["self_s"] <= outer["cum_s"] - inner["cum_s"] + 1e-9
        assert inner["self_s"] >= 0

    def test_reentrant_kernel_accumulates(self):
        prof = Profiler()
        for _ in range(5):
            with prof.region("k"):
                pass
        stat = prof.to_dict()["kernels"]["k"]
        assert stat["calls"] == 5
        assert sum(stat["bucket_counts"]) == 5
        assert len(stat["bucket_counts"]) == len(profile.CALL_BUCKETS) + 1

    def test_paths_record_unique_stacks(self):
        prof = Profiler()
        with prof.region("a"):
            with prof.region("b"):
                pass
        with prof.region("b"):
            pass
        stacks = [p["stack"] for p in prof.to_dict()["paths"]]
        assert stacks == [["a"], ["a", "b"], ["b"]]

    def test_kernel_cap_routes_to_overflow_bucket(self):
        prof = Profiler()
        for i in range(profile.MAX_KERNELS + 10):
            # netpower: ignore[NP-OBS-001] -- deliberately dynamic: this
            # test exercises the cardinality cap the rule exists to
            # protect.
            with prof.region(f"k{i:04d}"):
                pass
        kernels = prof.to_dict()["kernels"]
        assert len(kernels) == profile.MAX_KERNELS + 1
        assert kernels[profile.OVERFLOW_KERNEL]["calls"] == 10

    def test_merge_adds_counts_and_paths(self):
        a, b = Profiler(), Profiler()
        for p in (a, b):
            with p.region("k"):
                with p.region("n"):
                    pass
        a.merge(b)
        doc = a.to_dict()
        assert doc["kernels"]["k"]["calls"] == 2
        assert doc["kernels"]["n"]["calls"] == 2
        by_stack = {tuple(p["stack"]): p["calls"] for p in doc["paths"]}
        assert by_stack[("k", "n")] == 2


class TestExports:
    def _profiled(self):
        prof = Profiler()
        with prof.region("a"):
            with prof.region("b"):
                pass
        return prof

    def test_to_json_round_trips_sorted(self):
        doc = json.loads(self._profiled().to_json())
        assert list(doc["kernels"]) == sorted(doc["kernels"])
        assert doc["bucket_bounds_s"] == list(profile.CALL_BUCKETS)

    def test_folded_lines(self):
        lines = self._profiled().folded().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("a ")
        assert lines[1].startswith("a;b ")
        for line in lines:
            int(line.rsplit(" ", 1)[1])  # integer microsecond weight

    def test_empty_folded_is_empty_string(self):
        assert Profiler().folded() == ""

    def test_speedscope_document(self):
        doc = self._profiled().speedscope()
        frames = [f["name"] for f in doc["shared"]["frames"]]
        assert frames == ["a", "b"]
        prof_doc = doc["profiles"][0]
        assert prof_doc["type"] == "sampled"
        assert prof_doc["samples"] == [[0], [0, 1]]
        assert len(prof_doc["weights"]) == 2
        json.dumps(doc)

    def test_write_profile_dispatch(self, tmp_path):
        prof = self._profiled()
        native = profile.write_profile(tmp_path / "p.json", prof)
        assert json.loads(native.read_text())["schema"] == \
            profile.PROFILE_SCHEMA
        folded = profile.write_profile(tmp_path / "p.folded", prof)
        assert folded.read_text() == prof.folded()
        scope = profile.write_profile(tmp_path / "p.speedscope.json",
                                      prof)
        assert json.loads(scope.read_text())["profiles"][0]["type"] == \
            "sampled"

    def test_publish_metrics(self):
        prof = self._profiled()
        with metrics.use_registry(metrics.MetricsRegistry()) as registry:
            prof.publish_metrics()
            state = registry.snapshot_state()
        families = state["families"]
        calls = {tuple(s["labels"]): s["value"]
                 for s in families["netpower_profile_calls_total"][
                     "samples"]}
        assert calls == {("a",): 1, ("b",): 1}
        [hist_a, hist_b] = sorted(
            families["netpower_profile_call_seconds"]["samples"],
            key=lambda s: s["labels"])
        assert hist_a["count"] == 1 and hist_b["count"] == 1
        assert hist_a["sum"] >= hist_b["sum"]

    def test_publish_metrics_noop_when_disabled(self):
        assert not metrics.enabled()
        self._profiled().publish_metrics()  # must not raise


class TestActiveProfiler:
    def test_region_is_shared_noop_when_off(self):
        assert not profile.enabled()
        assert profile.region("x") is profile.region("y")
        with profile.region("x"):
            pass  # must not record anywhere

    def test_use_profiler_scopes_and_restores(self):
        prof = Profiler()
        with profile.use_profiler(prof):
            assert profile.enabled()
            with profile.region("seen"):
                pass
        assert not profile.enabled()
        assert profile.region("later") is not None
        assert prof.to_dict()["kernels"]["seen"]["calls"] == 1
        assert "later" not in prof.to_dict()["kernels"]

    def test_set_profiler_returns_previous(self):
        first, second = Profiler(), Profiler()
        assert profile.set_profiler(first) is None
        assert profile.set_profiler(second) is first
        assert profile.set_profiler(None) is second


class TestDeterminism:
    """Profiling on vs off never changes a byte of seeded output."""

    def test_sweep_report_identical_with_profiling_on(self, tmp_path):
        off = tmp_path / "off.json"
        run_sweep(FAST, root_seed=7, workers=1, output=off)

        # Inline (workers=1) with profiling + tracing live ...
        inline = tmp_path / "inline.json"
        with profile.use_profiler(Profiler()) as prof:
            with tracing.use_tracer(tracing.Tracer()):
                run_sweep(FAST, root_seed=7, workers=1, output=inline)
        assert inline.read_bytes() == off.read_bytes()
        # ... and the hot paths actually ran under the profiler.
        inline_kernels = prof.to_dict()["kernels"]
        assert inline_kernels

        # Multi-process: workers ship their per-job profilers home and
        # the parent merges, so the totals match the inline run.
        multi = tmp_path / "multi.json"
        with profile.use_profiler(Profiler()) as multi_prof:
            with tracing.use_tracer(tracing.Tracer()):
                run_sweep(FAST, root_seed=7, workers=2, output=multi)
        assert multi.read_bytes() == off.read_bytes()
        multi_kernels = multi_prof.to_dict()["kernels"]
        assert {k: v["calls"] for k, v in multi_kernels.items()} == \
            {k: v["calls"] for k, v in inline_kernels.items()}

    def test_simulation_hot_paths_record_expected_kernels(self,
                                                          monkeypatch):
        from repro.sweep import JobSpec, run_job
        from tests.object_oracle import SIMULATIONS

        spec = JobSpec("tiny", "busy", "none", "balanced",
                       2 * 3600.0, 900.0)
        kernels = {}
        for engine in ("vector", "object"):
            monkeypatch.setattr("repro.sweep.runner.NetworkSimulation",
                                SIMULATIONS[engine])
            with profile.use_profiler(Profiler()) as prof:
                run_job(spec, root_seed=7)
            kernels[engine] = set(prof.to_dict()["kernels"])
        for engine, seen in kernels.items():
            assert {"kernel.apply_traffic", "kernel.advance_counters",
                    "kernel.wall_power"} <= seen, engine
        assert "kernel.snmp_poll" in kernels["vector"]

    def test_engine_results_identical_with_profiling_on(self):
        from repro.sweep import JobSpec, run_job

        spec = JobSpec("tiny", "quiet", "hypnos-50", "balanced",
                       2 * 3600.0, 900.0)
        plain, _ = run_job(spec, root_seed=7)
        with profile.use_profiler(Profiler()):
            profiled, _ = run_job(spec, root_seed=7)
        assert json.dumps(profiled, sort_keys=True) == \
            json.dumps(plain, sort_keys=True)
