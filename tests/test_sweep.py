"""The sweep subsystem: matrix expansion, determinism, sharding, resume.

The headline contract under test: a sweep report is a pure function of
``(matrix, root_seed)`` -- worker count, sharding, resume
boundaries, and completion order must never change a byte.
"""

import json

import pytest

from repro.obs import metrics, tracing
from repro.sweep import (
    JobSpec,
    MATRIX_PRESETS,
    ScenarioMatrix,
    default_bench_output,
    expand,
    parse_shard,
    run_job,
    run_sweep,
    shard_jobs,
)
from tests.object_oracle import OracleSimulation

#: Small enough to keep the multiprocess tests quick (8 steps per job).
FAST = ScenarioMatrix(
    topologies=("tiny",), traffics=("quiet", "busy"),
    sleeps=("none", "hypnos-50"), psus=("balanced",),
    duration_s=2 * 3600.0, step_s=900.0)


class TestMatrix:
    def test_expand_covers_the_cross_product(self):
        matrix = ScenarioMatrix(
            topologies=("tiny", "small"), traffics=("quiet",),
            sleeps=("none", "hypnos-50"), psus=("balanced", "single"))
        jobs = expand(matrix)
        assert len(jobs) == matrix.n_jobs == 8
        assert len({job.key for job in jobs}) == 8
        assert jobs[0].key == "tiny/quiet/none/balanced"

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown traffics"):
            ScenarioMatrix(traffics=("rush-hour",))

    def test_duplicate_axis_entry_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ScenarioMatrix(sleeps=("none", "none"))

    def test_dict_round_trip(self):
        matrix = MATRIX_PRESETS["sleep-policy"]
        assert ScenarioMatrix.from_dict(matrix.to_dict()) == matrix

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown matrix key"):
            ScenarioMatrix.from_dict({"topologies": ["tiny"],
                                      "workers": 4})

    def test_presets_expand(self):
        for name, matrix in MATRIX_PRESETS.items():
            assert len(expand(matrix)) == matrix.n_jobs, name


class TestSeeding:
    def test_seed_depends_only_on_key_and_root(self):
        a = JobSpec("tiny", "quiet", "none", "balanced", 3600.0, 900.0)
        b = JobSpec("tiny", "quiet", "none", "balanced", 7200.0, 300.0)
        assert a.seed(7) == b.seed(7)        # duration is not identity
        assert a.seed(7) != a.seed(8)        # root seed matters

    def test_seed_is_process_stable(self):
        # A fixed value pins the derivation across platforms and Python
        # versions -- the cross-process determinism guarantee depends
        # on it (builtin hash() would be salted per process).
        spec = JobSpec("tiny", "quiet", "none", "balanced", 3600.0, 900.0)
        assert spec.seed(7) == 243662070641855988

    def test_distinct_jobs_get_distinct_seeds(self):
        jobs = expand(MATRIX_PRESETS["psu"])
        seeds = {job.seed(7) for job in jobs}
        assert len(seeds) == len(jobs)


class TestSharding:
    def test_parse_shard(self):
        assert parse_shard("0/4") == (0, 4)
        assert parse_shard("3/4") == (3, 4)
        for bad in ("4/4", "-1/4", "1", "a/b", "1/0"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_shards_partition_the_job_list(self):
        jobs = expand(MATRIX_PRESETS["psu"])
        pieces = [shard_jobs(jobs, i, 5) for i in range(5)]
        seen = [job.key for piece in pieces for job in piece]
        assert sorted(seen) == sorted(job.key for job in jobs)
        assert len(seen) == len(set(seen))


class TestDeterminism:
    def test_worker_count_never_changes_a_byte(self, tmp_path):
        paths = {n: tmp_path / f"w{n}.json" for n in (1, 2, 4)}
        for n, path in paths.items():
            run_sweep(FAST, root_seed=7, workers=n, output=path)
        w1 = paths[1].read_bytes()
        assert paths[2].read_bytes() == w1
        assert paths[4].read_bytes() == w1

    def test_resume_converges_on_the_full_report(self, tmp_path):
        full = tmp_path / "full.json"
        run_sweep(FAST, root_seed=7, workers=1, output=full)
        # Run one shard first, then resume the whole matrix into it.
        partial = tmp_path / "partial.json"
        jobs = expand(FAST)
        run_sweep(FAST, root_seed=7, workers=2,
                  jobs=shard_jobs(jobs, 0, 2), output=partial)
        assert len(json.loads(partial.read_text())["jobs"]) == 2
        run_sweep(FAST, root_seed=7, workers=2, resume=True,
                  output=partial)
        assert partial.read_bytes() == full.read_bytes()

    def test_resume_rejects_a_different_sweep(self, tmp_path):
        output = tmp_path / "sweep.json"
        run_sweep(FAST, root_seed=7, workers=1, output=output)
        with pytest.raises(ValueError, match="cannot resume"):
            run_sweep(FAST, root_seed=8, workers=1, resume=True,
                      output=output)

    def test_run_job_engines_agree_on_aggregates(self, monkeypatch):
        spec = JobSpec("tiny", "quiet", "hypnos-50", "balanced",
                       2 * 3600.0, 900.0)
        vector, _ = run_job(spec, root_seed=7)
        monkeypatch.setattr("repro.sweep.runner.NetworkSimulation",
                            OracleSimulation)
        objekt, _ = run_job(spec, root_seed=7)
        assert vector["run"]["engine"] == "vector"
        assert objekt["run"]["engine"] == "object"
        assert vector["aggregates"]["mean_power_w"] == pytest.approx(
            objekt["aggregates"]["mean_power_w"], rel=1e-6)
        assert vector["seed"] == objekt["seed"]

    def test_topo_xl_preset_runs_a_generated_fleet(self):
        jobs = expand(MATRIX_PRESETS["topo-xl"])
        assert [j.topology for j in jobs] == ["synth-1k"]
        entry, bench_row = run_job(jobs[0], root_seed=7)
        assert entry["fleet"]["routers"] >= 1000
        assert entry["aggregates"]["mean_power_w"] > 0
        assert bench_row["vector"]["wall_s"] > 0


class TestBenchRows:
    def test_timing_rows_live_outside_the_report(self, tmp_path):
        output = tmp_path / "sweep.json"
        run_sweep(FAST, root_seed=7, workers=1, output=output)
        report = json.loads(output.read_text())
        assert "wall_s" not in json.dumps(report)
        rows = json.loads(default_bench_output(output).read_text())
        assert rows["schema"] == "repro.bench.simulation/v7"
        assert len(rows["cases"]) == FAST.n_jobs
        by_name = {case["name"]: case for case in rows["cases"]}
        for job in report["jobs"]:
            case = by_name[job["key"]]
            engine = job["run"]["engine"]
            assert case[engine]["wall_s"] >= 0
            assert case["seed"] == job["seed"]


class TestTraceStitching:
    """Worker span trees are stitched into one deterministic trace."""

    @staticmethod
    def _normalized(doc):
        """The trace document minus its wall-clock measurements.

        Span structure, names, attributes, sim-clock fields, process
        labels, and subtrace order are the deterministic contract;
        ``start_s``/``duration_s`` and the workers' OS pids are not.
        """
        def strip_span(span):
            span = {key: value for key, value in span.items()
                    if key not in ("start_s", "duration_s")}
            if "children" in span:
                span["children"] = [strip_span(child)
                                    for child in span["children"]]
            return span

        doc = dict(doc)
        doc["spans"] = [strip_span(span) for span in doc["spans"]]
        subtraces = []
        for sub in doc.get("subtraces", ()):
            sub = dict(sub)
            sub["spans"] = [strip_span(span) for span in sub["spans"]]
            process = dict(sub.get("process", {}))
            process.pop("os_pid", None)
            sub["process"] = process
            subtraces.append(sub)
        if subtraces:
            doc["subtraces"] = subtraces
        return doc

    def test_stitched_trace_invariant_to_worker_count(self, tmp_path):
        docs = {}
        for n in (1, 4):
            tracer = tracing.Tracer()
            with tracing.use_tracer(tracer):
                run_sweep(FAST, root_seed=7, workers=n,
                          output=tmp_path / f"w{n}.json")
            docs[n] = self._normalized(tracer.to_dict())
        assert docs[1] == docs[4]

    def test_subtraces_carry_job_and_trace_id(self, tmp_path):
        tracer = tracing.Tracer()
        with tracing.use_tracer(tracer):
            run_sweep(FAST, root_seed=7, workers=2,
                      output=tmp_path / "sweep.json")
        doc = tracer.to_dict()
        assert doc["trace_id"] == "sweep-7"
        assert [sub["process"]["job"] for sub in doc["subtraces"]] == \
            sorted(job.key for job in expand(FAST))
        for sub in doc["subtraces"]:
            assert sub["schema"] == tracing.TRACE_SCHEMA
            assert sub["trace_id"] == "sweep-7"
            assert "os_pid" in sub["process"]
            assert [span["name"] for span in sub["spans"]] == ["sweep.job"]

    def test_no_subtraces_without_a_tracer(self, tmp_path):
        run_sweep(FAST, root_seed=7, workers=2,
                  output=tmp_path / "sweep.json")
        assert tracing.get_tracer() is None


class TestMetricsState:
    def test_snapshot_merge_round_trip(self):
        a = metrics.MetricsRegistry()
        a.counter("t_total", "a counter", labels=("k",)).labels(
            k="x").inc(3)
        a.gauge("t_gauge", "a gauge").default().set(5)
        a.histogram("t_hist", "a histogram",
                    buckets=(1, 10)).default().observe(4)

        b = metrics.MetricsRegistry()
        b.counter("t_total", "a counter", labels=("k",)).labels(
            k="x").inc(2)
        b.merge_state(a.snapshot_state())
        state = b.snapshot_state()
        families = state["families"]
        assert families["t_total"]["samples"][0]["value"] == 5
        assert families["t_gauge"]["samples"][0]["value"] == 5
        [hist] = families["t_hist"]["samples"]
        assert hist["count"] == 1 and hist["sum"] == 4

    def test_from_state_restores(self):
        a = metrics.MetricsRegistry()
        a.counter("t_total", "a counter").default().inc(7)
        b = metrics.MetricsRegistry.from_state(a.snapshot_state())
        assert b.snapshot_state() == a.snapshot_state()

    def test_merge_rejects_unknown_schema(self):
        registry = metrics.MetricsRegistry()
        with pytest.raises(ValueError):
            registry.merge_state({"schema": "bogus/v9", "families": {}})

    def test_sweep_merges_worker_metrics_into_parent(self, tmp_path):
        with metrics.use_registry(metrics.MetricsRegistry()) as registry:
            run_sweep(FAST, root_seed=7, workers=2,
                      output=tmp_path / "sweep.json")
            state = registry.snapshot_state()
        jobs_total = state["families"]["netpower_sweep_jobs_total"]
        by_status = {tuple(s["labels"]): s["value"]
                     for s in jobs_total["samples"]}
        assert by_status[("ok",)] == FAST.n_jobs
        # Worker-side instruments crossed the process boundary.
        sim_steps = state["families"]["netpower_sim_steps_total"]
        assert sum(s["value"] for s in sim_steps["samples"]) > 0


class TestCli:
    def test_sweep_smoke(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "sweep.json"
        code = main(["sweep", "--preset", "demo", "--workers", "2",
                     "--output", str(output)])
        out = capsys.readouterr().out
        assert code == 0
        assert "jobs in report     : 4/4" in out
        assert json.loads(output.read_text())["schema"] == "repro.sweep/v1"

    def test_shard_then_resume_matches_serial(self, tmp_path, capsys):
        from repro.cli import main

        serial = tmp_path / "serial.json"
        sharded = tmp_path / "sharded.json"
        assert main(["sweep", "--preset", "demo",
                     "--output", str(serial)]) == 0
        for shard in ("1/2", "0/2"):
            assert main(["sweep", "--preset", "demo", "--shard", shard,
                         "--resume", "--output", str(sharded)]) == 0
        capsys.readouterr()
        assert sharded.read_bytes() == serial.read_bytes()

    def test_bad_arguments_fail_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["sweep", "--preset", "nope"]) == 2
        assert main(["sweep", "--shard", "9/3"]) == 2
        assert main(["sweep", "--preset", "demo", "--matrix",
                     "matrix.json"]) == 2
        assert main(["sweep", "--workers", "0"]) == 2
        capsys.readouterr()

    def test_matrix_file(self, tmp_path, capsys):
        from repro.cli import main

        matrix_path = tmp_path / "matrix.json"
        matrix_path.write_text(json.dumps({
            "topologies": ["tiny"], "traffics": ["quiet"],
            "sleeps": ["none"], "psus": ["balanced", "single"],
            "duration_s": 3600.0, "step_s": 900.0}))
        output = tmp_path / "sweep.json"
        code = main(["sweep", "--matrix", str(matrix_path),
                     "--output", str(output)])
        capsys.readouterr()
        assert code == 0
        report = json.loads(output.read_text())
        assert [job["key"] for job in report["jobs"]] == [
            "tiny/quiet/none/balanced", "tiny/quiet/none/single"]
