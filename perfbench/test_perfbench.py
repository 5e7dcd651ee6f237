"""The benchmark's own tests, at tiny sizes.

Run from the repository root::

    PYTHONPATH=src:perfbench python3 -m pytest perfbench -q
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import catalog
import compare
import loadgen
import run
import simbench

ROOT = Path(__file__).resolve().parent.parent


def test_metric_names_follow_the_naming_rule():
    names = [e[0] for e in catalog.END_TO_END + catalog.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert catalog.NAME_RE.match(name), name
    for entry in catalog.END_TO_END + catalog.PER_LAYER:
        assert catalog.UNIT_RE.match(entry[1]), entry
        assert entry[2] in ("lower", "higher"), entry
    assert "setup_s" in names
    for _name, _unit, _better, bound in catalog.END_TO_END:
        assert 0 < bound <= 0.25
    setup_bound = dict((e[0], e[3]) for e in catalog.END_TO_END)["setup_s"]
    assert setup_bound == max(e[3] for e in catalog.END_TO_END)


def test_benchmark_json_matches_the_catalog():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == catalog.benchmark_document()
    for workload in document["workloads"]:
        assert catalog.NAME_RE.match(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_every_traced_sum_names_catalogued_layers():
    names = {e[0] for e in catalog.PER_LAYER}
    for total, parts in catalog.SUMS.items():
        assert total in names
        assert set(parts) <= names
        assert parts[-1].endswith("unattributed_s")


def test_remainder_lines_close_every_sum(monkeypatch):
    layers = {"trace.setup_s": 5.0, "topology.build_s": 2.0,
              "traffic.build_s": 1.0, "trace.run_s": 3.0,
              "snmp.poll_s": 2.5, "serve.handle_s": 0.0}
    monkeypatch.setattr(simbench, "run_workload", lambda *a: {
        "attempted": 1, "failed": 0, "e2e": {"op.p50_ms": 1.5},
        "layers": layers})
    metrics = run.measure("sim-10k-day", 0, 1.0, trace=True)["metrics"]
    run._check_names(metrics, trace=True)
    for total, parts in catalog.SUMS.items():
        assert sum(metrics[p] for p in parts) == pytest.approx(
            metrics[total])
    assert metrics["setup.unattributed_s"] == pytest.approx(2.0)
    assert metrics["sim.unattributed_s"] == pytest.approx(0.5)
    assert metrics["op.p50_ms"] == 1.5


def test_arrival_schedule_is_a_function_of_the_seed():
    assert loadgen.arrivals(7, "fixed", 100.0, 500) == \
        loadgen.arrivals(7, "fixed", 100.0, 500)
    assert loadgen.arrivals(7, "fixed", 100.0, 500) != \
        loadgen.arrivals(8, "fixed", 100.0, 500)
    models = ["8201-32FH", "ASR-920-24SZ-M"]
    for workload in ("serve-poll", "serve-fresh"):
        first = loadgen.RequestStream(workload, 7, models, 50).take(200)
        again = loadgen.RequestStream(workload, 7, models, 50).take(200)
        other = loadgen.RequestStream(workload, 8, models, 50).take(200)
        assert [(r.key, r.wire) for r in first] == \
            [(r.key, r.wire) for r in again]
        assert [r.wire for r in first] != [r.wire for r in other]


def test_fresh_stream_mixes_whatifs_and_resends():
    stream = loadgen.RequestStream("serve-fresh", 3, ["8201-32FH"], 50)
    requests = stream.take(1000)
    whatifs = [r for r in requests if r.key[0] == "whatif"]
    resends = [r for r in requests if r.resend]
    assert len(whatifs) == 1000 // loadgen.WHATIF_EVERY
    assert 50 < len(resends) < 150
    first_wire = {r.key: r.wire for r in requests if not r.resend}
    assert all(first_wire[r.key] == r.wire for r in resends)


class _StubHandler(BaseHTTPRequestHandler):
    """Answers every POST with the same body, except one perturbed."""

    protocol_version = "HTTP/1.1"
    answers = 0
    perturb_at = 3

    def do_POST(self):  # noqa: N802 - http.server naming
        self.rfile.read(int(self.headers["Content-Length"]))
        type(self).answers += 1
        body = b'{"fleet_power_w":1.0}\n'
        if type(self).answers == self.perturb_at:
            body = b'{"fleet_power_w":1.5}\n'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_a_perturbed_response_body_is_caught():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        conn = loadgen.Connection(server.server_address[1])
        request = loadgen.Request(("poll", 0),
                                  loadgen._wire("/predict", b"{}"))
        checker = loadgen.Checker()
        phase = loadgen.run_phase([conn], [request] * 6, checker, window=2)
        conn.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert phase["completed"] == 6
    assert phase["failed"] == 1
    assert checker.mismatched == 1 and checker.failed == 1


def test_a_perturbed_digest_is_caught(monkeypatch):
    recorded = simbench.load_digests()["tiny"]["sim-10k-day"]["3"]
    report = simbench.child_main("sim-10k-day", 3, trace=False,
                                 scale="tiny")
    assert report["digest"] == recorded and report["correct"]
    perturbed = recorded[:-1] + ("0" if recorded[-1] != "0" else "1")
    monkeypatch.setattr(simbench, "load_digests", lambda: {
        "tiny": {"sim-10k-day": {"3": perturbed}}})
    report = simbench.child_main("sim-10k-day", 3, trace=False,
                                 scale="tiny")
    assert not report["correct"]


def test_ledger_conservation_is_enforced(monkeypatch):
    report = simbench.child_main("sleep-paper-month", 11, trace=False,
                                 scale="tiny")
    assert report["correct"]
    assert report["max_residual_w"] <= simbench.CONSERVATION_W
    monkeypatch.setattr(simbench, "CONSERVATION_W", -1.0)
    report = simbench.child_main("sleep-paper-month", 11, trace=False,
                                 scale="tiny")
    assert not report["correct"]


def _record(nproc, value):
    return {"workload": "serve-poll", "trace": False,
            "context": {"nproc": nproc, "python": "3.11", "numpy": "2",
                        "machine": "x86_64"},
            "metrics": {e[0]: value for e in catalog.END_TO_END}}


def test_compare_refuses_records_with_different_stamps(capsys):
    assert compare.compare([_record(2, 1.0)], [_record(4, 1.0)]) == 2
    assert "nproc" in capsys.readouterr().out
    assert compare.compare([_record(2, 1.0)] * 3,
                           [_record(2, 1.0)] * 3) == 0
    assert compare.compare([_record(2, 1.0)] * 3,
                           [_record(2, 2.0)] * 3) == 1
