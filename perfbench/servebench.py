"""The serve workloads: ``serve-poll`` and ``serve-fresh``.

The server runs as ``netpower serve --preset synth-1k`` in its own
process; the load comes from :mod:`loadgen` in another.  The server's
fleet is fixed (preset and seed below); the workload seed drives only
the request stream and its arrival times.

One untraced run boots the server, lets the generator run its plan
(warm-up, fixed-rate open-loop windows, then a rate ladder), stops it,
then boots it twice more, each time up to the first fixed-rate window,
for the set-up and wall-time medians.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Optional

HERE = Path(__file__).resolve().parent

PRESET = "synth-1k"
SERVER_SEED = 42

#: Server boots per run; ``setup_s`` and ``wall_s`` are their medians.
BOOTS = 3

#: Generator plans.  Rates are absolute requests per second, fixed when
#: the benchmark was defined; ladder rungs are 10-15% apart.  The
#: fixed-rate phase lasts about ``--seconds`` in windows of ``window_n``
#: requests; a ladder rung passes when the median of its windows' p99
#: is within ``limit_ms`` and completions keep pace with the offered
#: rate.
PLANS: Dict[str, Dict] = {
    "serve-poll": {
        "fixed_rate": 1200.0, "window_n": 1000,
        "ladder": [2400.0, 2650.0, 2900.0, 3200.0, 3500.0, 3850.0,
                   4250.0, 4650.0, 5100.0, 5600.0],
        "rung_s": 1.0, "rung_windows": 3, "ladder_min_n": 1000,
        "limit_ms": 25.0,
    },
    "serve-fresh": {
        "fixed_rate": 60.0, "window_n": 120,
        "ladder": [120.0, 140.0, 160.0, 185.0, 210.0, 240.0, 275.0],
        "rung_s": 2.0, "rung_windows": 1, "ladder_min_n": 240,
        "limit_ms": 100.0,
    },
}

WORK_DIR = Path(".perfbench")


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path("src").resolve()), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Server:
    """One ``netpower serve`` process and its start-up stamps."""

    def __init__(self, traced: bool = False):
        WORK_DIR.mkdir(exist_ok=True)
        args = ["serve", "--preset", PRESET, "--seed", str(SERVER_SEED),
                "--port", "0"]
        self.stats_path: Optional[Path] = None
        if traced:
            self.stats_path = WORK_DIR / f"layers-{os.getpid()}.json"
            if self.stats_path.exists():
                self.stats_path.unlink()
            cmd = [sys.executable, str(HERE / "launcher.py"),
                   str(self.stats_path)] + args
        else:
            cmd = [sys.executable, "-m", "repro.cli"] + args
        self.port: Optional[int] = None
        self.t_listen: Optional[float] = None
        self.t_ready: Optional[float] = None
        self._listening = threading.Event()
        self._log = open(WORK_DIR / f"server-{os.getpid()}.log", "ab")
        self.t_spawn = time.monotonic()
        self.proc = subprocess.Popen(cmd, env=_env(),
                                     stdout=subprocess.PIPE,
                                     stderr=self._log)
        self._drain = threading.Thread(target=self._read_stdout,
                                       daemon=True)
        self._drain.start()

    def _read_stdout(self) -> None:
        for line in self.proc.stdout:
            if self.port is None and b"listening on http://" in line:
                self.t_listen = time.monotonic()
                url = line.split(b"http://", 1)[1].split(b" ", 1)[0]
                self.port = int(url.rsplit(b":", 1)[1])
                self._listening.set()
        self._listening.set()

    def get(self, path: str) -> http.client.HTTPResponse:
        """One GET on a fresh connection; the response is fully read."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            response.body = response.read()
            return response
        finally:
            conn.close()

    def wait_ready(self, timeout_s: float = 120.0) -> float:
        """Poll ``/readyz`` until 200; returns spawn-to-ready seconds."""
        deadline = time.monotonic() + timeout_s
        if not self._listening.wait(timeout_s) or self.port is None:
            raise RuntimeError("server never started listening")
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.proc.returncode}")
            if self.get("/readyz").status == 200:
                self.t_ready = time.monotonic()
                return self.t_ready - self.t_spawn
            time.sleep(0.01)
        raise RuntimeError("server not ready in time")

    def stop(self) -> int:
        """SIGTERM, wait for a clean exit (kill after 30 s)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=5)
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


def run_generator(port: int, plan: Dict) -> Dict:
    """Run the load generator process against ``port``."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "loadgen.py"), str(port),
         json.dumps(plan)], stdout=subprocess.PIPE)
    try:
        out, _err = proc.communicate(timeout=150)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"load generator exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _plan(workload: str, seed: int, seconds: float,
          server: "Server") -> Dict:
    """The generator plan, its fixed-rate phase lasting ``seconds``."""
    return dict(PLANS[workload], workload=workload, seed=seed,
                fixed_s=seconds, server_pid=server.proc.pid)


def _boot_and_serve(workload: str, seed: int) -> Dict:
    """An extra boot: set-up, then one fixed-rate window and no ladder."""
    server = Server()
    try:
        setup_s = server.wait_ready()
        plan = _plan(workload, seed, 0.0, server)
        plan["ladder"] = []
        load = run_generator(server.port, plan)
    finally:
        server.stop()
    return {"setup_s": setup_s,
            "wall_s": load["fixed"]["first_end"] - server.t_spawn,
            "attempted": load["attempted"], "failed": load["failed"]}


def run_workload(workload: str, seed: int, trace: bool,
                 seconds: float) -> Dict:
    """Measure one serve workload; see the module docstring."""
    server = Server()
    try:
        setup_s = server.wait_ready()
        load = run_generator(server.port,
                             _plan(workload, seed, seconds, server))
    finally:
        server.stop()
    fixed = load["fixed"]
    boots = [{"setup_s": setup_s,
              "wall_s": fixed["first_end"] - server.t_spawn}]
    boots += [_boot_and_serve(workload, seed) for _ in range(BOOTS - 1)]
    e2e = {
        "setup_s": statistics.median(b["setup_s"] for b in boots),
        "run_s": fixed["server_cpu_s"],
        "wall_s": statistics.median(b["wall_s"] for b in boots),
        "peak_rss_mb": fixed["server_hwm_mb"],
        "op.p50_ms": fixed["win_p50_ms"],
        "op.p99_ms": fixed["win_p99_ms"],
        "op.max_rps": load["max_rps"],
    }
    result = {"attempted": load["attempted"]
              + sum(b.get("attempted", 0) for b in boots),
              "failed": load["failed"]
              + sum(b.get("failed", 0) for b in boots),
              "e2e": e2e, "load": load, "boots": boots}
    if trace:
        result["layers"], traced_load = _traced(workload, seed, seconds,
                                                fixed["server_cpu_s"])
        result["attempted"] += traced_load["attempted"]
        result["failed"] += traced_load["failed"]
        result["traced_load"] = traced_load
    return result


def _traced(workload: str, seed: int, seconds: float,
            untraced_cpu_s: float):
    """Per-layer split from a launcher-started server."""
    import layers

    server = Server(traced=True)
    try:
        server.wait_ready()
        load = run_generator(server.port,
                             _plan(workload, seed, seconds, server))
        prom = layers.parse_prometheus(server.get("/metrics").body.decode())
    finally:
        code = server.stop()
    if code != 0 or server.stats_path is None or \
            not server.stats_path.exists():
        raise RuntimeError(f"traced server exited with code {code}")
    stats = json.loads(server.stats_path.read_text())
    clock = layers.LayerClock()
    clock.stats = stats["layers"]
    values: Dict[str, float] = {
        "serve.boot_s": server.t_listen - server.t_spawn,
        "serve.load_s": server.t_ready - server.t_listen,
        "trace.setup_s": server.t_ready - server.t_spawn,
        "topology.build_s": clock.seconds("topology.build"),
        "traffic.build_s": clock.seconds("traffic.build"),
        "lab.derive_s": clock.seconds("lab.derive"),
        "sim.warmup_s": clock.seconds("sim.run"),
        "state.columns_s": clock.seconds("state.columns"),
        "trace.run_s": clock.seconds("sim.run"),
        "engine.columns_s": clock.seconds("engine.columns"),
        "snmp.collector_s": clock.seconds("snmp.collector"),
        "sim.finalize_s": stats["finalize_s"],
        "schemas.parse_s": clock.seconds("schemas.parse"),
        "schemas.encode_s": clock.seconds("schemas.encode"),
        "cache.lookup_s": clock.seconds("cache.lookup"),
        "cache.insert_s": clock.seconds("cache.insert"),
        "batching.wait_s": clock.seconds("batching.wait"),
        "prediction.evaluate_s": clock.seconds("prediction.evaluate"),
        "state.whatif_s": clock.seconds("state.whatif"),
        "state.whatifs": float(clock.calls("state.whatif")),
        "gen.late_max_ms": load["late_max_ms"],
        "trace.overhead_ratio": load["fixed"]["server_cpu_s"]
        / untraced_cpu_s,
    }
    values.update(stats["kernels"])
    values.update(layers.counter_totals(prom))
    handled = ('netpower_serve_request_seconds_{}{{endpoint="/predict"}}',
               'netpower_serve_request_seconds_{}{{endpoint="/whatif"}}')
    values["serve.handle_s"] = prom.get(
        "netpower_serve_request_seconds_sum", 0.0)
    handle_sum = sum(prom.get(key.format("sum"), 0.0) for key in handled)
    handle_n = sum(prom.get(key.format("count"), 0.0) for key in handled)
    values["client.queue_ms"] = (
        load["lat_sum_ms"] / load["lat_count"]
        - 1e3 * handle_sum / handle_n) if handle_n else 0.0
    cached = prom.get('netpower_serve_predict_tier_total{tier="cached"}',
                      0.0)
    tiers = prom.get("netpower_serve_predict_tier_total", 0.0)
    values["cache.hit_ratio"] = cached / tiers if tiers else 0.0
    flushes = prom.get("netpower_serve_batch_size_count", 0.0)
    values["batching.flushes"] = flushes
    values["batching.mean_size"] = (
        prom.get("netpower_serve_batch_size_sum", 0.0) / flushes
        if flushes else 0.0)
    return values, load
