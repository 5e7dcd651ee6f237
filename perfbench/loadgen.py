"""Open-loop HTTP load generator for the serve workloads.

Runs in its own process (``python3 loadgen.py PORT PLAN_JSON``), never in
the server's, and uses the standard library only.  It keeps two
pipelined keep-alive connections and writes every request at its *due*
time from a seeded Poisson schedule, whether or not earlier answers
have arrived (an open loop); answers are read in order as they come.
Latency is measured from the due time, so a stall also charges the
requests queued behind it.  How late the sender itself ran is recorded;
a phase where the generator fell behind is marked invalid instead of
being charged to the server, and is reported either way.

Checks made on every answer: the status is 2xx; a repeated
``/predict`` body gets a byte-equal answer (``serve-poll`` repeats its
64 bodies; ``serve-fresh`` re-sends a tenth of its bodies, which the
cache then serves, and compares them with the full-tier answer).
The last stdout line is one JSON document with every phase's figures.
"""

from __future__ import annotations

import json
import os
import random
import select
import socket
import statistics
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Transceivers the simulated operators report rates for.
TRX_POOL = ("QSFP28-100G-DAC", "SFP28-25G-DAC", "SFP+-10G-DAC")

#: ``serve-poll``: distinct single-router bodies the polls draw from.
POLL_POOL = 64
#: ``serve-fresh``: routers per body, the share of /whatif requests,
#: the share of re-sent bodies and how far back a re-send reaches.
FRESH_ROUTERS = 16
WHATIF_EVERY = 20
RESEND_SHARE = 0.1
RESEND_LAG = (20, 200)
WHATIF_LINKS = 4

#: Connections the generator keeps open (one per core of the 2-core
#: box the workloads were sized on).
CONNECTIONS = 2

#: A phase is invalid when the generator's median lateness exceeds
#: this: it was systematically behind its own schedule, so the load was
#: not offered as planned.  Single late sends (on a 2-vCPU VM the host
#: deschedules a vCPU for milliseconds at a time in busy periods) hit
#: the server as well and stay in the latency figures, which count from
#: the due time.  An invalid ladder rung is repeated, within
#: ``RETRIES`` repeats per plan, so that it neither passes nor ends the
#: ladder on the generator's account; every attempt is reported.
LATE_P50_LIMIT_MS = 0.5
RETRIES = 4

SOCKET_TIMEOUT_S = 30.0

#: How long before a due time the sender stops sleeping and polls.
SPIN_S = 0.0005


@dataclass
class Request:
    """One request: its wire bytes and the key its answer is checked by."""

    key: Tuple
    wire: bytes
    resend: bool = False


def _wire(path: str, body: bytes) -> bytes:
    return (f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


def _router(rng: random.Random, models: Sequence[str],
            min_ifaces: int, max_ifaces: int) -> Dict:
    interfaces = []
    for i in range(rng.randint(min_ifaces, max_ifaces)):
        interfaces.append({
            "name": f"et{i}",
            "trx": TRX_POOL[rng.randrange(len(TRX_POOL))],
            "octet_rate_rx": rng.uniform(0.0, 2.0e9),
            "octet_rate_tx": rng.uniform(0.0, 2.0e9),
            "packet_rate_rx": rng.uniform(0.0, 2.0e5),
            "packet_rate_tx": rng.uniform(0.0, 2.0e5),
        })
    return {"router_model": models[rng.randrange(len(models))],
            "interfaces": interfaces}


class RequestStream:
    """The workload's request sequence, a pure function of its seed."""

    def __init__(self, workload: str, seed: int, models: Sequence[str],
                 n_internal_links: int):
        if workload not in ("serve-poll", "serve-fresh"):
            raise ValueError(f"unknown serve workload {workload!r}")
        self.workload = workload
        self.models = sorted(models)
        self.n_internal_links = n_internal_links
        self._rng = random.Random(f"{seed}:{workload}:content")
        self._count = 0
        self._recent: deque = deque(maxlen=RESEND_LAG[1])
        if workload == "serve-poll":
            pool_rng = random.Random(f"{seed}:{workload}:pool")
            self.pool = [
                _wire("/predict", json.dumps(
                    {"routers": [_router(pool_rng, self.models, 0, 8)]},
                    sort_keys=True).encode())
                for _ in range(POLL_POOL)]

    def warmup(self) -> List[Request]:
        """Requests sent once, closed-loop, before anything is timed."""
        if self.workload == "serve-poll":
            return [Request(("poll", i), wire)
                    for i, wire in enumerate(self.pool)]
        return self.take(20)

    def take(self, n: int) -> List[Request]:
        """The next ``n`` requests of the stream."""
        return [self._next() for _ in range(n)]

    def _next(self) -> Request:
        rng = self._rng
        index = self._count
        self._count += 1
        if self.workload == "serve-poll":
            i = rng.randrange(POLL_POOL)
            return Request(("poll", i), self.pool[i])
        if index % WHATIF_EVERY == WHATIF_EVERY - 1:
            links = rng.sample(range(self.n_internal_links), WHATIF_LINKS)
            body = json.dumps({"sleep_links": links}).encode()
            return Request(("whatif", index), _wire("/whatif", body))
        if len(self._recent) > RESEND_LAG[0] and \
                rng.random() < RESEND_SHARE:
            back = rng.randrange(RESEND_LAG[0], len(self._recent))
            key, wire = self._recent[-1 - back]
            return Request(key, wire, resend=True)
        body = json.dumps({"routers": [
            _router(rng, self.models, 1, 4) for _ in range(FRESH_ROUTERS)]},
            sort_keys=True).encode()
        request = Request(("fresh", index), _wire("/predict", body))
        self._recent.append((request.key, request.wire))
        return request


def arrivals(seed: int, phase: str, rate: float, n: int) -> List[float]:
    """Seeded Poisson due offsets (seconds from the phase start)."""
    rng = random.Random(f"{seed}:{phase}:arrivals")
    offsets = []
    t = 0.0
    for _ in range(n):
        t += rng.expovariate(rate)
        offsets.append(t)
    return offsets


class Checker:
    """Compares every answer against the first answer to the same body."""

    def __init__(self) -> None:
        self._first: Dict[Tuple, bytes] = {}
        self.failed = 0
        self.mismatched = 0
        self.non_2xx = 0
        self.resends = 0
        self.resends_cached = 0

    def observe(self, request: Request, status: int, tier: str,
                body: bytes) -> bool:
        """Record one answer; returns whether it passed."""
        if not 200 <= status < 300:
            self.non_2xx += 1
            self.failed += 1
            return False
        if request.resend:
            self.resends += 1
            self.resends_cached += tier == "cached"
        first = self._first.setdefault(request.key, body)
        if first != body:
            self.mismatched += 1
            self.failed += 1
            return False
        return True


class Connection:
    """One keep-alive HTTP/1.1 connection with an incremental parser."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=SOCKET_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.inbox = bytearray()
        self.outbox = bytearray()

    def parse_one(self) -> Optional[Tuple[int, str, bytes]]:
        """``(status, X-Netpower-Tier, body)`` if a whole answer is
        buffered (and consume it), else ``None``."""
        inbox = self.inbox
        head_end = inbox.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        lines = bytes(inbox[:head_end]).decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        tier = ""
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "x-netpower-tier":
                tier = value.strip()
        end = head_end + 4 + length
        if len(inbox) < end:
            return None
        body = bytes(inbox[head_end + 4:end])
        del inbox[:end]
        return status, tier, body

    def get(self, path: str) -> Tuple[int, bytes]:
        """One blocking GET on this connection (nothing else in flight)."""
        self.sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"
                          .encode())
        while True:
            answer = self.parse_one()
            if answer is not None:
                return answer[0], answer[2]
            data = self.sock.recv(1 << 16)
            if not data:
                raise ConnectionError("server closed the connection")
            self.inbox += data

    def flush(self) -> None:
        """Write as much of the outbox as the socket takes now."""
        if self.outbox:
            try:
                sent = self.sock.send(self.outbox)
            except BlockingIOError:
                return
            del self.outbox[:sent]

    def close(self) -> None:
        """Close the socket."""
        self.sock.close()


def _percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _chunks(n: int, k: int) -> List[range]:
    """``range(n)`` cut into ``k`` consecutive near-equal chunks."""
    bounds = [round(j * n / k) for j in range(k + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def run_phase(conns: Sequence[Connection], requests: Sequence[Request],
              checker: Checker, dues: Optional[Sequence[float]] = None,
              window: int = 0, windows: int = 1) -> Dict:
    """Send ``requests`` and collect the answers, in one thread.

    With ``dues`` (absolute ``time.monotonic`` times, the clock the
    benchmark shares across its processes) the phase is open loop and
    latency counts from each due time.  Without, it is a closed burst:
    each connection keeps at most ``window`` requests in flight and
    latency counts from the send.  A single ``select`` loop does both
    the sending and the reading, so no thread waits on another for
    the interpreter lock.

    ``win_p50_ms`` / ``win_p99_ms`` are the medians, over ``windows``
    consecutive equal slices of the phase, of each slice's percentile:
    a host stall of a few milliseconds lands in one slice and moves the
    median little, where it would own the whole phase's 99th
    percentile.
    """
    n = len(requests)
    sent: List[Optional[float]] = [None] * n
    done: List[Optional[float]] = [None] * n
    ok = [False] * n
    k_conns = len(conns)
    lanes = [deque(range(k, n, k_conns)) for k in range(k_conns)]
    inflight: List[deque] = [deque() for _ in conns]
    by_sock = {conn.sock: k for k, conn in enumerate(conns)}
    errors: List[str] = []
    clock = time.monotonic
    start = clock()
    last_progress = start
    pending = n
    for conn in conns:
        conn.sock.setblocking(False)
    try:
        while pending and not errors:
            now = clock()
            next_due = None
            for k, conn in enumerate(conns):
                lane = lanes[k]
                while lane:
                    i = lane[0]
                    if dues is not None:
                        if dues[i] > now:
                            if next_due is None or dues[i] < next_due:
                                next_due = dues[i]
                            break
                    elif len(inflight[k]) >= window:
                        break
                    lane.popleft()
                    sent[i] = now
                    conn.outbox += requests[i].wire
                    inflight[k].append(i)
                conn.flush()
            # Sleep in select until SPIN_S before the next due time,
            # then poll without sleeping: a send is not held up by the
            # wake-up, and between sparse arrivals the core is free.
            timeout = 0.05
            if next_due is not None:
                timeout = max(0.0, next_due - clock() - SPIN_S)
            writers = [c.sock for c in conns if c.outbox]
            readable, writable, _ = select.select(
                list(by_sock), writers, [], timeout)
            for sock in writable:
                conns[by_sock[sock]].flush()
            for sock in readable:
                k = by_sock[sock]
                conn = conns[k]
                try:
                    data = sock.recv(1 << 16)
                except BlockingIOError:
                    continue
                if not data:
                    errors.append("server closed the connection")
                    break
                conn.inbox += data
                while inflight[k]:
                    answer = conn.parse_one()
                    if answer is None:
                        break
                    i = inflight[k].popleft()
                    done[i] = clock()
                    ok[i] = checker.observe(requests[i], *answer)
                    pending -= 1
                last_progress = clock()
            if clock() - last_progress > SOCKET_TIMEOUT_S:
                errors.append("no answer within the socket timeout")
    except (OSError, ValueError) as exc:
        errors.append(str(exc))
    finally:
        for conn in conns:
            conn.sock.setblocking(True)
            conn.sock.settimeout(SOCKET_TIMEOUT_S)
    origin = dues if dues is not None else sent
    lat_ms = [1e3 * (d - o) for d, o in zip(done, origin)
              if d is not None and o is not None]
    late_ms = ([1e3 * (s - d) for s, d in zip(sent, dues) if s is not None]
               if dues is not None else [0.0])
    completed = [d for d in done if d is not None]
    first = dues[0] if dues is not None else start
    span = (max(completed) - first) if completed else 0.0
    unanswered = n - len(completed)
    checker.failed += unanswered
    window_lat = [
        [1e3 * (done[i] - origin[i]) for i in chunk
         if done[i] is not None and origin[i] is not None]
        for chunk in _chunks(n, windows)]
    phase = {
        "n": n,
        "completed": len(completed),
        "windows": windows,
        "win_p50_ms": statistics.median(
            _percentile(w, 0.5) for w in window_lat),
        "win_p99_ms": statistics.median(
            _percentile(w, 0.99) for w in window_lat),
        "failed": unanswered + sum(1 for i in range(n)
                                   if done[i] is not None and not ok[i]),
        "lat_p50_ms": _percentile(lat_ms, 0.5),
        "lat_p90_ms": _percentile(lat_ms, 0.9),
        "lat_p99_ms": _percentile(lat_ms, 0.99),
        "lat_sum_ms": sum(lat_ms),
        "late_p50_ms": _percentile(late_ms, 0.5),
        "late_p99_ms": _percentile(late_ms, 0.99),
        "late_max_ms": max(late_ms),
        "seconds": span,
        "end": max(completed) if completed else start,
        "achieved_rps": len(completed) / span if span > 0 else 0.0,
        "errors": errors[:3],
    }
    if dues is not None and n > 1:
        phase["offered_rps"] = (n - 1) / (dues[-1] - dues[0])
    phase["valid"] = phase["late_p50_ms"] <= LATE_P50_LIMIT_MS
    return phase


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds a process has used so far."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """A process's peak resident set size so far (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def _open_phase(conns, stream, checker, seed: int, name: str,
                rate: float, n: int, windows: int, server_pid: int) -> Dict:
    requests = stream.take(n)
    start = time.monotonic() + 0.05
    dues = [start + t for t in arrivals(seed, name, rate, n)]
    cpu0 = cpu_seconds(server_pid)
    phase = run_phase(conns, requests, checker, dues=dues, windows=windows)
    phase.update(name=name, rate=rate,
                 server_cpu_s=cpu_seconds(server_pid) - cpu0)
    return phase


def run_plan(port: int, plan: Dict) -> Dict:
    """Run the warm-up, the fixed-rate windows and the rate ladder.

    The fixed-rate figures are medians over windows of ``window_n``
    requests each, enough windows to fill ``fixed_s`` seconds.  The
    server's CPU time and peak RSS cover the warm-up and those windows
    only: a fixed amount of work, whatever the ladder then reaches.
    """
    conns = [Connection(port) for _ in range(CONNECTIONS)]
    try:
        status, body = conns[0].get("/fleet")
        if status != 200:
            raise RuntimeError(f"/fleet answered {status}")
        fleet = json.loads(body)
        seed = int(plan["seed"])
        stream = RequestStream(plan["workload"], seed, fleet["models"],
                               fleet["n_internal_links"])
        checker = Checker()
        phases = []
        warm = run_phase(conns[:1], stream.warmup(), checker, window=1)
        warm["name"] = "warmup"
        phases.append(warm)
        windows = max(1, round(plan["fixed_rate"] * plan["fixed_s"]
                               / plan["window_n"]))
        fixed_windows: List[Dict] = []
        for k in range(windows):
            fixed_windows.append(_open_phase(
                conns, stream, checker, seed, f"fixed{k}",
                plan["fixed_rate"], plan["window_n"], 1, plan["server_pid"]))
        phases.extend(fixed_windows)
        # Read before the ladder, whose length depends on capacity.
        hwm_mb = peak_rss_mb(plan["server_pid"])
        retries = RETRIES
        best: Optional[Dict] = None
        phase = None
        for rung, rate in enumerate(plan["ladder"]):
            n = max(plan["ladder_min_n"], int(rate * plan["rung_s"]))
            while True:
                phase = _open_phase(conns, stream, checker, seed,
                                    f"rung{rung}", rate, n,
                                    plan["rung_windows"], plan["server_pid"])
                phases.append(phase)
                if phase["valid"] or not retries:
                    break
                retries -= 1
            phase["passed"] = (phase["valid"] and phase["failed"] == 0
                               and phase["win_p99_ms"] <= plan["limit_ms"]
                               and phase["achieved_rps"]
                               >= 0.95 * phase["offered_rps"])
            if not phase["passed"]:
                break
            best = phase
        fixed = {
            "windows": windows,
            "server_hwm_mb": hwm_mb,
            "valid": all(w["valid"] for w in fixed_windows),
            "first_end": fixed_windows[0]["end"],
            "win_p50_ms": statistics.median(
                w["lat_p50_ms"] for w in fixed_windows),
            "win_p99_ms": statistics.median(
                w["lat_p99_ms"] for w in fixed_windows),
            "server_cpu_s": sum(w["server_cpu_s"] for w in fixed_windows),
        }
        attempted = sum(p["n"] for p in phases)
        return {
            "phases": phases,
            "attempted": attempted,
            "failed": checker.failed,
            "mismatched": checker.mismatched,
            "non_2xx": checker.non_2xx,
            "resends": checker.resends,
            "resends_cached": checker.resends_cached,
            "max_rps": (best or phase)["achieved_rps"] if phase else 0.0,
            "max_rps_rate": best["rate"] if best else None,
            "fixed": fixed,
            "late_max_ms": max(p["late_max_ms"] for p in phases),
            "lat_sum_ms": sum(p["lat_sum_ms"] for p in phases),
            "lat_count": sum(p["completed"] for p in phases),
        }
    finally:
        for conn in conns:
            conn.close()


def main(argv: List[str]) -> int:
    """``loadgen.py PORT PLAN_JSON``: run the plan, print one JSON line."""
    port, plan = int(argv[0]), json.loads(argv[1])
    print(json.dumps(run_plan(port, plan)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
