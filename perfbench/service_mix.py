"""service_mix: two closed-loop clients against a ``repro serve`` process.

The launcher (``perfbench/launcher.py``) runs ``make_server(port=0,
cache_entries=CACHE_ENTRIES)`` in its own process; set-up time is that
process's CPU time until ``/healthz`` answers.  Op latencies are wall
times, seen by the clients.  The request stream is a Zipf draw over
``KEYS`` distinct requests, more than the cache holds.  Endpoint,
algorithm and size are fixed by popularity rank (``RANK_CYCLE``), so
every seed puts requests of the same cost at the same ranks; the
workload seed draws their content (platform, pattern or weights, seeds)
and the stream:

* ``solve`` for all three algorithms, 10-50 tasks (``admv`` up to 20);
* ``simulate`` certified to a 1% CI, 10-20 tasks;
* small ``dag/optimize`` order searches (layered, 6 tasks, restarts=1).

A warm-up of ``WARMUP_REQUESTS`` fills the cache; then a run times the
next ``REQUESTS_PER_S`` x ``--seconds`` requests in blocks of
``RATE_BLOCK``.  Throughput is the median of the blocks' rates: a block
that meets a slow spell of a shared machine, or a run of expensive
misses, moves it less than it moves the whole run's rate.  Every reply is
checked: status 200, the document kind of its endpoint, and every hit
byte-identical to a miss body of its ``X-Repro-Key`` (for ``solve`` and
``simulate`` every miss body of a key must be identical too; a
recomputed ``dag/optimize`` search may differ in its memo-hit
accounting, which depends on what the shared pool still holds).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from common import (
    ROOT,
    calibrate,
    child_seed,
    median,
    nominal_scales,
    ratio,
    setup_scale,
    tail,
)

from repro.chains import make_chain

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
CACHE_ENTRIES = 256
KEYS = 320
ZIPF_EXPONENT = 1.5
CLIENTS = 2
WARMUP_REQUESTS = 1000
#: nominal request rate, which sizes a run: a run times a fixed prefix of
#: the stream, so every run of a seed sends the same requests
REQUESTS_PER_S = 400
#: timed requests per block; ops_per_s is the median of the blocks' rates
RATE_BLOCK = 500
#: timed requests per server of the traced run, sent in blocks
TRACE_REQUESTS = 3000
TRACE_BLOCK = 250
STREAM_LENGTH = 400_000
SETUP_REPEATS = 3
#: one connection per request, as ``curl`` makes: on a kept-alive
#: connection every reply stalls ~40 ms, because the server writes the
#: headers and the body in two sends and Nagle's algorithm holds the
#: body until the client's delayed ACK
HEADERS = {"Content-Type": "application/json", "Connection": "close"}

PLATFORMS = ("hera", "atlas", "coastal", "coastal-ssd")
PATTERNS = ("uniform", "decrease", "increase", "highlow", "geometric", "random")
KINDS = {
    "solve": "solution",
    "simulate": "monte_carlo_result",
    "dag/optimize": "search_result",
}
#: (endpoint, algorithm, tasks) by popularity rank, repeating: the
#: solve cost is set by the algorithm and the size alone, so fixing them
#: by rank keeps the cost of the hot set the same for every seed
RANK_CYCLE = (
    ("solve", "adv_star", 50), ("solve", "admv_star", 20),
    ("simulate", "admv_star", 10), ("solve", "admv", 10),
    ("solve", "adv_star", 20), ("solve", "admv_star", 30),
    ("simulate", "admv_star", 20), ("dag/optimize", "adv_star", 6),
    ("solve", "adv_star", 40), ("solve", "admv_star", 10),
    ("simulate", "admv_star", 10), ("solve", "admv", 20),
    ("solve", "adv_star", 10), ("solve", "admv_star", 40),
    ("simulate", "admv_star", 20), ("solve", "adv_star", 30),
)
#: dag/optimize structures come from this fixed seed by rank (the
#: workload seed draws the platform and the search seed): the structure
#: sets the search's work and how many memo entries it adds to the cache
STRUCTURE_SEED = 0


def _chain_fields(rng: np.random.Generator, n: int) -> dict:
    pattern = str(rng.choice(PATTERNS))
    if pattern == "random":  # the server's own random pattern is unseeded
        weights = make_chain("random", n, rng=int(rng.integers(2**31))).as_list()
        return {"weights": weights}
    return {"pattern": pattern, "tasks": n}


def request_universe(seed: int) -> list[tuple[str, bytes]]:
    """``KEYS`` distinct (endpoint, body) pairs, most popular first."""
    universe: list[tuple[str, bytes]] = []
    draw = 0
    while len(universe) < KEYS:
        rank = len(universe)
        endpoint, algorithm, n = RANK_CYCLE[rank % len(RANK_CYCLE)]
        rng = np.random.default_rng(child_seed(seed, 1, draw))
        draw += 1
        request = {"platform": str(rng.choice(PLATFORMS)), "algorithm": algorithm}
        if endpoint == "solve":
            request.update(_chain_fields(rng, n))
        elif endpoint == "simulate":
            request.update(
                target_ci=0.01, seed=int(rng.integers(2**31)), **_chain_fields(rng, n)
            )
        else:
            request.update(
                strategy="search",
                restarts=1,
                seed=int(rng.integers(2**31)),
                generator={
                    "kind": "layered",
                    "tasks": n,
                    "seed": child_seed(STRUCTURE_SEED, rank),
                },
            )
        entry = (endpoint, json.dumps(request).encode())
        if entry not in universe:
            universe.append(entry)
    return universe


def request_stream(seed: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, KEYS + 1) ** ZIPF_EXPONENT
    rng = np.random.default_rng(child_seed(seed, 2))
    return rng.choice(KEYS, size=STREAM_LENGTH, p=weights / weights.sum())


class Server:
    """One launcher process; ``stop`` quits it and waits for the exit."""

    def __init__(self, *, trace: bool = False) -> None:
        command = [sys.executable, str(LAUNCHER), "--cache-entries", str(CACHE_ENTRIES)]
        self.proc = subprocess.Popen(
            command + (["--trace"] if trace else []),
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("port "):
                raise RuntimeError(f"launcher failed to start: {line!r}")
            self.port = int(line.split()[1])
            self._wait_healthy()
            # the launcher's CPU time (the clock of the in-process
            # set-ups) from its start until /healthz answered
            self.setup_s = self.report()["cpu_s"] * setup_scale()
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + 120
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
            finally:
                conn.close()

    def report(self) -> dict:
        self.proc.stdin.write("report\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=60)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


@dataclass
class Reply:
    index: int  # position in the stream
    key: int  # rank of the request in the universe
    status: int
    cache: str
    address: str  # X-Repro-Key
    latency: float
    digest: bytes


class Feed:
    """Hands out the stream positions ``start``, ..., ``stop - 1`` once each."""

    def __init__(self, start: int, stop: int) -> None:
        self._next = start
        self._stop = stop
        self._lock = threading.Lock()

    def take(self) -> int | None:
        with self._lock:
            if self._next >= self._stop:
                return None
            self._next += 1
            return self._next - 1


class Load:
    """The closed-loop clients of one server and every reply they got."""

    def __init__(self, port: int, universe, stream) -> None:
        self.port = port
        self.universe = universe
        self.stream = stream
        self.replies: list[Reply] = []
        self.bodies: dict[bytes, bytes] = {}  # first body seen per digest
        self.position = 0

    def _client(self, feed: Feed, out: list[Reply]) -> None:
        while (index := feed.take()) is not None:
            key = int(self.stream[index])
            endpoint, body = self.universe[key]
            t0 = perf_counter()
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=600)
            try:
                conn.request("POST", f"/{endpoint}", body, HEADERS)
                response = conn.getresponse()
                data = response.read()
            finally:
                conn.close()
            latency = perf_counter() - t0
            digest = hashlib.blake2b(data, digest_size=16).digest()
            self.bodies.setdefault(digest, data)
            out.append(
                Reply(
                    index, key, response.status,
                    response.getheader("X-Repro-Cache", ""),
                    response.getheader("X-Repro-Key", ""),
                    latency, digest,
                )
            )

    def drive(self, count: int):
        """Send the next ``count`` requests; returns their replies and the
        phase's wall time."""
        t0 = perf_counter()
        feed = Feed(self.position, self.position + count)
        outs: list[list[Reply]] = [[] for _ in range(CLIENTS)]
        threads = [
            threading.Thread(target=self._client, args=(feed, out)) for out in outs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = perf_counter() - t0
        replies = sorted((r for out in outs for r in out), key=lambda r: r.index)
        if len(replies) != count:
            raise RuntimeError("a client stopped before its last request")
        self.position += count
        self.replies.extend(replies)
        return replies, wall

    def failures(self) -> int:
        """Replies failing their checks, over everything sent so far."""
        kinds = {}
        for digest, data in self.bodies.items():
            try:
                doc = json.loads(data)
            except ValueError:
                doc = {}
            kinds[digest] = doc.get("kind") if "schema_version" in doc else None
        miss_digests: dict[str, set[bytes]] = defaultdict(set)
        addresses: dict[int, set[str]] = defaultdict(set)
        for r in self.replies:
            addresses[r.key].add(r.address)
            if r.cache == "miss":
                miss_digests[r.address].add(r.digest)
        failed = 0
        for r in self.replies:
            endpoint = self.universe[r.key][0]
            problem = (
                f"status {r.status}" if r.status != 200
                else f"kind {kinds.get(r.digest)!r}" if kinds.get(r.digest) != KINDS[endpoint]
                else "X-Repro-Key differs between replies" if len(addresses[r.key]) != 1
                else "hit differs from every miss body"
                if r.cache == "hit" and r.digest not in miss_digests[r.address]
                else "recomputed body differs"
                if endpoint != "dag/optimize" and len(miss_digests[r.address]) > 1
                else None
            )
            if problem is not None:
                failed += 1
                if failed <= 5:
                    print(
                        f"check failed: /{endpoint} {self.universe[r.key][1][:120]!r}: {problem}",
                        file=sys.stderr,
                    )
        return failed


def recompute_ratio(replies: list[Reply], before: list[Reply]) -> float:
    """Misses on keys computed earlier in the run, over all misses."""
    computed = {r.address for r in before if r.cache == "miss"}
    recomputed = misses = 0
    for r in replies:
        if r.cache == "miss":
            misses += 1
            recomputed += r.address in computed
            computed.add(r.address)
    return ratio(recomputed, misses)


def _latency(replies: list[Reply], cache: str | None = None) -> list[float]:
    return [r.latency for r in replies if cache is None or r.cache == cache]


def measure(args):
    """Returns (attempted, failed, metrics, info) for run.py."""
    universe = request_universe(args.seed)
    stream = request_stream(args.seed)
    if args.trace:
        return _measure_traced(universe, stream)
    setups = []
    server = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = Server()
            setups.append(server.setup_s)
        load = Load(server.port, universe, stream)
        load.drive(WARMUP_REQUESTS)
        blocks = round(REQUESTS_PER_S * args.seconds / RATE_BLOCK)
        walls, calibrations = [], []
        timed: list[Reply] = []
        for _ in range(blocks):
            # on the clients' clock, while no request is in flight
            calibrations.append(calibrate(perf_counter))
            replies, wall = load.drive(RATE_BLOCK)
            walls.append(wall)
            timed += replies
        rss = server.report()["peak_rss_mb"]
    finally:
        if server is not None:
            server.stop()
    scales = nominal_scales(calibrations)
    speed = median(scales)
    for block, scale in enumerate(scales):
        for reply in timed[block * RATE_BLOCK : (block + 1) * RATE_BLOCK]:
            reply.latency *= scale
    latencies = _latency(timed)
    tail_s, percentile = tail(latencies)
    metrics = {
        "setup_s": median(setups),
        "ops_per_s": median(
            [RATE_BLOCK / (scale * wall) for scale, wall in zip(scales, walls)]
        ),
        "op_p50_ms": 1e3 * median(latencies),
        "op_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": rss,
    }
    warm, cold = _latency(timed, "hit"), _latency(timed, "miss")
    info = {
        "ops": len(timed),
        "op_tail_percentile": percentile,
        "machine_speed": speed,
        "warm_p50_ms": 1e3 * median(warm) if warm else 0.0,
        "cold_p50_ms": 1e3 * median(cold) if cold else 0.0,
        "hit_ratio": ratio(len(warm), len(timed)),
        "recompute_ratio": recompute_ratio(timed, load.replies[: -len(timed)]),
    }
    return len(load.replies), load.failures(), metrics, info


def _diff(after, before):
    """``after - before`` for (nested dicts of) counters and times."""
    if isinstance(after, dict):
        before = before or {}
        return {k: _diff(v, before.get(k)) for k, v in after.items()}
    return after - (before or 0)


def _measure_traced(universe, stream):
    from tracing import layer_metrics

    servers: list[Server] = []
    try:
        for trace in (False, True):
            servers.append(Server(trace=trace))
        untraced, traced = loads = [Load(s.port, universe, stream) for s in servers]
        for load in loads:
            load.drive(WARMUP_REQUESTS)
        start = servers[1].report()
        # the same blocks of requests to the untraced and the traced
        # server, back to back and alternating which goes first, so that
        # drift in the machine's speed cancels out of trace.overhead
        walls = {untraced: 0.0, traced: 0.0}
        timed: list[Reply] = []
        for block in range(TRACE_REQUESTS // TRACE_BLOCK):
            for load in loads if block % 2 == 0 else loads[::-1]:
                replies, wall = load.drive(TRACE_BLOCK)
                walls[load] += wall
                if load is traced:
                    timed += replies
        end = servers[1].report()
    finally:
        for server in servers:
            server.stop()
    attempted = sum(len(load.replies) for load in loads)
    failed = sum(load.failures() for load in loads)
    metrics = layer_metrics(
        _diff(end["spans"], start["spans"]),
        _diff(end["counters"], start["counters"]),
        sum(_latency(timed)),
        cache=_diff(end["cache"], start["cache"]),
        recompute_ratio=recompute_ratio(timed, traced.replies[:WARMUP_REQUESTS]),
    )
    # the same requests both times: 1 - traced ops/s over untraced ops/s
    metrics["trace.overhead"] = 1.0 - walls[untraced] / walls[traced]
    return attempted, failed, metrics, {"ops_per_phase": TRACE_REQUESTS}
