"""The persistent service: engine, cache, job queue, HTTP front-end.

The HTTP tests run a real in-process server (the ``asyncio`` front of
:mod:`repro.service.http`) on an ephemeral loopback port (one per
module or test, shut down in the fixture), so request routing, status
codes, and the out-of-band cache headers are exercised exactly as a
client sees them.  The front's own framing, fuzzing and dropped-client
tests are in ``test_service_front.py``.  Determinism-sensitive
lifecycle tests (cancel-before-start, manual drain) run a ``workers=0``
queue directly.
"""

import http.client
import json
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import SCHEMA_VERSION, canonical_hash
from repro.exceptions import InvalidParameterError
from repro.service import ContentCache, Engine, JobQueue, make_server

# ----------------------------------------------------------------------
# HTTP helpers
# ----------------------------------------------------------------------


def _get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=30) as r:
            return r.status, dict(r.headers), r.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def _post(base, path, doc=None, raw=None):
    data = raw if raw is not None else json.dumps(doc or {}).encode()
    req = urllib.request.Request(
        base + path,
        data=data,
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=120) as r:
            return r.status, dict(r.headers), r.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def _wait_for_job(base, job_id, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        _, _, body = _get(base, f"/jobs/{job_id}")
        doc = json.loads(body)
        if doc["status"] in ("done", "failed", "cancelled"):
            return doc
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish within {timeout_s}s")


@pytest.fixture(scope="module")
def server():
    srv = make_server("127.0.0.1", 0, workers=2, cache_entries=128)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    host, port = srv.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        srv.shutdown()
        srv.server_close()


SOLVE = {"platform": "hera", "tasks": 12, "algorithm": "admv_star"}


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
class TestContentCache:
    def test_lru_eviction_and_stats(self):
        cache = ContentCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a: b is now oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        assert stats["hits"] == 3
        assert stats["misses"] == 1

    def test_zero_budget_disables(self):
        cache = ContentCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0


# ----------------------------------------------------------------------
# engine (no HTTP)
# ----------------------------------------------------------------------
class TestEngine:
    def test_cold_and_warm_are_bitwise_identical(self):
        engine = Engine(cache_entries=32)
        cold = engine.handle("solve", dict(SOLVE))
        warm = engine.handle(
            "solve", {"algorithm": "admv*", "tasks": 12, "platform": "hera"}
        )
        assert cold.cache == "miss"
        assert warm.cache == "hit"
        assert warm.body == cold.body
        assert warm.key == cold.key
        doc = cold.document()
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["kind"] == "solution"

    def test_key_ignores_display_names_but_not_content(self):
        engine = Engine(cache_entries=32)
        base = engine.request_key("solve", dict(SOLVE))
        assert engine.request_key(
            "solve", {**SOLVE, "platform": "atlas"}
        ) != base
        assert engine.request_key("solve", {**SOLVE, "tasks": 13}) != base
        # explicit weights equal to the pattern's expansion collide —
        # the key is the chain content, not its spelling
        from repro.chains import make_chain

        weights = make_chain("uniform", 12).as_list()
        assert (
            engine.request_key(
                "solve",
                {
                    "platform": "hera",
                    "weights": weights,
                    "algorithm": "admv_star",
                },
            )
            == base
        )

    def test_random_pattern_is_seeded_by_the_request(self):
        """Two identical random-pattern requests name one chain: one miss,
        then a byte-identical hit; another seed is another chain."""
        engine = Engine(cache_entries=32)
        request = {
            "platform": "hera", "pattern": "random", "tasks": 8,
            "algorithm": "adv_star",
        }
        first = engine.handle("solve", dict(request))
        second = engine.handle("solve", dict(request))
        assert (first.cache, second.cache) == ("miss", "hit")
        assert second.body == first.body
        assert engine.request_key("solve", {**request, "seed": 0}) == first.key
        reseeded = engine.handle("solve", {**request, "seed": 1})
        assert reseeded.cache == "miss"
        assert reseeded.key != first.key
        assert reseeded.body != first.body
        # the seed reaches the key through the chain it draws
        for endpoint in ("solve", "simulate"):
            assert engine.request_key(
                endpoint, {**request, "seed": 3}
            ) != engine.request_key(endpoint, {**request, "seed": 4})

    def test_eviction_under_small_budget_recomputes_identically(self):
        search = {
            "generator": {"kind": "layered", "tasks": 7, "seed": 2},
            "strategy": "search",
            "restarts": 1,
            "iterations": 30,
        }
        for endpoint, request, vary in (
            ("solve", SOLVE, "tasks"),
            ("dag/optimize", search, "seed"),
        ):
            engine = Engine(cache_entries=2)
            first = engine.handle(endpoint, dict(request))
            for value in (5, 6, 7):  # flood the 2-entry budget
                engine.handle(endpoint, {**request, vary: value})
            assert engine.cache.stats()["evictions"] > 0
            again = engine.handle(endpoint, dict(request))
            assert again.cache == "miss"  # evicted, recomputed ...
            assert again.body == first.body  # ... to the same bytes

    def test_search_body_does_not_depend_on_cache_state(self):
        # a search's memo lives and dies with the search: the budget and
        # the earlier traffic never change the body, and the cache ends
        # up holding that body alone
        request = {
            "generator": {"kind": "layered", "tasks": 8, "seed": 7},
            "strategy": "search",
            "algorithm": "admv_star",
        }
        small = Engine(cache_entries=8)
        large = Engine(cache_entries=4096)
        cold = large.handle("dag/optimize", dict(request))
        small.handle("dag/optimize", {**request, "seed": 1})
        assert small.handle("dag/optimize", dict(request)).body == cold.body
        assert large.cache.stats()["entries"] == 1

    def test_metrics_merge_across_threads(self):
        engine = Engine(cache_entries=64)
        reqs = [{**SOLVE, "tasks": n} for n in (8, 9, 10, 11)]
        expected = 0
        for r in reqs:  # per-request truth from isolated engines
            solo = Engine(cache_entries=4)
            solo.handle("solve", dict(r))
            expected += sum(
                solo.metrics_snapshot().counters.get(k, 0)
                for k in solo.metrics_snapshot().counters
                if k.startswith("dp.solves.")
            )
        threads = [
            threading.Thread(target=engine.handle, args=("solve", dict(r)))
            for r in reqs
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        merged = engine.metrics_snapshot().counters
        total = sum(
            v for k, v in merged.items() if k.startswith("dp.solves.")
        )
        assert total == expected
        doc = engine.metrics_document()
        assert doc["requests"]["total"] == len(reqs)

    def test_unknown_fields_and_endpoints_rejected(self):
        engine = Engine()
        with pytest.raises(InvalidParameterError, match="unknown field"):
            engine.handle("solve", {"bogus": 1})
        with pytest.raises(InvalidParameterError, match="unknown endpoint"):
            engine.handle("nope", {})
        with pytest.raises(InvalidParameterError, match="JSON object"):
            engine.handle("solve", [1, 2])


# ----------------------------------------------------------------------
# job queue (workers=0: deterministic lifecycle)
# ----------------------------------------------------------------------
class TestJobQueue:
    def test_submit_drain_result(self):
        queue = JobQueue(Engine(cache_entries=16), workers=0)
        job = queue.submit("solve", dict(SOLVE))
        assert job.status == "queued"
        assert queue.run_pending() == 1
        assert job.status == "done"
        assert job.response is not None
        assert job.response.document()["kind"] == "solution"
        assert job.response.trace is not None  # jobs always collect traces

    def test_cancel_before_start_is_immediate(self):
        queue = JobQueue(Engine(cache_entries=16), workers=0)
        job = queue.submit("solve", dict(SOLVE))
        cancelled = queue.cancel(job.id)
        assert cancelled is job
        assert job.status == "cancelled"
        assert queue.run_pending() == 0  # nothing left to run
        assert queue.cancel("job-999") is None

    def test_failed_job_keeps_the_error(self):
        # a schedule string is opaque at submit time (it is part of the
        # content key, not parsed) so this validates, queues, and then
        # fails inside the worker
        queue = JobQueue(Engine(cache_entries=16), workers=0)
        job = queue.submit(
            "simulate",
            {"tasks": 4, "runs": 50, "schedule": "not-a-schedule"},
        )
        assert job.status == "queued"
        queue.run_pending()
        assert job.status == "failed"
        assert job.error
        assert job.document()["error"] == job.error

    def test_malformed_request_fails_at_submit(self):
        queue = JobQueue(Engine(cache_entries=16), workers=0)
        with pytest.raises(InvalidParameterError, match="unknown field"):
            queue.submit("solve", {"bogus": 1})
        with pytest.raises(InvalidParameterError, match="unknown platform"):
            queue.submit("solve", {**SOLVE, "platform": "not-a-platform"})
        assert queue.stats()["total"] == 0


# ----------------------------------------------------------------------
# HTTP round-trips
# ----------------------------------------------------------------------
class TestHttp:
    def test_healthz_and_platforms(self, server):
        status, _, body = _get(server, "/healthz")
        assert status == 200
        assert json.loads(body)["ok"] is True
        status, _, body = _get(server, "/platforms")
        names = [p["name"] for p in json.loads(body)]
        assert "Hera" in names

    def test_solve_cold_then_warm_bitwise(self, server):
        status, headers, body = _post(server, "/solve", dict(SOLVE))
        assert status == 200
        status2, headers2, body2 = _post(
            server,
            "/solve",
            {"algorithm": "admv*", "tasks": 12, "platform": "hera"},
        )
        assert headers2["X-Repro-Cache"] == "hit"
        assert headers2["X-Repro-Key"] == headers["X-Repro-Key"]
        assert body2 == body
        doc = json.loads(body)
        assert doc["kind"] == "solution"
        assert doc["platform"] == "Hera"

    def test_simulate_echoes_seed_and_backend(self, server):
        _, _, body = _post(
            server,
            "/simulate",
            {"platform": "hera", "tasks": 6, "runs": 200, "seed": 9},
        )
        doc = json.loads(body)
        assert doc["kind"] == "monte_carlo_result"
        assert doc["seed"] == 9
        assert doc["backend"] == "numpy"
        assert doc["reps"] == 200

    def test_dag_optimize(self, server):
        _, _, body = _post(
            server,
            "/dag/optimize",
            {
                "generator": {"kind": "layered", "tasks": 8, "seed": 2},
                "strategy": "search",
                "iterations": 30,
                "seed": 4,
            },
        )
        doc = json.loads(body)
        assert doc["kind"] == "search_result"
        assert doc["seed"] == 4
        assert doc["solution"]["order"]

    def test_job_lifecycle_over_http(self, server):
        status, _, body = _post(
            server,
            "/jobs",
            {
                "endpoint": "simulate",
                "request": {"tasks": 6, "runs": 300, "seed": 11},
            },
        )
        assert status == 202
        job_id = json.loads(body)["id"]
        done = _wait_for_job(server, job_id)
        assert done["status"] == "done"
        status, headers, body = _get(server, f"/jobs/{job_id}/result")
        assert status == 200
        assert json.loads(body)["reps"] == 300
        assert headers["X-Repro-Cache"] in ("hit", "miss")
        if headers["X-Repro-Cache"] == "miss":
            status, _, body = _get(server, f"/jobs/{job_id}/profile")
            assert status == 200
            assert json.loads(body)["command"] == "service.simulate"
            status, _, body = _get(server, f"/jobs/{job_id}/trace")
            assert status == 200
            assert json.loads(body)["traceEvents"]
        listing = json.loads(_get(server, "/jobs")[2])
        assert any(j["id"] == job_id for j in listing)

    def test_metrics_document_shape(self, server):
        _post(server, "/solve", dict(SOLVE))
        doc = json.loads(_get(server, "/metrics")[2])
        assert doc["kind"] == "service_metrics"
        assert doc["requests"]["total"] >= 1
        assert "cache" in doc and "jobs" in doc
        assert any(
            k.startswith("dp.solves.")
            for k in doc["metrics"]["counters"]
        )

    def test_error_statuses(self, server):
        assert _get(server, "/no-such-route")[0] == 404
        assert _get(server, "/jobs/job-99999")[0] == 404
        assert _post(server, "/solve", raw=b"{not json")[0] == 400
        assert _post(server, "/solve", {"bogus": 1})[0] == 400
        assert (
            _post(server, "/jobs", {"endpoint": "nope", "request": {}})[0]
            == 400
        )
        err = json.loads(_post(server, "/solve", {"bogus": 1})[2])
        assert err["kind"] == "error"
        assert err["status"] == 400

    @pytest.mark.parametrize(
        "endpoint, request_doc, field",
        [
            ("solve", {"tasks": "abc"}, "tasks"),
            ("solve", {"total_weight": "heavy"}, "total_weight"),
            ("solve", {"weights": ["x"]}, "weights"),
            ("solve", {"weights": 5}, "weights"),
            ("simulate", {"tasks": 4, "seed": "x"}, "seed"),
            ("simulate", {"tasks": 4, "runs": "many"}, "runs"),
            ("simulate", {"tasks": 4, "target_ci": "tight"}, "target_ci"),
            ("dag/optimize", {"seed": [1]}, "seed"),
            ("dag/optimize", {"restarts": "x"}, "restarts"),
            ("dag/optimize", {"iterations": None}, "iterations"),
            ("dag/optimize", {"recombine": {}}, "recombine"),
            ("dag/optimize", {"target_ci": "x"}, "target_ci"),
            ("dag/optimize", {"processors": "two"}, "processors"),
            ("dag/optimize", {"generator": {"seed": "x"}}, "generator.seed"),
        ],
    )
    def test_non_numeric_fields_are_400(self, server, endpoint, request_doc, field):
        status, _, body = _post(server, f"/{endpoint}", request_doc)
        assert status == 400, body
        err = json.loads(body)
        assert err["kind"] == "error"
        assert repr(field) in err["error"]

    @pytest.mark.parametrize(
        "endpoint, request_doc",
        [
            ("simulate", {"tasks": 4, "runs": 20, "backend": "cupy"}),
            (
                "dag/optimize",
                {
                    "generator": {"kind": "layered", "tasks": 6, "seed": 1},
                    "certify": True,
                    "backend": "cupy",
                },
            ),
        ],
    )
    def test_removed_gpu_backend_is_400(self, server, endpoint, request_doc):
        status, _, body = _post(server, f"/{endpoint}", request_doc)
        assert status == 400, body
        err = json.loads(body)
        assert err["kind"] == "error"
        assert "unknown backend" in err["error"]

    def test_scalar_engine_unknown_backend_is_400(self, server):
        status, _, body = _post(
            server,
            "/simulate",
            {"tasks": 4, "runs": 20, "engine": "scalar", "backend": "warp-drive"},
        )
        assert status == 400, body
        err = json.loads(body)
        assert err["kind"] == "error"
        assert "unknown backend" in err["error"]

    def test_overflowing_chain_is_400(self, server):
        status, _, body = _post(
            server,
            "/solve",
            {"platform": "hera", "weights": [1e9], "algorithm": "admv_star"},
        )
        assert status == 400, body
        err = json.loads(body)
        assert err["kind"] == "error"
        assert "overflow" in err["error"]

    def test_keep_alive_replies_do_not_stall(self, server):
        """Warm replies on one kept-alive connection take about a
        millisecond; a reply whose body waits for the client's delayed
        ACK of its headers takes ~40 ms."""
        host, port = server.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        body = json.dumps({**SOLVE, "tasks": 6})
        latencies = []
        try:
            for _ in range(21):  # the first request computes
                t0 = time.perf_counter()
                conn.request(
                    "POST",
                    "/solve",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                latencies.append(time.perf_counter() - t0)
        finally:
            conn.close()
        warm = sorted(latencies[1:])
        assert warm[len(warm) // 2] < 0.015, warm
        assert warm[int(0.9 * len(warm))] < 0.030, warm

    def test_cache_clear(self, server):
        _post(server, "/solve", dict(SOLVE))
        status, _, body = _post(server, "/cache/clear")
        assert status == 200
        assert json.loads(body)["cleared"] >= 1
        _, headers, _ = _post(server, "/solve", dict(SOLVE))
        assert headers["X-Repro-Cache"] == "miss"  # genuinely flushed

    def test_cancel_running_job_is_cooperative(self, server):
        status, _, body = _post(
            server,
            "/jobs",
            {
                "endpoint": "solve",
                "request": {**SOLVE, "tasks": 14},
            },
        )
        job_id = json.loads(body)["id"]
        status, _, body = _post(server, f"/jobs/{job_id}/cancel")
        assert status == 200
        doc = json.loads(body)
        # the job either died in the queue or carries the cancel flag
        assert doc["status"] == "cancelled" or doc["cancel_requested"]

    def test_response_key_matches_canonical_hash(self, server):
        """The advertised content address is reproducible client-side."""
        from repro.chains import make_chain
        from repro.core.solver import canonical_algorithm
        from repro.platforms import get_platform

        _, headers, _ = _post(server, "/solve", dict(SOLVE))
        expected = canonical_hash(
            [
                "solve",
                {
                    "platform": get_platform("hera"),
                    "chain": make_chain("uniform", 12),
                    "algorithm": canonical_algorithm("admv_star"),
                },
            ]
        )
        assert headers["X-Repro-Key"] == expected


# ----------------------------------------------------------------------
# live progress: SSE streaming, Prometheus exposition, cache headers
# ----------------------------------------------------------------------
DAG_JOB = {
    "endpoint": "dag/optimize",
    "request": {
        "generator": {"kind": "fork_join", "branches": 2, "branch_length": 2},
        "platform": "hera",
        "strategy": "search",
        "restarts": 1,
        "seed": 0,
    },
}

_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+=\"[^\"]*\"(,[a-zA-Z0-9_]+=\"[^\"]*\")*\})?"
    r" (-?\d+(\.\d+)?([eE][+-]?\d+)?|NaN|[+-]Inf)$"
)
_PROM_TYPE = re.compile(
    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|summary|histogram)$"
)


def _sse_frames(payload: str):
    """Parse an SSE byte stream into (id, event, data-dict) frames."""
    frames = []
    for block in payload.split("\n\n"):
        seq, kind, data = None, None, None
        for line in block.split("\n"):
            if line.startswith("id: "):
                seq = int(line[4:])
            elif line.startswith("event: "):
                kind = line[7:]
            elif line.startswith("data: "):
                data = json.loads(line[6:])
        if kind is not None:
            frames.append((seq, kind, data))
    return frames


@pytest.fixture()
def manual_server():
    """A ``workers=0`` server: jobs stay queued until the test drains
    them, which makes subscribe-before-execute deterministic."""
    srv = make_server("127.0.0.1", 0, workers=0, cache_entries=32)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    host, port = srv.server_address[:2]
    try:
        yield srv, f"http://{host}:{port}"
    finally:
        srv.shutdown()
        srv.server_close()


class TestEventStreaming:
    def test_sse_streams_job_events_before_result_lands(self, manual_server):
        srv, base = manual_server
        _, _, body = _post(base, "/jobs", dict(DAG_JOB))
        job_id = json.loads(body)["id"]

        host, port = srv.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        conn.request("GET", f"/jobs/{job_id}/events?heartbeat_s=0.2")
        resp = conn.getresponse()
        assert resp.status == 200
        assert resp.getheader("Content-Type") == "text/event-stream"
        assert resp.getheader("Cache-Control") == "no-store"

        # the stream is live before any work ran: the first frame
        # (job.queued) arrives while the job is still queued
        first = b""
        while b"\n\n" not in first:
            first += resp.read1(4096)
        assert json.loads(_get(base, f"/jobs/{job_id}")[2])["status"] == "queued"
        frames = _sse_frames(first.decode())
        assert frames[0][1] == "job.queued"

        # now let the queue drain on another thread while we keep reading
        drain = threading.Thread(target=srv.jobs.run_pending, daemon=True)
        drain.start()
        payload = first
        while True:
            chunk = resp.read1(4096)
            if not chunk:
                break
            payload += chunk
        conn.close()
        drain.join(timeout=30)

        frames = _sse_frames(payload.decode())
        kinds = [kind for _, kind, _ in frames]
        assert len(frames) >= 3  # queued + running + rounds + ... + done
        assert kinds[0] == "job.queued"
        assert "job.running" in kinds
        assert "search.climb" in kinds or "search.round" in kinds
        assert kinds[-1] == "job.done"
        seqs = [seq for seq, _, _ in frames]
        assert seqs == sorted(seqs) and len(seqs) == len(set(seqs))
        # payload envelope matches the event schema
        for seq, kind, data in frames:
            assert data["seq"] == seq and data["kind"] == kind
            assert isinstance(data["data"], dict)

    def test_last_event_id_reconnect_has_no_gaps_or_duplicates(
        self, manual_server
    ):
        srv, base = manual_server
        _, _, body = _post(base, "/jobs", dict(DAG_JOB))
        job_id = json.loads(body)["id"]
        srv.jobs.run_pending()

        host, port = srv.server_address[:2]

        def read_stream(headers=None, query=""):
            conn = http.client.HTTPConnection(host, port, timeout=30)
            conn.request(
                "GET",
                f"/jobs/{job_id}/events?heartbeat_s=0.2{query}",
                headers=headers or {},
            )
            resp = conn.getresponse()
            payload = resp.read().decode()
            conn.close()
            return _sse_frames(payload)

        full = read_stream()
        assert len(full) >= 3
        cut = full[1][0]  # reconnect as if the client died after frame 2
        resumed = read_stream(headers={"Last-Event-ID": str(cut)})
        assert [f[0] for f in resumed] == [f[0] for f in full[2:]]
        combined = [f[0] for f in full[:2]] + [f[0] for f in resumed]
        assert combined == [f[0] for f in full]  # no gaps, no duplicates
        # ?after= is the header's query-string twin
        assert read_stream(query=f"&after={cut}") == resumed

    def test_engine_wide_stream_tags_jobs(self, manual_server):
        srv, base = manual_server
        _, _, body = _post(base, "/jobs", dict(DAG_JOB))
        job_id = json.loads(body)["id"]
        srv.jobs.run_pending()
        host, port = srv.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        conn.request("GET", "/events?timeout_s=0.4&heartbeat_s=0.2")
        resp = conn.getresponse()
        frames = _sse_frames(resp.read().decode())
        conn.close()
        assert frames, "engine-wide stream replayed nothing"
        assert all(f[2]["data"]["job"] == job_id for f in frames)
        assert all(f[2]["data"]["endpoint"] == "dag/optimize" for f in frames)

    def test_truncation_is_announced_not_silent(self):
        from repro.service.http import _Handler  # noqa: F401 - route exists

        engine = Engine(cache_entries=8, event_capacity=4)
        for i in range(10):
            engine.events.emit("tick", i=i)
        page = engine.events.poll(0)
        assert page.truncated and page.missed == 6

    def test_job_status_carries_progress_and_eta(self, manual_server):
        srv, base = manual_server
        _, _, body = _post(
            base,
            "/jobs",
            {
                "endpoint": "simulate",
                "request": {
                    "platform": "hera",
                    "tasks": 8,
                    "target_ci": 0.05,
                    "seed": 1,
                },
            },
        )
        job_id = json.loads(body)["id"]
        srv.jobs.run_pending()
        doc = json.loads(_get(base, f"/jobs/{job_id}")[2])
        assert doc["status"] == "done"
        assert doc["progress"] is not None
        assert doc["progress"]["kind"] == "mc.round"
        assert "eta_s" in doc  # populated by the last mc.round
        assert doc["events"]["last_seq"] >= 3


class TestPrometheusExposition:
    def test_strict_line_format(self, server):
        _post(server, "/solve", dict(SOLVE))
        status, headers, body = _get(server, "/metrics?format=prometheus")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        assert headers["Cache-Control"] == "no-store"
        text = body.decode()
        assert text.endswith("\n")
        names_typed = set()
        for line in text.splitlines():
            if line.startswith("#"):
                assert _PROM_TYPE.match(line), f"bad TYPE line: {line!r}"
                names_typed.add(line.split()[2])
            else:
                assert _PROM_SAMPLE.match(line), f"bad sample line: {line!r}"
        assert any(n.startswith("repro_service_requests") for n in names_typed)
        assert any(n.startswith("repro_dp_solves") for n in names_typed)

    def test_histogram_buckets_are_cumulative(self, server):
        _post(server, "/simulate", {"platform": "hera", "tasks": 8, "runs": 200})
        text = _get(server, "/metrics?format=prometheus")[2].decode()
        buckets = {}
        for line in text.splitlines():
            if "_bucket{" in line:
                name = line.split("_bucket{")[0]
                value = int(line.rsplit(" ", 1)[1])
                buckets.setdefault(name, []).append(value)
        assert buckets, "no histogram series rendered"
        for series in buckets.values():
            assert series == sorted(series)  # cumulative by construction

    def test_json_document_still_default(self, server):
        status, headers, body = _get(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body)["kind"] == "service_metrics"


class TestCacheHeaders:
    def test_observability_gets_are_no_store(self, server):
        for path in ("/healthz", "/metrics", "/cache", "/jobs"):
            _, headers, _ = _get(server, path)
            assert headers["Cache-Control"] == "no-store", path

    def test_query_strings_do_not_break_routing(self, server):
        status, _, body = _get(server, "/healthz?probe=1")
        assert status == 200
        assert json.loads(body)["ok"] is True
