"""The event-loop HTTP front of ``repro serve`` and the engine under it.

Raw-socket tests pin the front's own HTTP/1.1 framing: the typed
statuses of requests it cannot frame, a fuzzed request stream that never
sees a 5xx other than 501, and clients that go away mid-request.  The
rest pin the engine mechanisms the front relies on: the spelling memo,
single-flight for identical cold requests, and that no solve, Monte
Carlo run or search ever runs on the loop thread.
"""

import asyncio
import json
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.dag
import repro.service.engine as engine_module
from repro.service import Engine, make_server

SOLVE = {"platform": "hera", "tasks": 7, "algorithm": "adv_star"}


def _start(workers=2, cache_entries=64):
    srv = make_server("127.0.0.1", 0, workers=workers, cache_entries=cache_entries)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    return srv, thread


def _stop(srv, thread):
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=30)
    assert not thread.is_alive()


@pytest.fixture(scope="module")
def front():
    """A ``workers=0`` server: fuzzed job submissions stay queued."""
    srv, thread = _start(workers=0)
    try:
        yield srv
    finally:
        _stop(srv, thread)


def _read_to_close(sock) -> bytes:
    chunks = []
    try:
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    except ConnectionResetError:
        pass  # the server closed with our bytes unread
    return b"".join(chunks)


def _raw(address, data: bytes) -> bytes:
    """Send ``data``, half-close, and read until the server closes."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        return _read_to_close(sock)


def _statuses(reply: bytes) -> list[int]:
    """The status of each reply in a stream of ``Content-Length`` replies."""
    statuses = []
    while reply:
        head, _, rest = reply.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0].startswith(b"HTTP/1.1 "), reply[:200]
        statuses.append(int(lines[0].split(b" ", 2)[1]))
        length = [int(h[15:]) for h in lines if h.startswith(b"Content-Length: ")]
        reply = rest[(length or [0])[0] :]
    return statuses


def _post_bytes(address, path: str, body: bytes) -> bytes:
    head = (
        f"POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return _raw(address, head.encode() + body)


def _reply_body(reply: bytes) -> bytes:
    return reply.split(b"\r\n\r\n", 1)[1]


def _healthz(address) -> int:
    return _statuses(_raw(address, b"GET /healthz HTTP/1.1\r\n\r\n"))[0]


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
class TestFraming:
    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"GARBAGE\r\n\r\n", 400),
            (b"GET /healthz\r\n\r\n", 400),
            (b"GET /healthz HTTP/2.0\r\n\r\n", 400),
            (b"GET healthz HTTP/1.1\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", 400),
            (b"POST /solve HTTP/1.1\r\nContent-Length: -3\r\n\r\n", 400),
            (b"POST /solve HTTP/1.1\r\nContent-Length: 3\r\n\r\n{x}", 400),
            (b"POST /jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\n[1, ", 400),
            (b"POST /solve HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n", 413),
            (b"PUT /solve HTTP/1.1\r\n\r\n", 501),
            (b"HEAD /healthz HTTP/1.1\r\n\r\n", 501),
            (
                b"POST /solve HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"2\r\n{}\r\n0\r\n\r\n",
                501,
            ),
        ],
    )
    def test_unframeable_requests_get_typed_statuses(
        self, front, request_bytes, status
    ):
        reply = _raw(front.server_address, request_bytes)
        assert _statuses(reply) == [status], reply
        doc = json.loads(_reply_body(reply))
        assert doc["kind"] == "error" and doc["status"] == status

    def test_oversized_head_is_431(self, front):
        head = b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n"
        reply = _raw(front.server_address, head)
        assert _statuses(reply) == [431], reply[:200]

    def test_keep_alive_serves_pipelined_requests_in_order(self, front):
        body = json.dumps(SOLVE).encode()
        one = (
            f"POST /solve HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode() + body
        reply = _raw(
            front.server_address,
            one + one + b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        assert _statuses(reply) == [200, 200, 200]
        assert b"X-Repro-Cache: miss" in reply and b"X-Repro-Cache: hit" in reply
        assert reply.count(b"Connection: close") == 1

    def test_expect_100_continue_is_answered_before_the_body(self, front):
        body = json.dumps(SOLVE).encode()
        head = (
            f"POST /solve HTTP/1.1\r\nExpect: 100-continue\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        )
        with socket.create_connection(front.server_address, timeout=30) as sock:
            sock.sendall(head.encode())
            assert sock.recv(64) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            assert _statuses(_read_to_close(sock)) == [200]

    def test_http10_closes_after_the_reply(self, front):
        reply = _raw(front.server_address, b"GET /healthz HTTP/1.0\r\n\r\n")
        assert _statuses(reply) == [200]
        assert b"Connection: close" in reply


_TOKENS = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), max_size=12
)
_BODIES = st.one_of(
    st.binary(max_size=48),
    st.builds(
        json.dumps,
        st.fixed_dictionaries(
            {},
            optional={
                "platform": st.sampled_from(["hera", "atlas", "nowhere", 3]),
                "tasks": st.one_of(st.integers(-2, 6), _TOKENS),
                "algorithm": st.sampled_from(["adv_star", "admv_star", "x"]),
                "runs": st.integers(-1, 40),
                "weights": st.lists(st.floats(allow_nan=True), max_size=4),
                "generator": st.one_of(
                    st.just([1, 2]),
                    st.fixed_dictionaries(
                        {"tasks": st.integers(1, 4)},
                        optional={"bogus": st.integers()},
                    ),
                ),
                "iterations": st.just(3),
                "restarts": st.just(1),
                "endpoint": st.sampled_from(["solve", "nope", None]),
                "request": st.one_of(st.just([1]), st.just({"tasks": 3})),
            },
        ),
    ).map(str.encode),
)


_ROUTES = [
    "/healthz", "/platforms", "/metrics", "/cache", "/jobs", "/solve",
    "/simulate", "/dag/optimize", "/jobs/job-1", "/jobs/job-1/cancel",
    "/jobs/job-1/result", "//solve", "/solve?x=1", "/nope",
]


@st.composite
def _requests(draw) -> bytes:
    """Half of the requests are framed well and fuzz only the route and
    body; the rest may break every part of the framing too."""
    framed = draw(st.booleans())

    def pick(valid, broken):
        return draw(valid if framed else valid | broken)

    method = pick(
        st.sampled_from(["GET", "POST"]),
        st.sampled_from(["PUT", "DELETE", "get", "BREW", ""]) | _TOKENS,
    )
    path = pick(
        st.sampled_from(_ROUTES),
        st.sampled_from(["*", ""]) | _TOKENS.map(lambda t: "/x" + t),
    )
    version = pick(
        st.just("HTTP/1.1"), st.sampled_from(["HTTP/1.0", "HTTP/2", "", "x"])
    )
    separator = pick(st.just(" "), st.sampled_from(["  ", "\t"]))
    body = draw(_BODIES)
    headers = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["Host", "Content-Type", "Connection", "X-A"])
                | _TOKENS,
                _TOKENS,
            ),
            max_size=4,
        )
    )
    length = pick(
        st.just("exact"),
        st.sampled_from(["omit", "big", "junk"]) | st.integers(-5, 99),
    )
    if length == "exact":
        headers.append(("Content-Length", str(len(body))))
    elif length == "big":
        headers.append(("Content-Length", str(9 * 1024 * 1024)))
    elif length == "junk":
        headers.append(("Content-Length", "1e3"))
    elif length != "omit":
        headers.append(("Content-Length", str(length)))
    if pick(st.just(False), st.booleans()):
        headers.append(("Transfer-Encoding", "chunked"))
    if pick(st.just(False), st.booleans()):
        headers.append(("Bad Line", None))
    lines = [separator.join(w for w in (method, path, version) if w)]
    lines += [name if value is None else f"{name}: {value}" for name, value in headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1", "replace") + body


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(request_bytes=_requests())
def test_fuzzed_requests_never_see_a_server_error(front, request_bytes):
    reply = _raw(front.server_address, request_bytes)
    for status in _statuses(reply):
        assert status < 500 or status == 501, (request_bytes, reply[:300])
    assert _healthz(front.server_address) == 200


@settings(max_examples=100, deadline=None)
@given(
    path=st.sampled_from(["/solve", "/simulate", "/dag/optimize", "/jobs"]),
    body=_BODIES,
)
def test_fuzzed_bodies_never_see_a_server_error(front, path, body):
    statuses = _statuses(_post_bytes(front.server_address, path, body))
    assert statuses and statuses[0] in (200, 202, 400), (path, body)


def _wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.01)


async def _task_count() -> int:
    return len(asyncio.all_tasks())


def test_clients_dropped_mid_request_leak_no_task():
    srv, thread = _start(workers=1)
    address = srv.server_address
    partials = [
        b"",
        b"POST /solve HTTP/1.1\r\nContent-Le",
        b"GET /healthz HTTP/1.1\r\nHost: x\r\n",
        b'POST /solve HTTP/1.1\r\nContent-Length: 100\r\n\r\n{"tasks"',
    ]
    # the clients that are still connected, by id
    alive: dict[int, socket.socket] = {}
    try:
        for client in range(24):
            sock = socket.create_connection(address, timeout=30)
            sock.sendall(partials[client % len(partials)])
            alive[client] = sock
        _wait_until(lambda: len(srv.connections) == len(alive))
        for client in sorted(alive):
            sock = alive.pop(client)
            if client % 3 == 0:  # an abortive close: RST, not FIN
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, b"\x01\0\0\0\0\0\0\0"
                )
            sock.close()
        _wait_until(lambda: not srv.connections)
        assert _healthz(address) == 200
        reply = _post_bytes(address, "/solve", json.dumps(SOLVE).encode())
        assert _statuses(reply) == [200]
        _wait_until(lambda: not srv.connections)
        # nothing else is left on the loop either: only the probe's task
        probe = asyncio.run_coroutine_threadsafe(_task_count(), srv._loop)
        assert probe.result(timeout=10) == 1
    finally:
        for sock in alive.values():
            sock.close()
        _stop(srv, thread)


# ----------------------------------------------------------------------
# where work runs
# ----------------------------------------------------------------------
def test_event_loop_never_computes(monkeypatch):
    threads: list[threading.Thread] = []

    def spy(fn):
        def recorded(*args, **kwargs):
            threads.append(threading.current_thread())
            return fn(*args, **kwargs)

        return recorded

    for module, name in [
        (engine_module, "optimize"),
        (engine_module, "run_monte_carlo"),
        (repro.dag, "search_order"),
        (repro.dag, "search_parallel"),
        (repro.dag, "optimize_dag"),
    ]:
        monkeypatch.setattr(module, name, spy(getattr(module, name)))
    srv, thread = _start(workers=1)
    try:
        requests = [
            ("/solve", SOLVE),
            ("/simulate", {**SOLVE, "runs": 50}),
            (
                "/dag/optimize",
                {
                    "generator": {"kind": "layered", "tasks": 5, "seed": 1},
                    "strategy": "search",
                    "restarts": 1,
                    "iterations": 5,
                },
            ),
            ("/dag/optimize", {"generator": {"kind": "layered", "tasks": 5}}),
            (
                "/dag/optimize",
                {
                    "generator": {"kind": "layered", "tasks": 5},
                    "processors": 2,
                    "restarts": 1,
                    "iterations": 5,
                },
            ),
        ]
        for path, doc in requests:
            caches = []
            for _ in range(2):  # cold, then warm
                reply = _post_bytes(
                    srv.server_address, path, json.dumps(doc).encode()
                )
                assert _statuses(reply) == [200], reply[:300]
                caches.append(b"X-Repro-Cache: hit" in reply)
            assert caches == [False, True]
    finally:
        _stop(srv, thread)
    assert len(threads) >= len(requests)
    assert srv.loop_thread is not None and srv.loop_thread not in threads


def test_identical_cold_requests_compute_once(monkeypatch):
    solve = engine_module.optimize

    def slow_optimize(*args, **kwargs):
        time.sleep(0.3)  # keeps the first request in flight
        return solve(*args, **kwargs)

    monkeypatch.setattr(engine_module, "optimize", slow_optimize)
    srv, thread = _start(workers=2)
    body = json.dumps(SOLVE).encode()
    replies: list[bytes] = []
    try:
        before = srv.engine.metrics_snapshot().counters.get(
            "dp.solves.adv_star", 0
        )
        clients = [
            threading.Thread(
                target=lambda: replies.append(
                    _post_bytes(srv.server_address, "/solve", body)
                )
            )
            for _ in range(2)
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=60)
            assert not client.is_alive()
        after = srv.engine.metrics_snapshot().counters["dp.solves.adv_star"]
    finally:
        _stop(srv, thread)
    assert after == before + 1
    assert [_statuses(r) for r in replies] == [[200], [200]]
    assert _reply_body(replies[0]) == _reply_body(replies[1])
    keys = {
        line
        for reply in replies
        for line in reply.split(b"\r\n")
        if line.startswith(b"X-Repro-Key: ")
    }
    assert len(keys) == 1


# ----------------------------------------------------------------------
# the spelling memo
# ----------------------------------------------------------------------
class TestSpellingMemo:
    def test_repeated_body_skips_parse_and_key(self, monkeypatch):
        engine = Engine(cache_entries=8)
        body = json.dumps(SOLVE).encode()
        cold = engine.handle("solve", body)
        calls = []
        request_key = Engine.request_key
        monkeypatch.setattr(
            Engine,
            "request_key",
            lambda self, *a: calls.append(a) or request_key(self, *a),
        )
        load = engine_module._load_body
        monkeypatch.setattr(
            engine_module, "_load_body", lambda b: calls.append(b) or load(b)
        )
        warm = engine.handle("solve", body)
        assert calls == []
        assert (warm.cache, warm.body, warm.key) == ("hit", cold.body, cold.key)
        assert cold.key == request_key(engine, "solve", dict(SOLVE))

    def test_memo_holds_at_most_cache_entries_spellings(self):
        engine = Engine(cache_entries=4)
        bodies = [
            json.dumps({**SOLVE, "tasks": n}).encode() for n in range(1, 11)
        ]
        first = [engine.handle("solve", body) for body in bodies]
        assert len(engine.spellings) <= 4
        # a spelling whose reply was evicted recomputes the same bytes
        again = [engine.handle("solve", body) for body in bodies]
        assert [r.body for r in again] == [r.body for r in first]
        assert [r.key for r in again] == [r.key for r in first]
        assert len(engine.spellings) <= 4

    def test_compute_false_answers_warm_requests_only(self):
        engine = Engine(cache_entries=8)
        body = json.dumps(SOLVE).encode()
        assert engine.handle("solve", body, compute=False) is None
        assert engine.handle("solve", body).cache == "miss"
        assert engine.handle("solve", body, compute=False).cache == "hit"
        engine.cache.clear()  # the spelling is known, its reply is gone
        assert engine.handle("solve", body, compute=False) is None
        stats = engine.cache.stats()
        assert engine.handle("solve", body).cache == "miss"
        # the refused lookups counted no cache misses of their own
        assert engine.cache.stats()["misses"] == stats["misses"] + 1

    def test_bad_bodies_are_400_every_time(self):
        from repro.exceptions import InvalidParameterError

        engine = Engine(cache_entries=8)
        for body in (b"{nope", b"[1]", b'{"bogus": 1}', b"\xff"):
            for _ in range(2):
                with pytest.raises(InvalidParameterError):
                    engine.handle("solve", body)
        assert len(engine.spellings) == 0
