"""One operation layer: the CLI and ``repro serve`` parse, check and run
``solve``, ``simulate`` and ``dag optimize`` requests the same way."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api.requests import (
    DagOptimizeRequest,
    SimulateRequest,
    SolveRequest,
    parse_request,
)
from repro.cli import main
from repro.dag import ORDER_STRATEGIES, generate, optimize_dag
from repro.exceptions import InvalidParameterError
from repro.platforms import HERA
from repro.service import Engine, make_server


def cli_document(capsys, *argv) -> dict:
    code = main([*argv, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


FORK_JOIN = {"kind": "fork_join", "branches": 2, "branch_length": 1}

#: (CLI argv, the same request as a service document)
SHAPES = {
    "solve": (
        ("solve", "-p", "atlas", "-n", "6", "-a", "adv*"),
        ("solve", {"platform": "atlas", "tasks": 6, "algorithm": "adv*"}),
    ),
    "simulate-fixed": (
        ("simulate", "-n", "4", "--runs", "300", "--seed", "3"),
        ("simulate", {"tasks": 4, "runs": 300, "seed": 3}),
    ),
    "simulate-target-ci": (
        ("simulate", "-n", "4", "-a", "admv*", "--target-ci", "0.05"),
        ("simulate", {"tasks": 4, "algorithm": "admv*", "target_ci": 0.05}),
    ),
    "dag-search": (
        (
            "dag", "optimize", "--kind", "layered", "--tasks", "7",
            "--layers", "3", "--seed", "5", "-a", "adv*", "--strategy",
            "search", "--restarts", "1",
        ),
        (
            "dag/optimize",
            {
                "generator": {
                    "kind": "layered", "tasks": 7, "layers": 3, "seed": 5,
                },
                "seed": 5,
                "algorithm": "adv*",
                "strategy": "search",
                "restarts": 1,
            },
        ),
    ),
    "dag-fixed-certified": (
        (
            "dag", "optimize", "--kind", "fork_join", "--branches", "2",
            "--branch-length", "1", "-a", "adv*", "--certify",
            "--target-ci", "0.05",
        ),
        (
            "dag/optimize",
            {
                "generator": FORK_JOIN,
                "algorithm": "adv*",
                "certify": True,
                "target_ci": 0.05,
            },
        ),
    ),
    "dag-parallel-estimate": (
        (
            "dag", "optimize", "--kind", "fork_join", "--branches", "2",
            "--branch-length", "2", "--seed", "1", "-a", "adv*",
            "--processors", "2", "--restarts", "1", "--target-ci", "0.05",
        ),
        (
            "dag/optimize",
            {
                "generator": {
                    "kind": "fork_join", "branches": 2, "branch_length": 2,
                    "seed": 1,
                },
                "seed": 1,
                "algorithm": "adv*",
                "processors": 2,
                "restarts": 1,
                "target_ci": 0.05,
            },
        ),
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_cli_json_is_the_service_document(capsys, shape):
    argv, (endpoint, request) = SHAPES[shape]
    # a pool big enough to evict nothing: an evicted memo entry changes
    # a search's hit accounting, never its result
    served = Engine(cache_entries=4096).handle(endpoint, request)
    assert cli_document(capsys, *argv) == served.document()


def test_parallel_estimate_is_an_adaptive_result(capsys):
    argv, _ = SHAPES["dag-parallel-estimate"]
    doc = cli_document(capsys, *argv)
    assert doc["kind"] == "parallel_search_result"
    assert doc["estimate"]["kind"] == "adaptive_result"
    assert doc["backend"] == "numpy"


@pytest.mark.parametrize("strategy", [*ORDER_STRATEGIES, "auto"])
def test_fixed_strategies_draw_no_randomness(strategy):
    """The fixed-strategy path hands ``seed`` to ``optimize_dag``, whose
    fixed strategies draw nothing from it: the request seed changes only
    the certification (child 4 of the seed, see
    ``test_every_stamp_draws_the_fifth_seed_child``)."""
    dag = generate("layered", seed=4, tasks=8, layers=3, cost_spread=1.0)
    assert dag.has_heterogeneous_costs()
    a, b = (
        optimize_dag(dag, HERA, algorithm="adv_star", strategy=strategy, seed=s)
        for s in (0, 12345)
    )
    assert a.order == b.order
    assert a.expected_time.hex() == b.expected_time.hex()


def test_random_solve_is_seeded(capsys):
    argv = ("solve", "--pattern", "random", "-n", "6", "-a", "adv*")
    request = {"pattern": "random", "tasks": 6, "algorithm": "adv*"}
    first = cli_document(capsys, *argv)
    assert cli_document(capsys, *argv) == first
    assert first == Engine().handle("solve", request).document()
    reseeded = cli_document(capsys, *argv, "--seed", "3")
    assert reseeded == Engine().handle(
        "solve", {**request, "seed": 3}
    ).document()
    assert reseeded["weights"] != first["weights"]


# ----------------------------------------------------------------------
# the request models
# ----------------------------------------------------------------------
def test_parse_fills_defaults_and_records_what_was_set():
    request = parse_request("dag/optimize", {"strategy": "search"})
    assert isinstance(request, DagOptimizeRequest)
    assert request.given == {"strategy"}
    assert request.generator == {"kind": "layered", "seed": 0}
    assert (request.iterations, request.restarts, request.recombine) == (
        400,
        2,
        2,
    )
    assert request.platform.name == "Hera"
    assert request.algorithm == "admv"
    solve = parse_request("solve", {"algorithm": "ADMV*", "tasks": "7"})
    assert type(solve) is SolveRequest
    assert (solve.algorithm, solve.tasks) == ("admv_star", 7)
    assert isinstance(parse_request("simulate", {}), SimulateRequest)


def test_null_counts_as_absent_only_for_optional_fields():
    request = parse_request(
        "simulate", {"runs": None, "backend": None, "weights": None}
    )
    assert request.given == frozenset()
    assert request.runs is None and request.weights is None
    with pytest.raises(InvalidParameterError, match="'iterations'"):
        parse_request("dag/optimize", {"iterations": None})


def test_type_errors_come_before_cross_field_rules():
    # restarts is also a search-only field: its type is reported first
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        parse_request("dag/optimize", {"restarts": "x"})


#: content keys recorded before the request models replaced the
#: per-endpoint parsers; a request that parsed then keys the same now
KEY_PINS = [
    (
        "simulate",
        {
            "platform": "atlas", "pattern": "decrease", "tasks": 9,
            "algorithm": "admv*", "seed": 5, "target_ci": 0.02,
            "runs": 50000,
        },
        "ea76fab36f83c82bd3ea3fcc81c8759a4c860cf497baf70f68b44d2e4e30554b",
    ),
    (
        "dag/optimize",
        {
            "platform": "coastal",
            "generator": {"kind": "layered", "tasks": 8, "seed": 3},
            "strategy": "search", "restarts": 1, "iterations": 50,
            "seed": 2, "certify": True, "target_ci": 0.05,
            "algorithm": "adv*",
        },
        "971a64d705b0d9434ddf5c323c370b6968893ecd4aef3b127c182459a9c9a1e7",
    ),
    (
        "dag/optimize",
        {
            "generator": {"kind": "fork_join", "branches": 2, "branch_length": 2},
            "strategy": "heavy_first",
            "seed": 1,
        },
        "3877f9edc34005450245f0121cce981b47811c87ebeea4ac066adb85c4ed53bd",
    ),
]


@pytest.mark.parametrize("endpoint, request_doc, key", KEY_PINS)
def test_content_keys_are_pinned(endpoint, request_doc, key):
    assert Engine().request_key(endpoint, request_doc) == key


# ----------------------------------------------------------------------
# cross-field rules over HTTP
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server():
    srv = make_server("127.0.0.1", 0, workers=0, cache_entries=16)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    host, port = srv.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        srv.shutdown()
        srv.server_close()


def _post(base: str, path: str, doc: dict):
    req = urllib.request.Request(
        base + path,
        data=json.dumps(doc).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as r:
            return r.status, r.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


#: every cross-field rejection ``repro dag optimize`` makes, as a request
#: document, and a field its message names
CROSS_FIELD = [
    ({"backend": "numpy"}, "backend"),
    ({"target_ci": 0.05}, "target_ci"),
    ({"certify": False, "target_ci": 0.05}, "target_ci"),
    ({"estimate": False}, "estimate"),
    ({"estimate": True}, "processors"),
    ({"processors": 2, "strategy": "search"}, "strategy"),
    ({"processors": 2, "strategy": "auto"}, "strategy"),
    ({"processors": 2, "recombine": 0}, "recombine"),
    ({"processors": 2, "certify": True}, "certify"),
    ({"processors": 2, "estimate": False, "target_ci": 0.05}, "target_ci"),
    ({"processors": 2, "estimate": False, "backend": "numpy"}, "backend"),
    ({"method": "anneal"}, "method"),
    ({"restarts": 8}, "restarts"),
    ({"iterations": 40}, "iterations"),
    ({"recombine": 1}, "recombine"),
    ({"strategy": "heavy_first", "restarts": 2}, "restarts"),
    (
        {
            "generator": {"kind": "join", "sources": 4},
            "strategy": "search",
            "recombine": 1,
        },
        "recombine",
    ),
]


@pytest.mark.parametrize("request_doc, field", CROSS_FIELD)
def test_cross_field_rejections_are_400(server, request_doc, field):
    status, body = _post(
        server, "/dag/optimize", {"generator": FORK_JOIN, **request_doc}
    )
    assert status == 400, body
    err = json.loads(body)
    assert err["kind"] == "error"
    assert repr(field) in err["error"]


#: every request field that seeds a NumPy stream, set negative: NumPy
#: raises a bare ValueError on it, which must not surface as a 500
NEGATIVE_SEEDS = [
    ("/simulate", {"seed": -1}, "seed"),
    ("/solve", {"pattern": "random", "seed": -1}, "seed"),
    ("/dag/optimize", {"strategy": "search", "seed": -1}, "seed"),
    ("/dag/optimize", {"processors": 2, "seed": -1}, "seed"),
    ("/dag/optimize", {"certify": True, "seed": -1}, "seed"),
    ("/dag/optimize", {"generator": {"seed": -1}}, "generator.seed"),
]


@pytest.mark.parametrize("path, request_doc, field", NEGATIVE_SEEDS)
def test_negative_seeds_are_400(server, path, request_doc, field):
    status, body = _post(server, path, request_doc)
    assert status == 400, body
    err = json.loads(body)
    assert f"field {field!r} must be a non-negative integer" in err["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--seed", "-1"),
        ("sweep", "--seed", "-1", "--max-n", "2"),
        ("dag", "optimize", "--seed", "-1"),
        ("dag", "sweep", "--seed", "-1"),
    ],
)
def test_negative_seeds_are_cli_errors(capsys, argv):
    assert main(list(argv)) == 2
    assert "must be a non-negative integer" in capsys.readouterr().err


def test_hybrid_is_no_search_method(server, capsys):
    """``hybrid`` (hill climbs, then one walk from the winner) was folded
    away: both front ends reject it and name the methods they take."""
    with pytest.raises(SystemExit) as exc:
        main(["dag", "optimize", "--strategy", "search", "--method", "hybrid"])
    assert exc.value.code == 2
    assert "invalid choice: 'hybrid'" in capsys.readouterr().err
    status, body = _post(
        server, "/dag/optimize", {"strategy": "search", "method": "hybrid"}
    )
    assert status == 400, body
    assert json.loads(body)["error"] == (
        "unknown search method 'hybrid'; expected one of ('hill_climb', 'anneal')"
    )
