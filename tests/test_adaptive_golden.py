"""Bitwise pins for the adaptive certification campaigns.

Every float is pinned by ``float.hex()``, so a change to the order of a
moment merge or a category sum (floating point is not associative)
fails here even when the value moves by one ulp.  The cases cover the
serial and ``n_jobs=2`` chain campaigns with rounds spanning several
chunks, a campaign stopped by ``max_runs``, the p=2 campaign over a
two-worker plan with a cross-worker dependency, the
``run_monte_carlo(target_ci=)`` entry point, and the ``mc.round`` /
``mc.converged`` event payloads (minus their wall-clock and ETA fields).
"""

from __future__ import annotations

import pytest

from repro.chains import TaskChain
from repro.core import optimize
from repro.core.schedule import Schedule
from repro.obs import EventBus, MetricsRegistry, instrument
from repro.platforms import Platform
from repro.simulation import (
    ParallelPlan,
    WorkerPlan,
    run_adaptive,
    run_adaptive_parallel,
    run_monte_carlo,
)

#: Event fields that depend on the wall clock.
TIMED_FIELDS = {"wall_s", "reps_per_s", "eta_s"}


@pytest.fixture(scope="module")
def platform() -> Platform:
    return Platform.from_costs(
        "hot", lf=2e-3, ls=8e-3, CD=30.0, CM=6.0, r=0.8, partial_cost_ratio=20.0
    )


@pytest.fixture(scope="module")
def chain_case(platform):
    chain = TaskChain([60.0] * 5)
    return chain, optimize(chain, platform, algorithm="admv").schedule


@pytest.fixture(scope="module")
def plan(platform) -> ParallelPlan:
    """Worker 1 waits for worker 0's first commit."""
    producer = WorkerPlan(
        chain=TaskChain([30.0, 40.0]),
        schedule=Schedule.from_positions(2, disk=[1, 2]),
        boundaries=(1,),
    )
    consumer = WorkerPlan(
        chain=TaskChain([50.0, 20.0]),
        schedule=Schedule.from_positions(2, disk=[2]),
    )
    return ParallelPlan(
        workers=(producer, consumer), deps=(((), ()), (((0, 0),),))
    )


def _hex(x) -> str:
    return float(x).hex()


def fingerprint(result) -> dict:
    return {
        "mean": result.moments.mean.hex(),
        "m2": result.moments.m2.hex(),
        "rounds": [
            (r.total_reps, _hex(r.relative_half_width)) for r in result.rounds
        ],
        "category_totals": [_hex(x) for x in result.category_totals],
        "fail_stop_errors": result.fail_stop_errors,
        "silent_errors": result.silent_errors,
        "silent_detected": result.silent_detected,
        "silent_missed": result.silent_missed,
        "attempts": result.attempts,
        "steps": result.steps,
    }


def payload(event) -> dict:
    return {
        k: _hex(v) if isinstance(v, float) else v
        for k, v in event.data.items()
        if k not in TIMED_FIELDS
    }


CHAIN = dict(target_relative_ci=0.02, min_runs=200, chunk_size=64, seed=5)
PARALLEL = dict(target_relative_ci=0.02, min_runs=200, chunk_size=64, seed=0)

#: Recorded before the adaptive drivers shared one round loop.
GOLDEN: dict = {"chain": {"mean": "0x1.82158b010dfa7p+9",
           "m2": "0x1.308142fed907fp+26",
           "rounds": [(200, "0x1.d745754249194p-5"),
                      (400, "0x1.32cc41ba00421p-5"),
                      (800, "0x1.a808be31531ddp-6"),
                      (1600, "0x1.31a6cda69074cp-6")],
           "category_totals": ["0x1.9cf0800000000p+19",
                               "0x1.a02e931a5d74fp+15",
                               "0x1.df10000000000p+14",
                               "0x1.89a8000000000p+14",
                               "0x1.4a5a000000000p+16",
                               "0x1.96d4000000000p+15",
                               "0x1.1940000000000p+17"],
           "fail_stop_errors": 1800,
           "silent_errors": 5416,
           "silent_detected": 5416,
           "silent_missed": 0,
           "attempts": 15895,
           "steps": 28},
 "capped": {"mean": "0x1.7c78760914685p+9",
            "m2": "0x1.1fa2bae809635p+24",
            "rounds": [(50, "0x1.7f8abf41d150ap-4"),
                       (100, "0x1.223a3be1153c9p-4"),
                       (200, "0x1.9788b25ec44d5p-5"),
                       (400, "0x1.2ed19c6dc8995p-5")],
            "category_totals": ["0x1.95b4000000000p+17",
                                "0x1.8a3386e2fe2edp+13",
                                "0x1.03b0000000000p+13",
                                "0x1.79a0000000000p+12",
                                "0x1.4490000000000p+14",
                                "0x1.93b0000000000p+13",
                                "0x1.1940000000000p+15"],
            "fail_stop_errors": 441,
            "silent_errors": 1309,
            "silent_detected": 1309,
            "silent_missed": 0,
            "attempts": 3903,
            "steps": 23},
 "parallel": {"mean": "0x1.0f071003b8b0ap+8",
              "m2": "0x1.b885e9cb98526p+24",
              "rounds": [(200, "0x1.ce61165f06a13p-5"),
                         (400, "0x1.4479518b6fab0p-5"),
                         (800, "0x1.e00d784e5d83fp-6"),
                         (1600, "0x1.6f7cc5e2170bap-6"),
                         (3200, "0x1.05a70b33bdafap-6")],
              "category_totals": ["0x1.53f9c00000000p+19",
                                  "0x1.34a9ef41daa93p+15",
                                  "0x1.6f80000000000p+13",
                                  "0x1.e900000000000p+12",
                                  "0x1.4d7e000000000p+16",
                                  "0x1.c200000000000p+15",
                                  "0x1.1940000000000p+18"],
              "fail_stop_errors": 1462,
              "silent_errors": 4629,
              "silent_detected": 4629,
              "silent_missed": 0,
              "attempts": 15691,
              "steps": 11},
 "monte_carlo": {"mean": "0x1.7d51f4c736baep+9",
                 "m2": "0x1.4a5f9e680deb2p+25",
                 "rounds": [(400, "0x1.3a5722fa27ed9p-5"),
                            (800, "0x1.c88e9a2f07521p-6")],
                 "category_totals": ["0x1.95ff000000000p+18",
                                     "0x1.9f40e774583f5p+14",
                                     "0x1.f4a0000000000p+13",
                                     "0x1.8360000000000p+13",
                                     "0x1.44cc000000000p+15",
                                     "0x1.9338000000000p+14",
                                     "0x1.1940000000000p+16"],
                 "fail_stop_errors": 882,
                 "silent_errors": 2628,
                 "silent_detected": 2628,
                 "silent_missed": 0,
                 "attempts": 7811,
                 "steps": 26},
 "events": [("mc.round",
             {"index": 0,
              "reps": 200,
              "total_reps": 200,
              "mean": "0x1.86983958f8eb8p+9",
              "half_width": "0x1.678605b96df86p+5",
              "relative_half_width": "0x1.d745754249194p-5",
              "target": "0x1.47ae147ae147bp-6",
              "predicted_total_reps": 1655,
              "remaining_reps": 1455}),
            ("mc.round",
             {"index": 1,
              "reps": 200,
              "total_reps": 400,
              "mean": "0x1.82acf620aa6a0p+9",
              "half_width": "0x1.cf67434e0a476p+4",
              "relative_half_width": "0x1.32cc41ba00421p-5",
              "target": "0x1.47ae147ae147bp-6",
              "predicted_total_reps": 1403,
              "remaining_reps": 1003}),
            ("mc.round",
             {"index": 2,
              "reps": 400,
              "total_reps": 800,
              "mean": "0x1.7fe18cc59c376p+9",
              "half_width": "0x1.3ded56b387190p+4",
              "relative_half_width": "0x1.a808be31531ddp-6",
              "target": "0x1.47ae147ae147bp-6",
              "predicted_total_reps": 1340,
              "remaining_reps": 540}),
            ("mc.round",
             {"index": 3,
              "reps": 800,
              "total_reps": 1600,
              "mean": "0x1.82158b010dfa7p+9",
              "half_width": "0x1.ccf73abad87aap+3",
              "relative_half_width": "0x1.31a6cda69074cp-6",
              "target": "0x1.47ae147ae147bp-6",
              "predicted_total_reps": 1393,
              "remaining_reps": 0}),
            ("mc.converged",
             {"total_reps": 1600,
              "rounds": 4,
              "mean": "0x1.82158b010dfa7p+9",
              "relative_half_width": "0x1.31a6cda69074cp-6",
              "target": "0x1.47ae147ae147bp-6"})]}


@pytest.mark.parametrize("n_jobs", [None, 2])
def test_chain_campaign(chain_case, platform, n_jobs):
    chain, schedule = chain_case
    result = run_adaptive(chain, platform, schedule, n_jobs=n_jobs, **CHAIN)
    assert result.converged
    assert fingerprint(result) == GOLDEN["chain"]


def test_capped_chain_campaign(chain_case, platform):
    chain, schedule = chain_case
    result = run_adaptive(
        chain, platform, schedule,
        target_relative_ci=1e-6, min_runs=50, max_runs=400, chunk_size=64,
        seed=0,
    )
    assert not result.converged
    assert fingerprint(result) == GOLDEN["capped"]


@pytest.mark.parametrize("n_jobs", [None, 2])
def test_parallel_campaign(plan, platform, n_jobs):
    result = run_adaptive_parallel(plan, platform, n_jobs=n_jobs, **PARALLEL)
    assert result.converged
    assert fingerprint(result) == GOLDEN["parallel"]


def test_run_monte_carlo_target_ci(chain_case, platform):
    chain, schedule = chain_case
    mc = run_monte_carlo(
        chain, platform, schedule,
        runs=5000, seed=7, chunk_size=64, target_ci=0.03,
    )
    assert fingerprint(mc.convergence) == GOLDEN["monte_carlo"]
    assert mc.mean.hex() == GOLDEN["monte_carlo"]["mean"]


def test_round_and_convergence_events(chain_case, platform):
    chain, schedule = chain_case
    bus = EventBus()
    with instrument(MetricsRegistry(), events=bus):
        run_adaptive(chain, platform, schedule, **CHAIN)
    events = [
        (e.kind, payload(e))
        for e in bus.snapshot().events
        if e.kind in ("mc.round", "mc.converged", "mc.capped")
    ]
    assert events == GOLDEN["events"]
