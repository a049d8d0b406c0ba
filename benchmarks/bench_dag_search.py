"""Order-search quality and incremental-evaluation throughput gates.

The metaheuristic order search (:mod:`repro.dag.search`) earns its place
only if (a) it is *correct* where correctness is checkable and *better*
than the fixed heuristics where it is not, (b) its incremental
evaluation actually avoids the per-neighbor chain-DP re-solve, and (c)
the exact solves it does make reach the DP in batches.  Seven gates, one
per claim:

* **small campaign** (n <= 8): search must recover the exhaustive
  enumeration optimum exactly on every instance;
* **mid campaign** (n = 9-12, up to 9,450 orders, homogeneous and
  heterogeneous costs): the same, on the stress platform and on Hera,
  except on the pairs of ``MID_KNOWN_MISSES``, where search has stopped
  short of the optimum since the campaign was added and must stay within
  ``MID_MISS_BOUND`` of it; the gate's seconds are recorded as
  ``mid_seconds``;
* **default campaign** (n >= 20): search must beat the best fixed
  heuristic's expected makespan on a strict majority of instances;
* **hetero campaign** (per-task cost multipliers): search must beat the
  best fixed heuristic **by a margin** — a >= 1% expected-makespan gain
  on a majority of instances and a positive gain on every one (the
  uniform-cost campaigns cap out around 0.14%; heterogeneity is what
  makes order matter);
* **join campaign**: the join-aware search (orders + checkpoint
  decisions under the forever-vulnerable APDCM'15 objective) must match
  ``exhaustive_join(optimize_order=True)`` on instances small enough to
  enumerate, and never lose to the threshold / local-search baselines;
* **incremental evaluation**: screening a neighbor with the
  frozen-schedule bound must be >= 5x faster than re-running
  ``optimize()`` from scratch on the neighbor's serialisation (measured
  on the production ``ADMV`` algorithm; in practice the gap is orders of
  magnitude).  The same neighbors priced by one
  ``ChainObjective.bounds`` batch, as a hill-climbing round screens
  them, are timed and reported alongside (no gate);
* **north-star batching**: the ROADMAP's north-star baseline
  (``repro dag optimize --kind layered --tasks 20 -p Hera -a admv
  --strategy search``) runs once, in-process and instrumented.  Its
  climbs run in lockstep, so the start scores and each wave of confirms
  reach the chain DP as one batch: the DP must solve at least
  ``MIN_ROWS_PER_DP_CALL`` rows per call.  Wall seconds, DP calls, DP
  rows and exact evaluations are recorded as ``north_star``.

Writes ``results/BENCH_dag_search.json`` (quality + evaluation rates; the
CI bench job copies it to the repo root on main pushes so the trajectory
is tracked in-git) plus a human-readable ``results/dag_search.txt``.
"""

from __future__ import annotations

import json
import time

import numpy as np

from bench_common import save_result
from repro.api.requests import parse_request
from repro.core import optimize
from repro.dag import ChainObjective, campaign, candidate_orders, generate
from repro.dag.join import (
    exhaustive_join,
    join_from_dag,
    local_search_join,
    threshold_join,
)
from repro.dag.linearize import optimize_dag
from repro.dag.search import neighborhood, search_order
from repro.experiments.dag_search import stress_platform
from repro.obs import MetricsRegistry, instrument
from repro.platforms import get_platform
from repro.service.engine import run

SEED = 0
QUALITY_ALGORITHM = "admv_star"  # many exact solves: the O(n^4) DP
SPEEDUP_ALGORITHM = "admv"  # the production default the bound must beat
MIN_INCREMENTAL_SPEEDUP = 5.0
NEIGHBOR_SAMPLE = 40
HETERO_MARGIN = 0.01  # the hetero campaign must beat heuristics by >= 1%
#: ``repro dag optimize --kind layered --tasks 20 -p Hera -a admv
#: --strategy search``, as a request document
NORTH_STAR = {
    "generator": {"kind": "layered", "tasks": 20},
    "platform": "hera",
    "algorithm": "admv",
    "strategy": "search",
}
MIN_ROWS_PER_DP_CALL = 2.0
#: (platform, instance) pairs of the mid campaign where the default search
#: finds a local optimum only (relative gaps 7.6e-7 and 2.3e-5 when the
#: campaign was added); every other pair must match the exhaustive optimum
MID_KNOWN_MISSES = {("Hera", "forkjoin-11"), ("Hera", "hetero-outtree-11")}
MID_MISS_BOUND = 1e-4


def test_dag_search_gates(benchmark, results_dir):
    platform = stress_platform()
    lines = []

    # ------------------------------------------------------------------
    # gate 1 — small DAGs: search == exhaustive optimum
    # ------------------------------------------------------------------
    small = []
    for dag in campaign("small", seed=SEED):
        exhaustive = optimize_dag(
            dag, platform, algorithm=QUALITY_ALGORITHM, strategy="all"
        )
        found = search_order(
            dag, platform, algorithm=QUALITY_ALGORITHM, seed=SEED
        )
        small.append(
            {
                "instance": dag.name,
                "n": dag.n,
                "exhaustive": exhaustive.expected_time,
                "search": found.expected_time,
                "orders_scored": found.orders_scored,
            }
        )
        assert found.expected_time <= exhaustive.expected_time * (1 + 1e-9), (
            dag.name,
            found.expected_time,
            exhaustive.expected_time,
        )
    lines.append(
        f"small campaign: search recovered the exhaustive optimum on "
        f"{len(small)}/{len(small)} instances"
    )

    # ------------------------------------------------------------------
    # gate 1b — mid DAGs (n = 9-12): search == exhaustive optimum on the
    # stress platform and on Hera, bar MID_KNOWN_MISSES
    # ------------------------------------------------------------------
    mid = []
    mid_t0 = time.perf_counter()
    for plat in (platform, get_platform("hera")):
        for dag in campaign("mid", seed=SEED):
            t0 = time.perf_counter()
            exhaustive = optimize_dag(
                dag, plat, algorithm=QUALITY_ALGORITHM, strategy="all"
            )
            exhaustive_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            found = search_order(dag, plat, algorithm=QUALITY_ALGORITHM, seed=SEED)
            search_s = time.perf_counter() - t0
            gap = (found.expected_time - exhaustive.expected_time) / (
                exhaustive.expected_time
            )
            mid.append(
                {
                    "platform": plat.name,
                    "instance": dag.name,
                    "n": dag.n,
                    "orders": len(candidate_orders(dag, "all")),
                    "exhaustive": exhaustive.expected_time,
                    "search": found.expected_time,
                    "relative_gap": gap,
                    "matches_exhaustive": gap <= 1e-9,
                    "exhaustive_s": exhaustive_s,
                    "search_s": search_s,
                }
            )
    mid_seconds = time.perf_counter() - mid_t0
    misses = {
        (r["platform"], r["instance"]) for r in mid if not r["matches_exhaustive"]
    }
    lines.append(
        f"mid campaign: search recovered the exhaustive optimum on "
        f"{len(mid) - len(misses)}/{len(mid)} instances "
        f"(stress and Hera, {mid_seconds:.1f}s; misses: {sorted(misses)})"
    )
    assert misses <= MID_KNOWN_MISSES, mid
    assert all(r["relative_gap"] <= MID_MISS_BOUND for r in mid), mid

    # ------------------------------------------------------------------
    # gate 2 — campaign DAGs: search beats the best fixed heuristic
    # ------------------------------------------------------------------
    def run_campaign():
        rows = []
        for dag in campaign("default", seed=SEED):
            heuristics = optimize_dag(
                dag, platform, algorithm=QUALITY_ALGORITHM, strategy="auto"
            )
            t0 = time.perf_counter()
            found = search_order(
                dag,
                platform,
                algorithm=QUALITY_ALGORITHM,
                seed=SEED,
                restarts=1,
                polish_budget=16,
            )
            seconds = time.perf_counter() - t0
            gain = (
                heuristics.expected_time - found.expected_time
            ) / heuristics.expected_time
            win = found.expected_time < heuristics.expected_time * (1 - 1e-9)
            if not win and abs(gain) < 1e-9:
                gain = 0.0  # ULP-level noise between equivalent orders
            rows.append(
                {
                    "instance": dag.name,
                    "n": dag.n,
                    "best_heuristic": heuristics.expected_time,
                    "search": found.expected_time,
                    "relative_gain": gain,
                    "win": win,
                    "orders_scored": found.orders_scored,
                    "orders_per_s": found.orders_scored / seconds,
                    "seconds": seconds,
                }
            )
        return rows

    rows = benchmark.pedantic(run_campaign, rounds=1, iterations=1)
    wins = sum(r["win"] for r in rows)
    for r in rows:
        lines.append(
            f"  {r['instance']:18s} n={r['n']:2d}  heuristic "
            f"{r['best_heuristic']:10.2f}s  search {r['search']:10.2f}s  "
            f"gain {r['relative_gain']:+.3%}  "
            f"({r['orders_scored']} orders, {r['orders_per_s']:5.0f}/s)"
        )
    lines.insert(
        1,
        f"default campaign: search beat the best heuristic on "
        f"{wins}/{len(rows)} instances",
    )
    assert wins * 2 > len(rows), (wins, rows)

    # ------------------------------------------------------------------
    # gate 3 — hetero campaign: beat the heuristics BY A MARGIN
    # ------------------------------------------------------------------
    hetero = []
    for dag in campaign("hetero", seed=SEED):
        heuristics = optimize_dag(
            dag, platform, algorithm=QUALITY_ALGORITHM, strategy="auto"
        )
        t0 = time.perf_counter()
        found = search_order(
            dag,
            platform,
            algorithm=QUALITY_ALGORITHM,
            seed=SEED,
            restarts=1,
            polish_budget=16,
        )
        seconds = time.perf_counter() - t0
        gain = (
            heuristics.expected_time - found.expected_time
        ) / heuristics.expected_time
        hetero.append(
            {
                "instance": dag.name,
                "n": dag.n,
                "best_heuristic": heuristics.expected_time,
                "search": found.expected_time,
                "relative_gain": gain,
                "gain_at_least_margin": gain >= HETERO_MARGIN,
                "orders_scored": found.orders_scored,
                "seconds": seconds,
            }
        )
        lines.append(
            f"  {dag.name:18s} n={dag.n:2d}  heuristic "
            f"{heuristics.expected_time:10.2f}s  search "
            f"{found.expected_time:10.2f}s  gain {gain:+.3%}"
        )
    margin_wins = sum(r["gain_at_least_margin"] for r in hetero)
    mean_hetero_gain = sum(r["relative_gain"] for r in hetero) / len(hetero)
    lines.insert(
        2,
        f"hetero campaign: search gained >= {HETERO_MARGIN:.0%} on "
        f"{margin_wins}/{len(hetero)} instances (mean {mean_hetero_gain:+.3%})",
    )
    # the margin gate: not just majority-wins — majority of instances must
    # clear a >= 1% gain and none may regress below the heuristics
    assert margin_wins * 2 > len(hetero), (margin_wins, hetero)
    assert all(r["relative_gain"] > 0.0 for r in hetero), hetero

    # ------------------------------------------------------------------
    # gate 4 — join campaign: joint (order, decisions) search quality
    # ------------------------------------------------------------------
    join_rows = []
    for dag in campaign("join", seed=SEED):
        instance = join_from_dag(
            dag, rate=platform.lf, C=platform.CD, R=platform.RD
        )
        baseline = min(
            threshold_join(instance)[0], local_search_join(instance)[0]
        )
        found = search_order(dag, platform, seed=SEED)
        matches = None
        if instance.n_sources <= 7:
            exh_value, _ = exhaustive_join(instance, optimize_order=True)
            matches = found.expected_time <= exh_value * (1 + 1e-9)
            assert matches, (dag.name, found.expected_time, exh_value)
        assert found.expected_time <= baseline * (1 + 1e-9), (
            dag.name,
            found.expected_time,
            baseline,
        )
        join_rows.append(
            {
                "instance": dag.name,
                "sources": instance.n_sources,
                "baseline": baseline,
                "search": found.expected_time,
                "matches_exhaustive": matches,
                "states_scored": found.orders_scored,
            }
        )
    lines.append(
        f"join campaign: search matched the joint exhaustive optimum on "
        f"{sum(1 for r in join_rows if r['matches_exhaustive'])} small "
        f"instances and never lost to the threshold/local-search baseline "
        f"({len(join_rows)} instances)"
    )

    # ------------------------------------------------------------------
    # gate 5 — incremental neighbor evaluation >= 5x from-scratch
    # ------------------------------------------------------------------
    dag = generate(
        "layered",
        seed=1,
        tasks=20,
        layers=5,
        density=0.4,
        weights="lognormal",
    )
    objective = ChainObjective(dag, platform, algorithm=SPEEDUP_ALGORITHM)
    order = candidate_orders(dag, "heavy_first")[0]
    incumbent = objective.exact(order)
    rng = np.random.default_rng(SEED)
    neighbors = [
        cand
        for cand, _ in neighborhood(
            dag, order, rng=rng, max_reinsertions=NEIGHBOR_SAMPLE
        )
    ][:NEIGHBOR_SAMPLE]

    t0 = time.perf_counter()
    scratch_values = []
    for cand in neighbors:
        _, chain = dag.serialise(cand)
        scratch_values.append(
            optimize(chain, platform, algorithm=SPEEDUP_ALGORITHM).expected_time
        )
    scratch_s = (time.perf_counter() - t0) / len(neighbors)

    t0 = time.perf_counter()
    bounds = [objective.bound(cand, incumbent) for cand in neighbors]
    incremental_s = (time.perf_counter() - t0) / len(neighbors)
    # the same neighborhood priced as one batch, the way a hill-climbing
    # round screens it (a fresh objective: the memo above would hit)
    batch_objective = ChainObjective(dag, platform, algorithm=SPEEDUP_ALGORITHM)
    t0 = time.perf_counter()
    batch_bounds = batch_objective.bounds(neighbors, incumbent)
    batched_s = (time.perf_counter() - t0) / len(neighbors)
    assert batch_bounds == bounds

    # soundness: the bound never undercuts the true neighbor optimum
    for b, v in zip(bounds, scratch_values):
        assert b >= v * (1 - 1e-9), (b, v)
    # consistency: re-pricing the incumbent's own order is exact
    self_bound = objective.bound(order, incumbent)
    np.testing.assert_allclose(
        self_bound, incumbent.expected_time, rtol=1e-9
    )

    speedup = scratch_s / incremental_s
    lines.append(
        f"incremental evaluation ({SPEEDUP_ALGORITHM}, n={dag.n}, "
        f"{len(neighbors)} neighbors): from-scratch "
        f"{scratch_s * 1e3:7.2f} ms/neighbor, frozen-schedule bound "
        f"{incremental_s * 1e3:7.3f} ms/neighbor -> {speedup:.0f}x "
        f"(bound cache hits: {objective.bound_cache_hits}); batched "
        f"bounds {batched_s * 1e3:7.3f} ms/neighbor -> "
        f"{scratch_s / batched_s:.0f}x"
    )
    assert speedup >= MIN_INCREMENTAL_SPEEDUP, (
        "the incremental evaluator lost its edge over from-scratch "
        "re-optimization",
        speedup,
    )

    # ------------------------------------------------------------------
    # gate 6 — the north-star baseline reaches the DP in batches
    # ------------------------------------------------------------------
    request = parse_request("dag/optimize", NORTH_STAR)
    registry = MetricsRegistry()
    with instrument(registry):
        t0 = time.perf_counter()
        outcome = run(request)
        north_wall = time.perf_counter() - t0
    snapshot = registry.snapshot()
    dp_rows = snapshot.counter(f"dp.solves.{request.algorithm}")
    dp_calls = snapshot.timers["dp.solve"].count
    north_star = {
        "request": NORTH_STAR,
        "wall_s": north_wall,
        "dp_calls": dp_calls,
        "dp_rows": dp_rows,
        "rows_per_call": dp_rows / dp_calls,
        "min_rows_per_call": MIN_ROWS_PER_DP_CALL,
        "exact_evaluations": outcome.result.exact_evaluations,
        "expected_time": outcome.result.expected_time,
    }
    lines.append(
        f"north-star baseline (layered-20, Hera, admv): {north_wall:.1f}s wall, "
        f"{dp_rows} DP rows in {dp_calls} calls "
        f"({north_star['rows_per_call']:.1f} rows/call), "
        f"{north_star['exact_evaluations']} exact evaluations"
    )
    assert north_star["rows_per_call"] >= MIN_ROWS_PER_DP_CALL, north_star

    doc = {
        "bench": "dag_search",
        "seed": SEED,
        "platform": platform.name,
        "quality_algorithm": QUALITY_ALGORITHM,
        "small_campaign": small,
        "mid_campaign": mid,
        "mid_seconds": mid_seconds,
        "default_campaign": rows,
        "campaign_wins": wins,
        "hetero_campaign": hetero,
        "hetero_margin": HETERO_MARGIN,
        "hetero_margin_wins": margin_wins,
        "mean_hetero_gain": mean_hetero_gain,
        "join_campaign": join_rows,
        "incremental": {
            "algorithm": SPEEDUP_ALGORITHM,
            "n": dag.n,
            "neighbors": len(neighbors),
            "scratch_s_per_neighbor": scratch_s,
            "incremental_s_per_neighbor": incremental_s,
            "speedup": speedup,
            "min_speedup": MIN_INCREMENTAL_SPEEDUP,
            "bounds_per_s": 1.0 / incremental_s,
            "batched_s_per_neighbor": batched_s,
            "batched_speedup": scratch_s / batched_s,
        },
        "north_star": north_star,
    }
    (results_dir / "BENCH_dag_search.json").write_text(
        json.dumps(doc, indent=2) + "\n"
    )

    text = "\n".join(
        ["DAG order-search quality + incremental evaluation"] + lines
    )
    print()
    print(text)
    save_result(results_dir, "dag_search.txt", text)
