"""p-processor scheduling quality gate against the serialized optimum.

The parallel scheduler (:mod:`repro.dag.parallel`) earns its place only
if running a workflow on two workers actually *finishes sooner* than the
best serialized chain schedule, synchronisation overhead included.  The
surrogate the search optimizes is a lower bound, so the gate compares
like with like:

* **serialized baseline** — the PR-5 metaheuristic order search
  (:func:`repro.dag.search.search_order`); for a chain schedule the
  analytic expected makespan is exact, no simulation needed;
* **p=2 candidate** — :func:`repro.dag.parallel.search_parallel`, whose
  winning plan is certified by the multi-worker batched engine
  (:func:`repro.simulation.simulate_parallel`): the gate uses the MC
  *mean plus 4 standard errors*, so a win means the true expected
  makespan beats the serialized optimum with overwhelming confidence;
* the gate: **p=2 must win on a strict majority of the default-campaign
  instances** on the failure-intense ``stress`` platform.

Also reports p=1 degeneracy (the parallel surrogate at one worker is the
exact chain value — it must tie the serialized optimum to ~1e-12) and
search-throughput accounting: states priced and per second, how many of
them the layout memo answered, and how many worker placements the
placement memo reused.  Writes ``results/BENCH_parallel.json`` (the CI
bench job copies it to the repo root on main pushes) plus a
human-readable ``results/parallel.txt``.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from bench_common import save_result
from repro.dag import campaign, search_order, search_parallel
from repro.experiments.dag_search import stress_platform

SEED = 0
QUALITY_ALGORITHM = "admv_star"  # many exact solves: the O(n^4) DP
MC_RUNS = 4096
P1_TIE_RTOL = 1e-9  # p=1 surrogate must tie the serialized optimum


def test_parallel_gates(benchmark, results_dir):
    platform = stress_platform()
    lines = []

    def run_campaign():
        rows = []
        for dag in campaign("default", seed=SEED):
            serialized = search_order(
                dag,
                platform,
                algorithm=QUALITY_ALGORITHM,
                seed=SEED,
                restarts=1,
                polish_budget=16,
            )
            t0 = time.perf_counter()
            found = search_parallel(
                dag,
                platform,
                2,
                algorithm=QUALITY_ALGORITHM,
                seed=SEED,
                restarts=1,
                max_rounds=30,
            )
            search_s = time.perf_counter() - t0
            from repro.simulation import simulate_parallel

            batch = simulate_parallel(
                found.solution.plan(), platform, MC_RUNS, seed=SEED
            )
            makespans = np.asarray(batch.makespans)
            mean = float(makespans.mean())
            sem = float(makespans.std(ddof=1) / math.sqrt(len(makespans)))
            # win = the MC mean beats the serialized *exact* expected
            # makespan by more than 4 standard errors of the estimate
            win = mean + 4.0 * sem < serialized.expected_time
            rows.append(
                {
                    "instance": dag.name,
                    "n": dag.n,
                    "serialized": serialized.expected_time,
                    "parallel_surrogate": found.expected_time,
                    "parallel_mc_mean": mean,
                    "parallel_mc_sem": sem,
                    "speedup": serialized.expected_time / mean,
                    "win": win,
                    "states_priced": found.states_priced,
                    # fresh states the layout memo answered, and worker
                    # placements of new layouts the placement memo held
                    "layout_hits": found.metrics.counter("pricing.layout.hits"),
                    "placement_hits": found.metrics.counter(
                        "pricing.placement.hits"
                    ),
                    "states_per_s": found.states_priced / search_s,
                    "search_seconds": search_s,
                }
            )
        return rows

    rows = benchmark.pedantic(run_campaign, rounds=1, iterations=1)
    wins = sum(r["win"] for r in rows)
    for r in rows:
        lines.append(
            f"  {r['instance']:18s} n={r['n']:2d}  serialized "
            f"{r['serialized']:10.2f}s  p=2 MC {r['parallel_mc_mean']:10.2f}s"
            f" (+-{r['parallel_mc_sem']:.2f})  speedup {r['speedup']:.3f}x  "
            f"({r['states_priced']} states, {r['layout_hits']} layout hits, "
            f"{r['placement_hits']} placement hits, {r['states_per_s']:5.0f}/s)"
        )
    lines.insert(
        0,
        f"default campaign: p=2 beat the serialized optimum on "
        f"{wins}/{len(rows)} instances (4-sigma MC margin)",
    )
    assert wins * 2 > len(rows), (wins, rows)

    # ------------------------------------------------------------------
    # p=1 degeneracy: the parallel surrogate is the exact chain value
    # ------------------------------------------------------------------
    p1_rows = []
    for dag in campaign("small", seed=SEED):
        serialized = search_order(
            dag, platform, algorithm=QUALITY_ALGORITHM, seed=SEED
        )
        found = search_parallel(
            dag, platform, 1, algorithm=QUALITY_ALGORITHM, seed=SEED
        )
        rel = abs(found.expected_time - serialized.expected_time) / (
            serialized.expected_time
        )
        p1_rows.append(
            {
                "instance": dag.name,
                "serialized": serialized.expected_time,
                "parallel_p1": found.expected_time,
                "relative_gap": rel,
            }
        )
        assert rel <= P1_TIE_RTOL, (dag.name, rel)
    lines.append(
        f"p=1 degeneracy: parallel search tied the serialized optimum on "
        f"{len(p1_rows)}/{len(p1_rows)} small instances "
        f"(max gap {max(r['relative_gap'] for r in p1_rows):.2e})"
    )

    doc = {
        "bench": "parallel",
        "seed": SEED,
        "platform": platform.name,
        "quality_algorithm": QUALITY_ALGORITHM,
        "mc_runs": MC_RUNS,
        "default_campaign": rows,
        "campaign_wins": wins,
        "p1_degeneracy": p1_rows,
    }
    (results_dir / "BENCH_parallel.json").write_text(
        json.dumps(doc, indent=2) + "\n"
    )

    text = "\n".join(
        ["p-processor scheduling quality vs serialized optimum"] + lines
    )
    print()
    print(text)
    save_result(results_dir, "parallel.txt", text)
