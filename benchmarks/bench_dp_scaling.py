"""DP runtime scaling — the paper's Section V claim.

"While the most general algorithm has a high complexity of O(n^6) ... it
executes within a few seconds for n = 50" — our implementation is
``O(n^5)`` thanks to the affine decomposition (see the module docstring
of :mod:`repro.core.dp_partial`) and must stay within the same budget.
The single- and two-level DPs are orders of magnitude cheaper and are
timed with regular benchmark rounds.

``test_dp_scaling_ledger`` writes ``results/BENCH_dp.json``: the median
CPU time of five solves per DP at n in {20, 40, 50} on a uniform Hera
chain, and the wall time of one ``admv`` solve at n = 50.
"""

from __future__ import annotations

import json
import statistics
import time

import pytest

from repro.chains import uniform_chain
from repro.core import ALGORITHMS, optimize
from repro.platforms import HERA

LEDGER_SIZES = (20, 40, 50)
LEDGER_REPEATS = 5


@pytest.mark.parametrize("n", [10, 25, 50])
@pytest.mark.parametrize("algorithm", ["adv_star", "admv_star"])
def test_cheap_dp_scaling(benchmark, algorithm, n):
    chain = uniform_chain(n)
    solution = benchmark(optimize, chain, HERA, algorithm)
    assert solution.schedule.is_strict


@pytest.mark.parametrize("n", [10, 25, 50])
def test_admv_scaling(benchmark, n):
    chain = uniform_chain(n)
    solution = benchmark.pedantic(
        optimize, args=(chain, HERA, "admv"), rounds=1, iterations=1
    )
    assert solution.schedule.is_strict


def test_admv_paper_runtime_claim():
    """n = 50 must solve 'within a few seconds' (paper: Section V)."""
    chain = uniform_chain(50)
    start = time.perf_counter()
    optimize(chain, HERA, algorithm="admv")
    elapsed = time.perf_counter() - start
    print(f"\nADMV n=50 wall time: {elapsed:.2f}s")
    assert elapsed < 15.0


def _cpu_ms(chain, algorithm: str) -> float:
    start = time.process_time()
    optimize(chain, HERA, algorithm)
    return (time.process_time() - start) * 1e3


def test_dp_scaling_ledger(results_dir):
    cpu_ms: dict[str, dict[str, float]] = {}
    for algorithm in ALGORITHMS:
        cpu_ms[algorithm] = {}
        for n in LEDGER_SIZES:
            chain = uniform_chain(n)
            optimize(chain, HERA, algorithm)  # warm the imports and caches
            times = [_cpu_ms(chain, algorithm) for _ in range(LEDGER_REPEATS)]
            cpu_ms[algorithm][str(n)] = statistics.median(times)
    chain = uniform_chain(50)
    start = time.perf_counter()
    optimize(chain, HERA, "admv")
    wall_s = time.perf_counter() - start

    doc = {
        "bench": "dp",
        "platform": HERA.name,
        "chain": "uniform",
        "repeats": LEDGER_REPEATS,
        "median_cpu_ms": cpu_ms,
        "admv_n50_wall_s": wall_s,
    }
    (results_dir / "BENCH_dp.json").write_text(json.dumps(doc, indent=2) + "\n")
    print("\nDP median CPU time over", LEDGER_REPEATS, "solves (Hera, uniform)")
    for algorithm, row in cpu_ms.items():
        cells = ", ".join(f"n={n} {ms:.1f} ms" for n, ms in row.items())
        print(f"{algorithm:>9}: {cells}")
    print(f"admv n=50 wall time: {wall_s:.3f} s")
