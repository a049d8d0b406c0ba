"""Certify the neighbourhood batch paths bit for bit.

Two batch paths price a p=2 search neighbourhood in one call:

* :func:`repro.core.dp_two_level.optimize_two_level_batch` and
  :func:`repro.core.dp_partial.optimize_partial_batch` solve K chains in
  one pass of the ``ADMV*`` and ``ADMV`` DPs, padding the shorter ones
  to the longest; every row must equal its own ``K = 1`` solve and the
  one-``d1``-at-a-time loop of ``test_dp_batched_reference.py`` (``==``
  on ``Edisk``, ``Emem`` and the schedule);
* :meth:`repro.dag.parallel.ParallelObjective.values` prices a list of
  states; it must leave the values, the memos and the counters of one
  :meth:`~repro.dag.parallel.ParallelObjective.value` call per state.

The placement and fold behind ``values`` are checked against the
networkx-walking layout and the epoch-graph recursion they replaced.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chains import TaskChain
from repro.core import optimize, optimize_batch
from repro.core.costs import CostProfile, cost_table
from repro.core.dp_two_level import optimize_two_level, optimize_two_level_batch
from repro.dag.generate import generate
from repro.dag.parallel import (
    ParallelObjective,
    ParallelSchedule,
    greedy_assignment,
    parallel_neighborhood,
    random_parallel_neighbor,
)
from repro.dag.search import random_order
from repro.exceptions import InvalidChainError
from repro.obs import MetricsRegistry, instrument
from repro.platforms import HERA
from test_dp_batched_reference import PLATFORMS, reference_two_level


def _profile(draw, rng, platform, n):
    mode = draw(
        st.sampled_from(("none", "uniform", "scaled", "boundary", "scaled-boundary"))
    )
    if mode == "none":
        return None
    profile = (
        CostProfile.scaled(platform, rng.lognormal(0.0, 1.0, n))
        if mode.startswith("scaled")
        else CostProfile.uniform(n, platform)
    )
    if mode.endswith("boundary"):
        scale = rng.lognormal(0.0, 1.0)
        profile = profile.with_boundary_recovery(
            platform.RD * scale, platform.RM * scale
        )
    return profile


@st.composite
def batches(draw):
    """(weights (K, n), platform, K profiles) with K <= 6 and n <= 12."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    platform = draw(st.sampled_from(PLATFORMS))
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1.0, 100.0, 3000.0]))
    weights = rng.lognormal(0.0, 1.0, (k, n)) * scale
    costs = [_profile(draw, rng, platform, n) for _ in range(k)]
    return weights, platform, costs


def _assert_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.array_equal(got, want), np.argwhere(got != want)[:5]


@settings(max_examples=150, deadline=None)
@given(batches())
def test_batched_admv_star_rows_equal_their_one_chain_solves(case):
    weights, platform, costs = case
    chains = [TaskChain(row) for row in weights]
    batch = optimize_two_level_batch(chains, platform, costs=costs)
    assert len(batch) == len(chains)
    for chain, profile, got in zip(chains, costs, batch):
        one = optimize_two_level(chain, platform, costs=profile)
        Edisk, Emem, schedule = reference_two_level(chain, platform, profile)
        for want in (one.diagnostics["Edisk"], Edisk):
            _assert_bits(got.diagnostics["Edisk"], want)
        for want in (one.diagnostics["Emem"], Emem):
            _assert_bits(got.diagnostics["Emem"], want)
        assert got.schedule == one.schedule == schedule
        assert got.expected_time == one.expected_time == float(Edisk[-1])


@settings(max_examples=40, deadline=None)
@given(batches(), st.sampled_from(("admv_star", "adv_star", "admv")))
def test_optimize_batch_equals_one_optimize_per_row(case, algorithm):
    """Profiles or their stack, every algorithm, and one solve counted
    per row."""
    weights, platform, costs = case
    if algorithm == "admv" and weights.shape[1] > 6:
        weights = weights[:, :6]
        costs = None
    registry = MetricsRegistry()
    with instrument(registry):
        listed = optimize_batch(weights, platform, algorithm, costs=costs)
    stacked = optimize_batch(
        weights,
        platform,
        algorithm,
        costs=cost_table(costs, *weights.shape, platform),
    )
    assert registry.snapshot().counter(f"dp.solves.{algorithm}") == len(weights)
    for k, row in enumerate(weights):
        one = optimize(
            TaskChain(row),
            platform,
            algorithm,
            costs=None if costs is None else costs[k],
        )
        for got in (listed[k], stacked[k]):
            assert got.expected_time == one.expected_time
            assert got.schedule == one.schedule


@st.composite
def ragged_batches(draw):
    """(rows of lengths 1..12, platform, one profile per row)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    platform = draw(st.sampled_from(PLATFORMS))
    lengths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    scale = draw(st.sampled_from([1.0, 100.0, 3000.0]))
    rows = [rng.lognormal(0.0, 1.0, n) * scale for n in lengths]
    costs = [_profile(draw, rng, platform, n) for n in lengths]
    return rows, platform, costs


def _assert_row_is_its_own_solve(got, row, platform, algorithm, profile):
    one = optimize(TaskChain(row), platform, algorithm, costs=profile)
    assert got.chain == one.chain
    assert got.expected_time == one.expected_time
    assert got.schedule == one.schedule
    for name in ("Edisk", "Emem"):
        _assert_bits(got.diagnostics[name], one.diagnostics[name])


@settings(max_examples=60, deadline=None)
@given(ragged_batches(), st.sampled_from(("admv_star", "admv")))
def test_ragged_rows_equal_their_one_chain_solves(case, algorithm):
    """Rows of mixed lengths, their profiles or their padded stack."""
    rows, platform, costs = case
    lengths = [len(row) for row in rows]
    listed = optimize_batch(rows, platform, algorithm, costs=costs)
    stacked = optimize_batch(
        rows,
        platform,
        algorithm,
        costs=cost_table(costs, len(rows), lengths, platform),
    )
    for k, row in enumerate(rows):
        for got in (listed[k], stacked[k]):
            _assert_row_is_its_own_solve(got, row, platform, algorithm, costs[k])


@pytest.mark.parametrize("algorithm", ["admv_star", "admv", "adv_star"])
def test_ragged_batch_with_one_task_rows_and_a_single_longest_row(algorithm):
    rng = np.random.default_rng(11)
    platform = PLATFORMS[-1]
    rows = [rng.lognormal(0.0, 1.0, n) * 100.0 for n in (1, 5, 1, 9, 3, 1)]
    solutions = optimize_batch(rows, platform, algorithm)
    assert [s.chain.n for s in solutions] == [1, 5, 1, 9, 3, 1]
    for got, row in zip(solutions, rows):
        one = optimize(TaskChain(row), platform, algorithm)
        assert got.expected_time == one.expected_time
        assert got.schedule == one.schedule


def test_ragged_rows_are_valid_input():
    solutions = optimize_batch([[1.0, 2.0], [3.0]], HERA, "admv_star")
    assert [s.chain.n for s in solutions] == [2, 1]


@pytest.mark.parametrize("algorithm", ["admv_star", "admv", "adv_star"])
def test_an_empty_batch_gives_no_solutions(algorithm):
    assert optimize_batch([], HERA, algorithm) == []
    assert optimize_batch(np.empty((0, 4)), HERA, algorithm) == []


@pytest.mark.parametrize(
    "rows, bad",
    [
        ([[1.0, 2.0], []], 1),
        ([[[1.0, 2.0]], [3.0]], 0),
        ([[1.0], 2.0], 1),
        ([[1.0, 2.0], [3.0, float("nan")]], 1),
        ([[1.0, float("inf")], [3.0]], 0),
        ([[1.0], [2.0], [0.0, 1.0]], 2),
        ([[1.0], [2.0, -1.0], [3.0]], 1),
    ],
)
def test_invalid_rows_are_named(rows, bad):
    for algorithm in ("admv_star", "admv", "adv_star"):
        with pytest.raises(InvalidChainError, match=f"row {bad}"):
            optimize_batch(rows, HERA, algorithm)


# ----------------------------------------------------------------------
# the parallel objective
# ----------------------------------------------------------------------
def reference_layout(state: ParallelSchedule):
    """Worker orders, boundaries, epoch deps and sequence, walking the
    networkx edge views by task name."""
    p = state.processors
    worker_orders: list[list] = [[] for _ in range(p)]
    wpos = {}
    for v in state.order:
        w = state.assignment[v]
        worker_orders[w].append(v)
        wpos[v] = (w, len(worker_orders[w]))
    bset: list[set[int]] = [set() for _ in range(p)]
    cross = []
    for u, v in state.dag.graph.edges:
        (wu, pu), (wv, pv) = wpos[u], wpos[v]
        if wu == wv:
            continue
        cross.append((u, v))
        if pu < len(worker_orders[wu]):
            bset[wu].add(pu)
        if pv > 1:
            bset[wv].add(pv - 1)
    boundaries = tuple(tuple(sorted(s)) for s in bset)
    deps_sets = [
        [set() for _ in range(len(boundaries[w]) + 1)] if worker_orders[w] else []
        for w in range(p)
    ]
    for u, v in cross:
        (wu, pu), (wv, pv) = wpos[u], wpos[v]
        deps_sets[wv][bisect_left(boundaries[wv], pv)].add(
            (wu, bisect_left(boundaries[wu], pu))
        )
    deps = tuple(tuple(tuple(sorted(s)) for s in deps_sets[w]) for w in range(p))
    gpos = {v: i for i, v in enumerate(state.order)}
    epochs = []
    for w in range(p):
        if worker_orders[w]:
            starts = (0,) + boundaries[w]
            for e in range(len(boundaries[w]) + 1):
                epochs.append((gpos[worker_orders[w][starts[e]]], (w, e)))
    return (
        tuple(tuple(o) for o in worker_orders),
        boundaries,
        deps,
        tuple(ref for _, ref in sorted(epochs)),
    )


def reference_fold(deps, sequence, durations) -> float:
    """The critical-path recursion over the epoch graph."""
    completion = {}
    for w, e in sequence:
        start = completion[(w, e - 1)] if e > 0 else 0.0
        for dep in deps[w][e]:
            start = max(start, completion[dep])
        completion[(w, e)] = start + durations[w][e]
    return max(
        completion[(w, len(d) - 1)] for w, d in enumerate(durations) if d
    )


@st.composite
def neighbourhoods(draw):
    """(dag, platform, p, algorithm, states): a random state, a sampled
    neighbourhood of it with repeats, and a short random walk."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    dag = generate(
        "layered",
        seed=seed,
        tasks=draw(st.integers(4, 10)),
        layers=draw(st.integers(2, 4)),
        density=0.5,
        weights="lognormal",
        cost_spread=draw(st.sampled_from([0.0, 1.0])),
    )
    platform = draw(st.sampled_from(PLATFORMS))
    p = draw(st.integers(1, 3))
    order = random_order(dag, rng)
    state = ParallelSchedule(dag, p, order, greedy_assignment(dag, order, p))
    states = [state]
    states += [
        s
        for s, _ in parallel_neighborhood(
            state, rng=rng, max_reinsertions=8, max_reassignments=8
        )
    ]
    walker = state
    for _ in range(draw(st.integers(0, 6))):
        picked = random_parallel_neighbor(walker, rng)
        if picked is None:
            break
        walker = picked[0]
        states.append(walker)
    states += [states[int(i)] for i in rng.integers(len(states), size=3)]
    algorithm = draw(st.sampled_from(("admv_star", "adv_star")))
    return dag, platform, p, algorithm, states


def _memos(objective: ParallelObjective):
    return objective._values, objective._workers, objective._intervals


@settings(max_examples=40, deadline=None)
@given(neighbourhoods(), st.integers(0, 5))
def test_values_equal_one_value_per_state(case, split):
    """Same values, memos and counters; the first ``split`` states are
    priced beforehand so that the batch also meets warm memos."""
    dag, platform, p, algorithm, states = case
    batched = ParallelObjective(dag, platform, p, algorithm=algorithm)
    single = ParallelObjective(dag, platform, p, algorithm=algorithm)
    got = batched.values(states[:split]) + batched.values(states[split:])
    want = [single.value(s) for s in states]
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert _memos(batched) == _memos(single)
    assert batched.metrics.snapshot().counters == single.metrics.snapshot().counters


@settings(max_examples=40, deadline=None)
@given(neighbourhoods())
def test_layout_and_fold_equal_the_epoch_graph_reference(case):
    dag, platform, p, algorithm, states = case
    objective = ParallelObjective(dag, platform, p, algorithm=algorithm)
    for state in states[:8]:
        layout = state.layout()
        worker_orders, boundaries, deps, sequence = reference_layout(state)
        assert layout.worker_orders == worker_orders
        assert layout.boundaries == boundaries
        assert layout.deps == deps
        assert layout.epoch_sequence == sequence
        pricing = objective.price(state)
        want = reference_fold(deps, sequence, pricing.epoch_durations)
        assert pricing.value.hex() == want.hex()
        assert objective.value(state).hex() == want.hex()
