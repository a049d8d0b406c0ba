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
networkx-walking layout and the epoch-graph recursion they replaced, and
``values`` itself — a layout memo, and a memo of placed worker
sequences — against the full pass it replaced: one placement, one set of
worker keys and one fold for every state not yet priced.
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
    list_schedule,
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
    edges by task name."""
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
    return (
        objective._values,
        objective._workers,
        objective._intervals,
        objective._layouts,
        objective._placements,
    )


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


# ----------------------------------------------------------------------
# the oracle: the full pass that values() replaced
# ----------------------------------------------------------------------
def full_place(graph, processors, key):
    """Worker sequences, epoch-opening flags and commit boundaries from
    one pass over the global order and one over the edges."""
    order, workers = key
    numbers = [graph.number[v] for v in order]
    seqs = [[] for _ in range(processors)]
    worker_of = [0] * len(numbers)
    local = [0] * len(numbers)  # 1-based position on its worker
    for i, w in zip(numbers, workers):
        seqs[w].append(i)
        worker_of[i] = w
        local[i] = len(seqs[w])
    opens = [False] * len(numbers)
    for seq in seqs:
        if seq:
            opens[seq[0]] = True
    number = graph.number
    for u, v in [(number[u], number[v]) for u, v in graph.edges]:
        if worker_of[u] != worker_of[v]:
            seq = seqs[worker_of[u]]
            if local[u] < len(seq):
                opens[seq[local[u]]] = True  # commit after the producer
            opens[v] = True  # commit before the consumer
    boundaries = tuple(
        tuple(b for b in range(1, len(seq)) if opens[seq[b]]) for seq in seqs
    )
    return numbers, workers, seqs, opens, boundaries


def full_fold(graph, placed, durations) -> float:
    """The critical-path fold over the global order."""
    numbers, workers, seqs, opens, _ = placed
    completion = [0.0] * len(seqs)
    finish = [0.0] * len(numbers)
    epochs = [iter(d) for d in durations]
    for i, w in zip(numbers, workers):
        if opens[i]:
            start = completion[w]
            for u in graph.preds[i]:
                if finish[u] > start:
                    start = finish[u]
            completion[w] = start + next(epochs[w])
        finish[i] = completion[w]
    return max(c for c, seq in zip(completion, seqs) if seq)


class FullPassObjective(ParallelObjective):
    """:meth:`values` as a full pass per state not yet priced.

    The memos and ``parallel.*`` counters are kept as the objective keeps
    them; the layout and placement memos and the ``pricing.*`` counters
    are kept by direct bookkeeping: a state whose worker sequences were
    priced together before is a layout hit, and each worker sequence of a
    new layout that an earlier new layout held is a placement hit.
    """

    def _full_keys(self, placed, workers, intervals):
        keys = []
        worker_hits = interval_hits = 0
        for seq, boundaries in zip(placed[2], placed[4]):
            if not seq:
                keys.append(None)
                continue
            wbytes = b"".join([self._weight_bytes[i] for i in seq])
            mbytes = (
                None
                if self._mult_bytes is None
                else b"".join([self._mult_bytes[i] for i in seq])
            )
            key = (wbytes, mbytes, boundaries)
            keys.append(key)
            if key in self._workers or key in workers:
                worker_hits += 1
                continue
            interval_keys = []
            cuts = (0,) + boundaries + (len(seq),)
            for lo, hi in zip(cuts, cuts[1:]):
                if lo == 0:
                    rd0 = rm0 = 0.0
                else:
                    scale = (
                        1.0 if self._mults is None else float(self._mults[seq[lo - 1]])
                    )
                    rd0 = float(self.platform.RD) * scale
                    rm0 = float(self.platform.RM) * scale
                ikey = (
                    wbytes[8 * lo : 8 * hi],
                    None if mbytes is None else mbytes[8 * lo : 8 * hi],
                    rd0,
                    rm0,
                )
                interval_keys.append(ikey)
                if ikey in self._intervals or ikey in intervals:
                    interval_hits += 1
                else:
                    intervals[ikey] = (seq[lo:hi], rd0, rm0)
            workers[key] = tuple(interval_keys)
        self._c_worker_hits.inc(worker_hits)
        self._c_interval_hits.inc(interval_hits)
        return keys

    def values(self, states):
        keys = [state.key() for state in states]
        fresh = {}
        workers, intervals = {}, {}
        for key in keys:
            if key in self._values or key in fresh:
                continue
            placed = full_place(self.dag.graph, self.processors, key)
            fresh[key] = (placed, self._full_keys(placed, workers, intervals))
        self._price({}, workers, intervals)
        c = self.metrics.counter
        for key, (placed, worker_keys) in fresh.items():
            value = full_fold(
                self.dag.graph,
                placed,
                [() if k is None else self._workers[k][0] for k in worker_keys],
            )
            self._values[key] = value
            seqs, opens = placed[2], placed[3]
            layout = tuple(map(tuple, seqs))
            if layout in self._layouts:
                c("pricing.layout.hits").inc()
                continue
            self._layouts[layout] = value
            c("pricing.layout.priced").inc()
            for seq, worker_key in zip(layout, worker_keys):
                if not seq:
                    continue
                if seq in self._placements:
                    c("pricing.placement.hits").inc()
                    continue
                self._placements[seq] = (tuple(opens[i] for i in seq), worker_key)
                c("pricing.placement.priced").inc()
        self._c_state_priced.inc(len(fresh))
        self._c_state_hits.inc(len(keys) - len(fresh))
        return [self._values[key] for key in keys]


def _assert_same_pricing(got: ParallelObjective, want: ParallelObjective) -> None:
    assert _memos(got) == _memos(want)
    assert got.metrics.snapshot().counters == want.metrics.snapshot().counters


def _hex(values) -> list[str]:
    return [v.hex() for v in values]


@settings(max_examples=40, deadline=None)
@given(neighbourhoods(), st.integers(0, 5))
def test_values_equal_the_full_pass(case, split):
    """Cold, then warm: the first ``split`` states are priced first."""
    dag, platform, p, algorithm, states = case
    for cut in (0, split):
        got = ParallelObjective(dag, platform, p, algorithm=algorithm)
        want = FullPassObjective(dag, platform, p, algorithm=algorithm)
        assert _hex(got.values(states[:cut]) + got.values(states[cut:])) == _hex(
            want.values(states[:cut]) + want.values(states[cut:])
        )
        _assert_same_pricing(got, want)


@settings(max_examples=40, deadline=None)
@given(neighbourhoods(), st.integers(0, 2**32 - 1), st.integers(1, 30))
def test_a_walk_priced_step_by_step_equals_the_full_pass(case, seed, steps):
    """Each state of a random walk is priced alone, after the state its
    move started at, so its unchanged workers come from the memos."""
    dag, platform, p, algorithm, states = case
    rng = np.random.default_rng(seed)
    got = ParallelObjective(dag, platform, p, algorithm=algorithm)
    want = FullPassObjective(dag, platform, p, algorithm=algorithm)
    walker = states[0]
    for _ in range(steps):
        assert _hex(got.values([walker])) == _hex(want.values([walker]))
        picked = random_parallel_neighbor(walker, rng)
        if picked is None:
            break
        walker = picked[0]
    _assert_same_pricing(got, want)


def _swap_across_workers(state: ParallelSchedule) -> ParallelSchedule:
    graph = state.dag.graph
    for i, (u, v) in enumerate(zip(state.order, state.order[1:])):
        if state.assignment[u] != state.assignment[v] and not graph.has_edge(u, v):
            order = list(state.order)
            order[i], order[i + 1] = v, u
            return state.with_order(order)
    raise AssertionError("no adjacent pair of tasks on different workers")


def test_a_swap_across_workers_is_a_layout_hit():
    dag = generate(
        "layered", seed=3, tasks=12, layers=3, density=0.3, weights="lognormal"
    )
    order = random_order(dag, np.random.default_rng(0))
    state = ParallelSchedule(dag, 2, order, greedy_assignment(dag, order, 2))
    swapped = _swap_across_workers(state)
    assert swapped.key() != state.key()
    objective = ParallelObjective(dag, HERA, 2, algorithm="admv_star")
    value, swapped_value = objective.values([state, swapped])
    assert swapped_value.hex() == value.hex()
    counters = objective.metrics.snapshot().counters
    assert counters["parallel.state.priced"] == 2
    assert counters["pricing.layout.priced"] == 1
    assert counters["pricing.layout.hits"] == 1
    assert counters["parallel.worker.hits"] == 2  # both workers, as a full pass
    reference = FullPassObjective(dag, HERA, 2, algorithm="admv_star")
    assert _hex(reference.values([state, swapped])) == _hex([value, swapped_value])
    _assert_same_pricing(objective, reference)


def test_order_moves_reuse_the_other_workers_placement():
    """An order move changes one worker's sequence; the other worker's
    comes from the placement memo, with its worker memo hit."""
    dag = generate(
        "layered", seed=4, tasks=14, layers=4, density=0.5, weights="lognormal",
        cost_spread=1.0,
    )
    state = list_schedule(dag, 2)
    assert all(state.worker_orders())
    objective = ParallelObjective(dag, HERA, 2, algorithm="admv_star")
    reference = FullPassObjective(dag, HERA, 2, algorithm="admv_star")
    moves = [
        cand
        for cand, move in parallel_neighborhood(state)
        if move[0] == "order"
    ]
    for batch in ([state], moves):
        assert _hex(objective.values(batch)) == _hex(reference.values(batch))
    counters = objective.metrics.snapshot().counters
    new_layouts = counters["pricing.layout.priced"] - 1
    assert new_layouts > 0
    assert counters["pricing.placement.hits"] >= new_layouts
    _assert_same_pricing(objective, reference)
