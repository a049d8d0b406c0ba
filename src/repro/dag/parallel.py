"""p-processor list scheduling + (assignment, order) search for workflows.

Everything before this module linearises a :class:`~repro.dag.workflow.
WorkflowDAG` onto *one* processor.  Here a schedule is a pair — a global
topological order plus a task→worker assignment — and the chain machinery
is lifted per worker:

* **List scheduling seeds** (:func:`list_schedule`): the classic serial
  schedule-generation scheme — repeatedly start the highest-priority
  ready task on the worker giving it the earliest error-free start —
  with the priority rules of :mod:`repro.dag.linearize`
  (``bottom_level``, ``critical_path``, weight-greedy, …).
* **Commit protocol**: cross-worker dependencies are exchanged through
  disk checkpoints.  Each worker's chain is cut at its *commit
  boundaries* — after any task with a remote successor, before any task
  with a remote predecessor — which divides it into epochs (see
  :mod:`repro.simulation.parallel` for the failure semantics).
* **Per-worker checkpoint placement**: every inter-boundary interval is
  an independent chain problem (the renewal structure of disk
  checkpoints — :meth:`~repro.core.costs.CostProfile.
  with_boundary_recovery` prices an interval opening at a boundary), so
  the existing chain DP solves each interval and the worker schedule is
  their concatenation, with the forced boundary disk checkpoints being
  exactly the intervals' final disk checkpoints.
* **Surrogate objective** (:class:`ParallelObjective`): per-worker
  expected *busy* durations per epoch (exact, by the renewal
  decomposition) folded through the epoch dependency graph with a
  critical-path recursion.  Replacing each random epoch duration by its
  expectation under the outer ``max`` makes this a Jensen *lower bound*
  on the true expected makespan — the search ranks states by it, and
  :func:`~repro.simulation.parallel.simulate_parallel` certifies the
  winner's true value.  A round of lockstep hill climbing prices the
  neighbourhoods of all its climbs in one :meth:`ParallelObjective.
  values` call, in four steps.  (1) Each state not priced yet gets its
  *layout*, the task sequence of every worker; the edges are fixed, so
  the layout fixes the value, and a layout already priced answers the
  state from a layout memo.  (2) Each worker of a new layout is placed —
  its epoch-opening flags, commit boundaries and worker memo key depend
  on its own sequence only — unless a placement memo holds that
  sequence: a move changes one worker's sequence (an order move) or two
  (a reassignment), and the workers it leaves unchanged were placed with
  the state it started at.  New workers are looked up in the worker and
  interval memos.  (3) Batched :func:`~repro.core.solver.
  optimize_batch` calls solve the intervals not yet solved, sorted by
  length in chunks of at most :data:`INTERVAL_CHUNK` rows (``ADMV*`` and
  ``ADMV`` solve a chunk in one pass of their DP).  (4) A fold over the
  global order prices each new layout; ``max`` is exact, so the fold
  gives the bits of the epoch-graph recursion.
* **Search** (:func:`search_parallel`): the chain search's kernel
  (:mod:`repro.dag.local_search`) with the move set generalised to
  (assignment, order) pairs — all of :mod:`repro.dag.search`'s
  precedence-preserving order moves, plus reassignment moves relocating
  one task to another worker.

:func:`optimize_parallel` (and ``optimize_dag(processors=p)``) is the
top-level entry point.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ..exceptions import InvalidParameterError
from ..chains import TaskChain
from ..platforms import Platform
from ..core.costs import COST_NAMES, CostProfile
from ..core.schedule import Action, Schedule
# optimize stays importable here: profilers wrap the chain DP by its
# attribute on each calling module
from ..core.solver import optimize  # noqa: F401
from ..core.solver import optimize_batch
from ..obs import MetricsRegistry, MetricsSnapshot, get_logger
from ..obs import span as _span
from ..simulation.parallel import ParallelPlan, WorkerPlan
from .linearize import candidate_orders
from .local_search import multistart, neighbor_cap
from .search import dp_rows, neighborhood, random_neighbor, start_orders, subsample
from .workflow import DagGraph, WorkflowDAG

__all__ = [
    "ParallelSchedule",
    "ParallelObjective",
    "ParallelSolution",
    "ParallelSearchResult",
    "list_schedule",
    "greedy_assignment",
    "parallel_neighborhood",
    "random_parallel_neighbor",
    "search_parallel",
    "optimize_parallel",
]

logger = get_logger(__name__)

#: Most intervals one batched DP call solves: :meth:`ParallelObjective.
#: values` prices a whole lockstep round, and a bigger batch costs
#: memory for no speed.
INTERVAL_CHUNK = 64


# ----------------------------------------------------------------------
# the decision variable
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Layout:
    """Derived structure of a :class:`ParallelSchedule` (see module doc).

    ``worker_orders[w]`` is worker ``w``'s task sequence; ``boundaries[w]``
    its interior commit positions (1-based, strictly increasing);
    ``deps[w][e]`` the producer epochs epoch ``e`` waits on, sorted; and
    ``epoch_sequence`` a topological order of all epochs (by the global
    position of each epoch's first task — every producer epoch's last
    task precedes every consumer epoch's first task in the global order,
    so this linearises the epoch graph).
    """

    worker_orders: tuple[tuple[Hashable, ...], ...]
    boundaries: tuple[tuple[int, ...], ...]
    deps: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
    epoch_sequence: tuple[tuple[int, int], ...]


class ParallelSchedule:
    """A p-processor schedule: global topological order + assignment.

    The search's state.  Immutable by convention — moves build new
    instances via :meth:`with_order` / :meth:`with_worker`.
    """

    __slots__ = ("dag", "processors", "order", "assignment", "_layout")

    def __init__(
        self,
        dag: WorkflowDAG,
        processors: int,
        order: Sequence[Hashable],
        assignment: Mapping[Hashable, int],
        *,
        _validate: bool = True,
    ) -> None:
        self.dag = dag
        self.processors = int(processors)
        self.order: tuple[Hashable, ...] = tuple(order)
        self.assignment: dict[Hashable, int] = dict(assignment)
        self._layout: _Layout | None = None
        if _validate:
            self._check()

    def _check(self) -> None:
        if self.processors < 1:
            raise InvalidParameterError(
                f"processors must be >= 1, got {self.processors}"
            )
        self.dag.check_order(self.order)
        for v in self.order:
            w = self.assignment.get(v)
            if w is None or not 0 <= int(w) < self.processors:
                raise InvalidParameterError(
                    f"task {v!r} needs a worker in [0, {self.processors}), "
                    f"got {w!r}"
                )

    # -- identity -------------------------------------------------------
    def key(self) -> tuple:
        """Hashable identity: the order plus its per-position workers."""
        return (self.order, tuple(map(self.assignment.__getitem__, self.order)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ParallelSchedule) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return (
            f"ParallelSchedule({self.dag.name!r}, p={self.processors}, "
            f"order={list(self.order)!r})"
        )

    # -- moves ----------------------------------------------------------
    def with_order(self, order: Sequence[Hashable]) -> "ParallelSchedule":
        """The same assignment under a different (feasible) order."""
        return ParallelSchedule(
            self.dag, self.processors, order, self.assignment, _validate=False
        )

    def with_worker(self, task: Hashable, worker: int) -> "ParallelSchedule":
        """The same order with one task moved to another worker."""
        assignment = dict(self.assignment)
        assignment[task] = int(worker)
        return ParallelSchedule(
            self.dag, self.processors, self.order, assignment, _validate=False
        )

    # -- structure -------------------------------------------------------
    def worker_orders(self) -> tuple[tuple[Hashable, ...], ...]:
        return self.layout().worker_orders

    def layout(self) -> _Layout:
        """Commit boundaries + epoch dependencies (cached)."""
        if self._layout is None:
            graph = self.dag.graph
            key = self.key()
            numbers, seqs = _sequences(graph, self.processors, key)
            self._layout = _epochs(
                graph, numbers, key[1], seqs, [_cuts(graph, seq) for seq in seqs]
            )
        return self._layout


def _sequences(
    graph: DagGraph, processors: int, key: tuple
) -> tuple[list[int], list[list[int]]]:
    """The state ``key``'s global order in task numbers and each
    worker's task sequence: its layout, which fixes its value."""
    order, workers = key
    numbers = list(map(graph.number.__getitem__, order))
    seqs: list[list[int]] = [[] for _ in range(processors)]
    for i, w in zip(numbers, workers):
        seqs[w].append(i)
    return numbers, seqs


#: a worker sequence's epoch-opening flags and worker memo key
_Placement = tuple[tuple[bool, ...], tuple]


def _cuts(
    graph: DagGraph, seq: Sequence[int]
) -> tuple[tuple[bool, ...], tuple[int, ...]]:
    """Epoch-opening flags of a worker's task sequence and its commit
    boundaries (1-based interior positions).

    The chain is cut after any task with a remote successor and before
    any task with a remote predecessor; a task after a cut, or first on
    its worker, opens an epoch.  Whether a neighbour is remote depends
    only on the worker's own task set, so the sequence alone fixes both.
    """
    preds, succs = graph.preds, graph.succs
    tasks = frozenset(seq)
    flags = []
    boundaries = []
    cut = True
    for b, i in enumerate(seq):
        opens = cut or not preds[i] <= tasks  # commit before the consumer
        flags.append(opens)
        if opens and b:
            boundaries.append(b)
        cut = not succs[i] <= tasks  # commit after the producer
    return tuple(flags), tuple(boundaries)


def _fold(
    graph: DagGraph,
    numbers: Sequence[int],
    workers: Sequence[int],
    flags: Sequence[Sequence[bool]],
    durations: Sequence[Sequence[float]],
) -> float:
    """Critical-path fold of expected epoch durations (see module doc).

    One pass over the global order (``numbers``, on ``workers``), with
    each worker's epoch-opening ``flags``: an epoch starts once its
    worker's previous epoch and the epochs of its first task's remote
    predecessors (each ending at its predecessor) have completed; remote
    predecessors attach only to epoch-opening tasks, by the boundary
    construction.  ``max`` is exact, so taking it in any order gives the
    bits of the epoch-graph recursion.  A predecessor on the same worker
    finished no later than that worker's previous epoch, so it never
    raises a start.
    """
    preds = graph.preds
    completion = [0.0] * len(flags)  # of each worker's latest epoch
    finish = [0.0] * len(numbers)  # completion of each task's epoch
    opening = [iter(f) for f in flags]
    epochs = [iter(d) for d in durations]
    for i, w in zip(numbers, workers):
        if next(opening[w]):
            start = completion[w]
            for u in preds[i]:
                if finish[u] > start:
                    start = finish[u]
            completion[w] = start + next(epochs[w])
        finish[i] = completion[w]
    return max(c for c, f in zip(completion, flags) if f)


def _epochs(
    graph: DagGraph,
    numbers: Sequence[int],
    workers: Sequence[int],
    seqs: Sequence[Sequence[int]],
    cuts: Sequence[tuple[tuple[bool, ...], tuple[int, ...]]],
) -> _Layout:
    """The :class:`_Layout` of a placement, with task names."""
    worker_of = [0] * len(numbers)
    for w, seq in enumerate(seqs):
        for i in seq:
            worker_of[i] = w
    opening = [iter(flags) for flags, _ in cuts]
    epoch = [0] * len(numbers)
    count = [-1] * len(seqs)
    sequence: list[tuple[int, int]] = []
    for i, w in zip(numbers, workers):
        if next(opening[w]):
            count[w] += 1
            sequence.append((w, count[w]))
        epoch[i] = count[w]
    deps: list[list[set[tuple[int, int]]]] = [
        [set() for _ in range(count[w] + 1)] if seq else []
        for w, seq in enumerate(seqs)
    ]
    for v, preds in enumerate(graph.preds):
        for u in preds:
            if worker_of[u] != worker_of[v]:
                deps[worker_of[v]][epoch[v]].add((worker_of[u], epoch[u]))
    return _Layout(
        worker_orders=tuple(tuple(graph.nodes[i] for i in seq) for seq in seqs),
        boundaries=tuple(boundaries for _, boundaries in cuts),
        deps=tuple(tuple(tuple(sorted(d)) for d in dw) for dw in deps),
        epoch_sequence=tuple(sequence),
    )


# ----------------------------------------------------------------------
# list-scheduling seeds
# ----------------------------------------------------------------------
def greedy_assignment(
    dag: WorkflowDAG, order: Sequence[Hashable], processors: int
) -> dict[Hashable, int]:
    """Earliest-start worker assignment for a fixed topological order.

    The forward pass of the serial schedule-generation scheme: walk the
    order, start each task at ``max(worker available, predecessors
    finished)`` on the worker minimising that start (ties to the lowest
    index), using error-free durations.
    """
    if processors < 1:
        raise InvalidParameterError(f"processors must be >= 1, got {processors}")
    graph = dag.graph
    finish: dict[Hashable, float] = {}
    avail = [0.0] * processors
    assignment: dict[Hashable, int] = {}
    for v in order:
        est = max((finish[u] for u in graph.predecessors(v)), default=0.0)
        w = min(
            range(processors), key=lambda k: (max(avail[k], est), avail[k], k)
        )
        start = max(avail[w], est)
        finish[v] = start + dag.weight(v)
        avail[w] = finish[v]
        assignment[v] = w
    return assignment


def list_schedule(
    dag: WorkflowDAG, processors: int, strategy: str = "bottom_level"
) -> ParallelSchedule:
    """Priority-rule list schedule on ``processors`` workers.

    ``strategy`` is any single order strategy of
    :data:`~repro.dag.linearize.ORDER_STRATEGIES` — the priority rule
    fixes the global order (``bottom_level`` is the classic HLF /
    critical-path-method rule), and the forward pass of
    :func:`greedy_assignment` maps it onto the workers.
    """
    (order,) = candidate_orders(dag, strategy)
    return ParallelSchedule(
        dag, processors, order, greedy_assignment(dag, order, processors)
    )


def _dedicated_schedule(dag: WorkflowDAG, processors: int) -> ParallelSchedule:
    """One task per worker (requires ``processors >= dag.n``).

    Maximally parallel: every dependency is a cross-worker commit, so the
    error-free makespan is exactly the critical path — the seed of choice
    when communication (checkpointing) is cheap.
    """
    (order,) = candidate_orders(dag, "lexicographic")
    assignment = {v: i for i, v in enumerate(order)}
    return ParallelSchedule(dag, processors, order, assignment)


# ----------------------------------------------------------------------
# the (assignment, order) objective
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ParallelPricing:
    """Full pricing of one state: the per-worker schedules and durations
    behind its surrogate ``value`` (see :class:`ParallelObjective`)."""

    value: float
    worker_schedules: tuple[Schedule | None, ...]
    epoch_durations: tuple[tuple[float, ...], ...]

    @property
    def worker_busy(self) -> tuple[float, ...]:
        """Expected busy (failure-inclusive, wait-free) time per worker."""
        return tuple(float(sum(d)) for d in self.epoch_durations)


class ParallelObjective:
    """Surrogate expected-makespan objective with interval-DP memoization.

    A state is priced in four memoized layers: each worker's
    inter-boundary *interval* is an independent chain-DP solve
    (:meth:`~repro.core.costs.CostProfile.with_boundary_recovery` prices
    intervals opening at a commit boundary), whole workers memoize their
    epoch-duration vectors, and the final fold is a critical-path
    recursion of expected durations over the epoch graph — a Jensen
    lower bound on the true expected makespan (``E[max] >= max of E``),
    exact whenever one worker's chain dominates every replication.  The
    edges are fixed, so the value depends only on the state's *layout*,
    its per-worker task sequences, and a worker's epochs only on its own
    sequence: a layout memo answers a state that reorders tasks of
    different workers with no placement, key lookup or fold, and a
    placement memo gives each worker sequence placed before its cut
    flags and worker memo key — every worker a move leaves unchanged,
    because the state the move started at was placed.  Counters expose
    the solve/hit rates for diagnostics and benches.

    :meth:`values` prices a list of states at once and :meth:`value` is
    its one-state call; both leave the memos and counters a loop of
    one-state calls would.  :meth:`price` adds the worker schedules.
    """

    def __init__(
        self,
        dag: WorkflowDAG,
        platform: Platform,
        processors: int,
        *,
        algorithm: str = "admv",
    ) -> None:
        if processors < 1:
            raise InvalidParameterError(
                f"processors must be >= 1, got {processors}"
            )
        self.dag = dag
        self.platform = platform
        self.processors = int(processors)
        self.algorithm = algorithm
        self.heterogeneous = dag.has_heterogeneous_costs()
        # per task number: weights, cost multipliers (None when uniform)
        # and their bytes, from which the memo keys are joined
        nodes = dag.graph.nodes
        self._weights = np.array([float(dag.weight(v)) for v in nodes])
        self._weight_bytes = [w.tobytes() for w in self._weights]
        self._mults = (
            np.array([float(dag.cost_multiplier(v)) for v in nodes])
            if self.heterogeneous
            else None
        )
        self._mult_bytes = (
            None if self._mults is None else [m.tobytes() for m in self._mults]
        )
        # the (RD, RM) of an interval opening after each task
        scales = [1.0] * len(nodes) if self._mults is None else self._mults.tolist()
        self._recovery = [
            (float(platform.RD) * scale, float(platform.RM) * scale)
            for scale in scales
        ]
        self._unit_costs = np.array(
            [getattr(platform, name) for name in COST_NAMES], dtype=np.float64
        )
        self._intervals: dict[tuple, tuple[float, tuple[int, ...]]] = {}
        self._workers: dict[tuple, tuple[tuple[float, ...], tuple[int, ...]]] = {}
        self._values: dict[tuple, float] = {}
        self._layouts: dict[tuple, float] = {}
        # worker sequence -> its epoch-opening flags and worker memo key
        self._placements: dict[tuple[int, ...], _Placement] = {}
        # Same discipline as ChainObjective: a private live registry,
        # which the result fields read through the merged snapshot.
        self.metrics = MetricsRegistry()
        self._c_interval_solves = self.metrics.counter("parallel.interval.solves")
        self._c_interval_hits = self.metrics.counter("parallel.interval.hits")
        self._c_worker_priced = self.metrics.counter("parallel.worker.priced")
        self._c_worker_hits = self.metrics.counter("parallel.worker.hits")
        self._c_state_priced = self.metrics.counter("parallel.state.priced")
        self._c_state_hits = self.metrics.counter("parallel.state.hits")
        self._c_layout_priced = self.metrics.counter("pricing.layout.priced")
        self._c_layout_hits = self.metrics.counter("pricing.layout.hits")
        self._c_placement_priced = self.metrics.counter("pricing.placement.priced")
        self._c_placement_hits = self.metrics.counter("pricing.placement.hits")

    @property
    def interval_solves(self) -> int:
        return self._c_interval_solves.value

    # -- pricing -------------------------------------------------------
    def _place(
        self,
        layout: tuple[tuple[int, ...], ...],
        placed: dict[tuple[int, ...], _Placement],
        workers: dict[tuple, tuple[tuple, ...]],
        intervals: dict[tuple, tuple[tuple[int, ...], float, float]],
    ) -> list[_Placement | None]:
        """Each worker's placement in ``layout`` (``None`` for an idle one).

        A sequence in the placement memo or in ``placed`` (those placed
        earlier in the same batch) is reused; its worker key is a worker
        memo hit, as it was when the sequence was placed.  A new one is
        cut, keyed and added to ``placed``, and its worker looked up.
        """
        entries: list[_Placement | None] = []
        hits = 0
        for seq in layout:
            if not seq:
                entries.append(None)
                continue
            entry = self._placements.get(seq) or placed.get(seq)
            if entry is None:
                flags, boundaries = _cuts(self.dag.graph, seq)
                key = (
                    b"".join([self._weight_bytes[i] for i in seq]),
                    None
                    if self._mult_bytes is None
                    else b"".join([self._mult_bytes[i] for i in seq]),
                    boundaries,
                )
                entry = placed[seq] = (flags, key)
                self._lookup(seq, key, workers, intervals)
            else:
                hits += 1
            entries.append(entry)
        self._c_placement_hits.inc(hits)
        self._c_worker_hits.inc(hits)
        return entries

    def _lookup(
        self,
        seq: Sequence[int],
        key: tuple,
        workers: dict[tuple, tuple[tuple, ...]],
        intervals: dict[tuple, tuple[tuple[int, ...], float, float]],
    ) -> None:
        """Look the worker ``key`` of ``seq`` up in the worker memo.

        A worker missing from the memo and from ``workers`` (those priced
        earlier in the same batch) is added to ``workers`` with its
        interval keys, and each interval missing from the memo and from
        ``intervals`` to ``intervals`` with its tasks and boundary
        recovery costs.  Hits count as in a one-state-at-a-time loop.
        """
        if key in self._workers or key in workers:
            self._c_worker_hits.inc()
            return
        wbytes, mbytes, boundaries = key
        interval_keys = []
        interval_hits = 0
        lo, recovery = 0, (0.0, 0.0)
        for hi in boundaries + (len(seq),):
            ikey = (
                wbytes[8 * lo : 8 * hi],
                None if mbytes is None else mbytes[8 * lo : 8 * hi],
                *recovery,
            )
            interval_keys.append(ikey)
            if ikey in self._intervals or ikey in intervals:
                interval_hits += 1
            else:
                intervals[ikey] = (seq[lo:hi], *recovery)
            lo, recovery = hi, self._recovery[seq[hi - 1]]
        workers[key] = tuple(interval_keys)
        self._c_interval_hits.inc(interval_hits)

    def _price(
        self,
        placed: dict[tuple[int, ...], _Placement],
        workers: dict[tuple, tuple[tuple, ...]],
        intervals: dict[tuple, tuple[tuple[int, ...], float, float]],
    ) -> None:
        """Solve ``intervals`` and memoize them, ``workers`` and ``placed``.

        The intervals are solved sorted by length, in
        :func:`~repro.core.solver.optimize_batch` calls of at most
        :data:`INTERVAL_CHUNK` rows, so a short interval is not padded to
        the longest of a large batch, nor more than
        :func:`~repro.dag.search.dp_rows` allows for the longest.
        """
        if intervals:
            ikeys = sorted(intervals, key=lambda ikey: len(intervals[ikey][0]))
            n_max = len(intervals[ikeys[-1]][0])
            with _span("parallel.price_intervals", k=len(ikeys), n_max=n_max):
                rows = min(INTERVAL_CHUNK, dp_rows(n_max))
                for lo in range(0, len(ikeys), rows):
                    self._solve_intervals(ikeys[lo : lo + rows], intervals)
        self._c_interval_solves.inc(len(intervals))
        for key, interval_keys in workers.items():
            durations, levels = zip(*map(self._intervals.__getitem__, interval_keys))
            self._workers[key] = (durations, tuple(chain.from_iterable(levels)))
        self._c_worker_priced.inc(len(workers))
        self._placements.update(placed)
        self._c_placement_priced.inc(len(placed))

    def _solve_intervals(
        self,
        ikeys: list[tuple],
        intervals: dict[tuple, tuple[tuple[int, ...], float, float]],
    ) -> None:
        """Solve the intervals ``ikeys`` in one batched DP call."""
        tasks = [list(intervals[ikey][0]) for ikey in ikeys]
        n_max = max(len(row) for row in tasks)
        # the rows of CostProfile.scaled(platform, multipliers) (or
        # .uniform) with_boundary_recovery(rd0, rm0), stacked and zero
        # past each interval's length
        costs = np.zeros((len(ikeys), 6, n_max + 1))
        for row, seq in zip(costs, tasks):
            row[:, 1 : len(seq) + 1] = (
                self._unit_costs[:, None]
                if self._mults is None
                else self._unit_costs[:, None] * self._mults[seq]
            )
        costs[:, 2:4, 0] = [intervals[ikey][1:] for ikey in ikeys]
        solutions = optimize_batch(
            [self._weights[seq] for seq in tasks],
            self.platform,
            self.algorithm,
            costs=costs,
        )
        for ikey, solution in zip(ikeys, solutions):
            levels = tuple(int(a) for a in solution.schedule.levels_array())
            if levels[-1] != int(Action.DISK):
                # The chain DP always disk-checkpoints the end; the
                # commit protocol relies on it (the boundary checkpoint
                # *is* the interval's final disk checkpoint).  Enforce,
                # don't assume.
                levels = levels[:-1] + (int(Action.DISK),)
            self._intervals[ikey] = (float(solution.expected_time), levels)

    def _fold_inputs(
        self, entries: list[_Placement | None]
    ) -> tuple[list[tuple[bool, ...]], list[tuple[float, ...]]]:
        """Each worker's epoch-opening flags and expected epoch durations."""
        return (
            [() if e is None else e[0] for e in entries],
            [() if e is None else self._workers[e[1]][0] for e in entries],
        )

    def price(self, state: ParallelSchedule) -> ParallelPricing:
        """Schedules, epoch durations and surrogate value of ``state``."""
        key = state.key()
        numbers, seqs = _sequences(self.dag.graph, self.processors, key)
        placed: dict[tuple[int, ...], _Placement] = {}
        workers: dict[tuple, tuple[tuple, ...]] = {}
        intervals: dict[tuple, tuple[tuple[int, ...], float, float]] = {}
        entries = self._place(tuple(map(tuple, seqs)), placed, workers, intervals)
        self._price(placed, workers, intervals)
        flags, durations = self._fold_inputs(entries)
        return ParallelPricing(
            value=_fold(self.dag.graph, numbers, key[1], flags, durations),
            worker_schedules=tuple(
                None if e is None else Schedule(self._workers[e[1]][1])
                for e in entries
            ),
            epoch_durations=tuple(durations),
        )

    def values(self, states: Sequence[ParallelSchedule]) -> list[float]:
        """Surrogate expected makespans of ``states`` (memoized).

        Prices a whole neighbourhood at once.  Each state not in the state
        memo gets its layout; a layout already priced (or new earlier in
        the batch) answers it, and its workers count as worker memo hits,
        as a full pass would find them.  The workers of a new layout are
        placed (or found in the placement memo) and looked up (a worker or
        interval repeated inside the batch counts as a hit), one batched
        DP call solves every interval missing, and one fold prices each
        new layout.  Values, memos and counters equal those of
        ``[value(s) for s in states]``.
        """
        keys = [state.key() for state in states]
        fresh: dict[tuple, tuple] = {}  # state key -> its layout
        # the layouts new to the memo: global order, workers, placements
        layouts: dict[tuple, tuple[list[int], tuple, list]] = {}
        placed: dict[tuple[int, ...], _Placement] = {}
        workers: dict[tuple, tuple[tuple, ...]] = {}
        intervals: dict[tuple, tuple[tuple[int, ...], float, float]] = {}
        layout_hits = worker_hits = 0
        with _span("parallel.place", states=len(keys)):
            for key in keys:
                if key in self._values or key in fresh:
                    continue
                numbers, seqs = _sequences(self.dag.graph, self.processors, key)
                layout = fresh[key] = tuple(map(tuple, seqs))
                if layout in self._layouts or layout in layouts:
                    layout_hits += 1
                    worker_hits += len(seqs) - seqs.count([])
                    continue
                layouts[layout] = (
                    numbers,
                    key[1],
                    self._place(layout, placed, workers, intervals),
                )
        self._c_worker_hits.inc(worker_hits)
        self._price(placed, workers, intervals)
        with _span("parallel.fold", layouts=len(layouts)):
            for layout, (numbers, at, entries) in layouts.items():
                self._layouts[layout] = _fold(
                    self.dag.graph, numbers, at, *self._fold_inputs(entries)
                )
        for key, layout in fresh.items():
            self._values[key] = self._layouts[layout]
        self._c_state_priced.inc(len(fresh))
        self._c_state_hits.inc(len(keys) - len(fresh))
        self._c_layout_priced.inc(len(layouts))
        self._c_layout_hits.inc(layout_hits)
        return [self._values[key] for key in keys]

    def value(self, state: ParallelSchedule) -> float:
        """Surrogate expected makespan of ``state`` (memoized)."""
        return self.values((state,))[0]

    # -- the local-search protocol (repro.dag.local_search) ------------
    def score(self, states: Sequence[ParallelSchedule]) -> list[tuple[float, None]]:
        return [(value, None) for value in self.values(states)]

    def neighbors(self, state: ParallelSchedule, rng) -> list[ParallelSchedule]:
        cap = neighbor_cap(len(state.order))
        moves = parallel_neighborhood(
            state, rng=rng, max_reinsertions=cap, max_reassignments=cap
        )
        return [cand for cand, _ in moves]

    def random_neighbor(self, state: ParallelSchedule, rng) -> ParallelSchedule | None:
        picked = random_parallel_neighbor(state, rng)
        return None if picked is None else picked[0]

    def screen(self, rounds) -> list[list[float]]:
        """Every round's neighbourhood, priced in one :meth:`values` call."""
        values = self.values([state for states, _ in rounds for state in states])
        out, at = [], 0
        for states, _ in rounds:
            out.append(values[at : at + len(states)])
            at += len(states)
        return out

    def confirm(self, states, screened: Sequence[float]) -> list[tuple[float, None]]:
        return [(value, None) for value in screened]


# ----------------------------------------------------------------------
# moves
# ----------------------------------------------------------------------
def parallel_neighborhood(
    state: ParallelSchedule,
    *,
    rng: np.random.Generator | None = None,
    max_reinsertions: int | None = None,
    max_reassignments: int | None = None,
) -> Iterator[tuple[ParallelSchedule, tuple]]:
    """Yield ``(neighbor, move)`` pairs around ``state``.

    Order moves first — every move of :func:`repro.dag.search.
    neighborhood` applied with the assignment carried along — then
    reassignment moves ``("assign", task, worker)`` relocating one task
    to each other worker, optionally subsampled to
    ``max_reassignments`` (``rng`` required, as for order moves).
    """
    for order, move in neighborhood(
        state.dag, list(state.order), rng=rng, max_reinsertions=max_reinsertions
    ):
        yield state.with_order(order), ("order",) + move
    if state.processors == 1:
        return
    moves = [
        (v, w)
        for v in state.order
        for w in range(state.processors)
        if w != state.assignment[v]
    ]
    for v, w in subsample(moves, max_reassignments, rng, "max_reassignments"):
        yield state.with_worker(v, w), ("assign", v, w)


def random_parallel_neighbor(
    state: ParallelSchedule,
    rng: np.random.Generator,
) -> tuple[ParallelSchedule, tuple] | None:
    """One uniformly-drawn feasible move (``None`` iff the state is rigid):
    a reassignment or an order move, with equal probability; a rigid
    order falls back to a reassignment."""
    picked = None
    if state.processors == 1 or rng.random() >= 0.5:
        picked = random_neighbor(state.dag, list(state.order), rng)
        if picked is None and state.processors == 1:
            return None
    if picked is None:
        v = state.order[int(rng.integers(len(state.order)))]
        choices = [w for w in range(state.processors) if w != state.assignment[v]]
        w = int(choices[int(rng.integers(len(choices)))])
        return state.with_worker(v, w), ("assign", v, w)
    order, move = picked
    return state.with_order(order), ("order",) + move


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ParallelSolution:
    """The winning p-processor schedule with its per-worker placements.

    ``expected_time`` is the *surrogate* analytic value — per-worker
    expected busy durations folded by a critical-path recursion over the
    epoch graph; a lower bound on the true expected makespan (exact at
    ``processors=1``), which :func:`~repro.simulation.parallel.
    simulate_parallel` on :meth:`plan` estimates to any precision.
    """

    dag: WorkflowDAG
    platform: Platform
    processors: int
    algorithm: str
    order: tuple[Hashable, ...]
    assignment: dict[Hashable, int]
    worker_orders: tuple[tuple[Hashable, ...], ...]
    worker_schedules: tuple[Schedule | None, ...]
    epoch_durations: tuple[tuple[float, ...], ...]
    expected_time: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def worker_busy(self) -> tuple[float, ...]:
        """Expected busy (failure-inclusive, wait-free) time per worker."""
        return tuple(float(sum(d)) for d in self.epoch_durations)

    def state(self) -> ParallelSchedule:
        """The (order, assignment) pair as a search state."""
        return ParallelSchedule(
            self.dag, self.processors, self.order, self.assignment
        )

    def plan(self) -> ParallelPlan:
        """The executable :class:`~repro.simulation.parallel.ParallelPlan`."""
        layout = self.state().layout()
        workers: list[WorkerPlan | None] = []
        for w in range(self.processors):
            nodes = layout.worker_orders[w]
            if not nodes:
                workers.append(None)
                continue
            weights = [float(self.dag.weight(v)) for v in nodes]
            costs = None
            if self.dag.has_heterogeneous_costs():
                costs = CostProfile.scaled(
                    self.platform,
                    [float(self.dag.cost_multiplier(v)) for v in nodes],
                )
            workers.append(
                WorkerPlan(
                    chain=TaskChain(weights, name=f"{self.dag.name}-w{w}"),
                    schedule=self.worker_schedules[w],
                    boundaries=layout.boundaries[w],
                    costs=costs,
                )
            )
        return ParallelPlan(workers=tuple(workers), deps=layout.deps)

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        busy = self.worker_busy
        lines = [
            f"parallel schedule of {self.dag.name!r} on "
            f"{self.processors} worker(s): surrogate E[T] = "
            f"{self.expected_time:.2f}s",
        ]
        for w in range(self.processors):
            nodes = self.worker_orders[w]
            if not nodes:
                lines.append(f"  w{w}: idle")
                continue
            lines.append(
                f"  w{w}: {len(nodes)} task(s), "
                f"{len(self.epoch_durations[w])} epoch(s), "
                f"busy {busy[w]:.2f}s"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class ParallelSearchResult:
    """Outcome of :func:`search_parallel` with its work accounting."""

    solution: ParallelSolution
    method: str
    seed: int
    algorithm: str
    processors: int
    starts: int  #: list-schedule + random starting states explored
    rounds: int  #: hill-climb improvement rounds (plus SA acceptances)
    states_priced: int  #: distinct (assignment, order) states priced
    state_cache_hits: int
    interval_solves: int  #: chain-DP interval solves
    interval_cache_hits: int
    start_values: dict[str, float] = field(default_factory=dict)
    #: The objective's metric snapshot; the int fields above are views
    #: into its counters.
    metrics: MetricsSnapshot | None = None

    @property
    def expected_time(self) -> float:
        return self.solution.expected_time

    def summary(self) -> str:
        return "\n".join(
            [
                f"parallel search ({self.method}, seed {self.seed}, "
                f"p={self.processors}) over {self.starts} starts: "
                f"E[T] >= {self.expected_time:.2f}s (surrogate)",
                f"  states priced: {self.states_priced} "
                f"({self.interval_solves} interval DP solves, "
                f"{self.interval_cache_hits} interval cache hits, "
                f"{self.state_cache_hits} state cache hits)",
            ]
        )


# ----------------------------------------------------------------------
# the top-level drivers
# ----------------------------------------------------------------------
def _start_states(
    dag: WorkflowDAG,
    processors: int,
    restarts: int,
    rng: np.random.Generator,
) -> list[tuple[str, ParallelSchedule]]:
    """The chain search's start orders, each on its greedy assignment,
    plus the one-task-per-worker seed when ``processors >= n``; a state
    equal to an earlier one is dropped."""
    states: list[tuple[str, ParallelSchedule]] = []
    for label, order in start_orders(dag, restarts, rng):
        assignment = greedy_assignment(dag, order, processors)
        state = ParallelSchedule(dag, processors, order, assignment, _validate=False)
        states.append((label, state))
    if processors >= dag.n:  # after the heuristic orders, before the random ones
        dedicated = ("dedicated", _dedicated_schedule(dag, processors))
        states.insert(len(states) - max(0, restarts), dedicated)
    starts: dict[tuple, tuple[str, ParallelSchedule]] = {}
    for label, state in states:
        starts.setdefault(state.key(), (label, state))
    return list(starts.values())


def search_parallel(
    dag: WorkflowDAG,
    platform: Platform,
    processors: int,
    *,
    algorithm: str = "admv",
    method: str = "hill_climb",
    seed: int = 0,
    restarts: int = 2,
    iterations: int = 400,
    max_rounds: int = 60,
) -> ParallelSearchResult:
    """Best (assignment, order) pair found by metaheuristic search.

    The p-processor generalisation of :func:`repro.dag.search.
    search_order`: starts are priority-rule list schedules (every
    heuristic order of :func:`~repro.dag.linearize.candidate_orders`
    through the greedy forward pass, plus a one-task-per-worker seed
    when ``processors >= n`` and ``restarts`` random orders), each
    climbed under :class:`ParallelObjective` with (assignment, order)
    moves.  ``method`` follows the chain search (``"hill_climb"`` or
    ``"anneal"``).

    Seeding matches the chain search: every random choice descends from
    ``seed`` through spawned ``SeedSequence`` children, one per start, so
    the result is reproducible for a fixed ``seed``.
    """
    objective = ParallelObjective(dag, platform, processors, algorithm=algorithm)

    ss_starts, ss_climbs = np.random.SeedSequence(seed).spawn(2)
    starts = _start_states(
        dag, processors, restarts, np.random.default_rng(ss_starts)
    )
    objective.metrics.counter("search.restarts").inc(max(0, restarts))
    search = multistart(
        objective,
        starts,
        ss_climbs.spawn(len(starts)),
        method=method,
        iterations=iterations,
        max_rounds=max_rounds,
    )
    best_state, best_value = search.best.state, search.best.value

    pricing = objective.price(best_state)
    # taken after the final pricing so its (cache-hit) accounting is
    # included
    merged = search.publish()
    logger.debug(
        "search_parallel done: dag=%s p=%d method=%s seed=%d value=%.6g "
        "states=%d intervals=%d",
        dag.name,
        processors,
        method,
        seed,
        best_value,
        merged.counter("parallel.state.priced"),
        merged.counter("parallel.interval.solves"),
    )
    layout = best_state.layout()
    solution = ParallelSolution(
        dag=dag,
        platform=platform,
        processors=processors,
        algorithm=objective.algorithm,
        order=best_state.order,
        assignment=dict(best_state.assignment),
        worker_orders=layout.worker_orders,
        worker_schedules=pricing.worker_schedules,
        epoch_durations=pricing.epoch_durations,
        expected_time=pricing.value,
        diagnostics=dict(
            search_method=method,
            search_seed=seed,
            search_starts=len(starts),
        ),
    )
    return ParallelSearchResult(
        solution=solution,
        method=method,
        seed=seed,
        algorithm=objective.algorithm,
        processors=processors,
        starts=len(starts),
        rounds=search.rounds,
        states_priced=merged.counter("parallel.state.priced"),
        state_cache_hits=merged.counter("parallel.state.hits"),
        interval_solves=merged.counter("parallel.interval.solves"),
        interval_cache_hits=merged.counter("parallel.interval.hits"),
        start_values=search.start_values,
        metrics=merged,
    )


def optimize_parallel(
    dag: WorkflowDAG,
    platform: Platform,
    processors: int,
    *,
    algorithm: str = "admv",
    seed: int = 0,
    search_options: dict | None = None,
) -> ParallelSolution:
    """Best p-processor (assignment, order, checkpoint) schedule found.

    Thin wrapper over :func:`search_parallel` returning its
    :class:`ParallelSolution`; ``search_options`` are passed through
    (``method``, ``restarts``, ``iterations``, …).
    """
    return search_parallel(
        dag,
        platform,
        processors,
        algorithm=algorithm,
        seed=seed,
        **(search_options or {}),
    ).solution
