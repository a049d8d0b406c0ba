"""Multi-worker failure simulation: p processors under a commit protocol.

A :class:`ParallelPlan` describes one p-processor execution of a workflow:
each worker runs its own task chain under its own two-level checkpointing
schedule, and cross-worker data dependencies are exchanged through *commit
boundaries* — disk-checkpointed positions of the producing worker's chain.
The protocol (built by :mod:`repro.dag.parallel`) forces a disk checkpoint
after every task whose output another worker consumes, and right before
every task that consumes remote data, which divides each worker's chain
into *epochs*:

* within an epoch the worker runs the ordinary two-level protocol of the
  scalar/batched engines — fail-stop rollbacks to the last disk
  checkpoint, silent-error rollbacks to the last memory checkpoint;
* a rollback never crosses a commit boundary: the boundary stores a disk
  checkpoint, and disk checkpoints are only stored after a *clean*
  guaranteed verification, so committed data is final and correct;
* an epoch whose first task consumes remote data stalls until every
  producing worker's epoch has committed — so a worker hit by failures
  transparently stalls its consumers, while waiting itself is failure-free
  (no work is executing).

Because waiting is failure-free and rollbacks never cross boundaries, each
worker's *busy trajectory* (the sequence of attempts, errors and commit
instants on its own clock) is completely independent of the other workers.
That is what makes the oracle-grade decomposition possible:

1. every worker is simulated with the existing single-chain kernels
   (:func:`~repro.simulation.batch.run_compiled` batched, or the trusted
   scalar :func:`~repro.simulation.engine.simulate_run`), on its *own*
   host-drawn uniform stream (see :func:`worker_uniform_rows`);
2. the wall-clock composition — epoch start = max(own previous epoch end,
   producers' commit instants); epoch end = start + busy epoch duration —
   is a deterministic fold over the acyclic epoch graph.

:func:`simulate_parallel` runs step 1 with the batched kernel (the kernel
stamps each replication's boundary-crossing times via ``commit_stops``)
and step 2 vectorized over replications; :func:`simulate_parallel_run`
is the scalar oracle, doing both steps with the scalar engine and the
same float operations — the test suite replays batched campaigns
worker-by-worker against it and asserts *bitwise* equality.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidParameterError, InvalidScheduleError, SimulationError
from ..chains import TaskChain
from ..obs import metrics as _metrics, span as _span
from ..platforms import Platform
from ..core.costs import CostProfile
from ..core.schedule import Action, Schedule
from .backend import get_backend
from .batch import (
    DEFAULT_CHUNK_SIZE,
    BatchResult,
    _replay_rows,
    _run_chunks,
    run_compiled,
)
from .compile import CompiledSchedule, compile_schedule
from .engine import DEFAULT_MAX_ATTEMPTS, RunResult, simulate_run
from .errors import ErrorSource
from .trace import EventKind

__all__ = [
    "WorkerPlan",
    "ParallelPlan",
    "ParallelRunResult",
    "ParallelBatchResult",
    "simulate_parallel_run",
    "simulate_parallel",
    "worker_uniform_rows",
]


@dataclass(frozen=True)
class WorkerPlan:
    """One worker's share of a :class:`ParallelPlan`.

    Attributes
    ----------
    chain:
        The worker's tasks, in execution order, as a linear chain.
    schedule:
        Two-level checkpointing schedule over that chain.  Every interior
        commit boundary must carry :data:`~repro.core.schedule.Action.DISK`.
    boundaries:
        Strictly increasing interior positions (``1 <= b < chain.n``) at
        which the worker commits data for other workers (or waits for
        remote data committed by them).  The chain end is always an
        implicit final boundary, so a worker with ``k`` interior
        boundaries runs ``k + 1`` epochs.
    costs:
        Optional heterogeneous per-task cost profile (None = uniform
        platform costs), as in the single-chain engines.
    """

    chain: TaskChain
    schedule: Schedule
    boundaries: tuple[int, ...] = ()
    costs: CostProfile | None = None

    @property
    def n_epochs(self) -> int:
        return len(self.boundaries) + 1

    def validate(self) -> None:
        if self.schedule.n != self.chain.n:
            raise InvalidScheduleError(
                f"worker schedule covers {self.schedule.n} tasks but its "
                f"chain has {self.chain.n}"
            )
        prev = 0
        for b in self.boundaries:
            if not prev < b < self.chain.n:
                raise InvalidScheduleError(
                    f"commit boundaries must be strictly increasing interior "
                    f"positions, got {self.boundaries} on a "
                    f"{self.chain.n}-task chain"
                )
            if self.schedule.action(b) != Action.DISK:
                raise InvalidScheduleError(
                    f"commit boundary T{b} must store a disk checkpoint "
                    f"(got {self.schedule.action(b).name})"
                )
            prev = b


#: A dependency endpoint: (producer worker index, producer epoch index).
EpochRef = tuple[int, int]


@dataclass(frozen=True)
class ParallelPlan:
    """A complete p-worker execution plan (see module docstring).

    Attributes
    ----------
    workers:
        One :class:`WorkerPlan` per processor; ``None`` marks an idle
        processor (kept so worker indices — and their random streams —
        are stable whatever the assignment).
    deps:
        ``deps[w][e]`` lists the epochs whose commits epoch ``e`` of
        worker ``w`` must wait for, as ``(worker, epoch)`` pairs in the
        (deterministic) order the wall-clock composition folds them.
        Idle workers contribute an empty tuple.
    """

    workers: tuple[WorkerPlan | None, ...]
    deps: tuple[tuple[tuple[EpochRef, ...], ...], ...]

    def __post_init__(self) -> None:
        if not any(w is not None for w in self.workers):
            raise InvalidScheduleError("a parallel plan needs >= 1 busy worker")
        if len(self.deps) != len(self.workers):
            raise InvalidScheduleError(
                f"deps cover {len(self.deps)} workers, plan has "
                f"{len(self.workers)}"
            )
        for w, wp in enumerate(self.workers):
            n_epochs = 0 if wp is None else wp.n_epochs
            if wp is not None:
                wp.validate()
            if len(self.deps[w]) != n_epochs:
                raise InvalidScheduleError(
                    f"worker {w} has {n_epochs} epochs but deps list "
                    f"{len(self.deps[w])}"
                )
            for e, edges in enumerate(self.deps[w]):
                for wu, eu in edges:
                    if not 0 <= wu < len(self.workers) or self.workers[wu] is None:
                        raise InvalidScheduleError(
                            f"epoch ({w}, {e}) depends on idle/unknown "
                            f"worker {wu}"
                        )
                    if not 0 <= eu < self.workers[wu].n_epochs:
                        raise InvalidScheduleError(
                            f"epoch ({w}, {e}) depends on missing epoch "
                            f"({wu}, {eu})"
                        )
                    if wu == w:
                        raise InvalidScheduleError(
                            f"epoch ({w}, {e}) lists a same-worker dependency "
                            "(local sequencing is implicit)"
                        )
        self.epoch_order()  # raises on a cyclic epoch graph

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    def epoch_order(self) -> tuple[EpochRef, ...]:
        """Deterministic topological order of the epoch graph.

        Raises :class:`~repro.exceptions.InvalidScheduleError` if the
        cross-worker dependencies (plus the implicit local sequencing)
        form a cycle — such a plan would deadlock.
        """
        preds: dict[EpochRef, list[EpochRef]] = {}
        for w, wp in enumerate(self.workers):
            if wp is None:
                continue
            for e in range(wp.n_epochs):
                local = [(w, e - 1)] if e > 0 else []
                preds[(w, e)] = local + list(self.deps[w][e])
        indeg = {node: len(ps) for node, ps in preds.items()}
        succs: dict[EpochRef, list[EpochRef]] = {node: [] for node in preds}
        for node, ps in preds.items():
            for p in ps:
                succs[p].append(node)
        ready = [node for node, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order: list[EpochRef] = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for nxt in succs[node]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    heapq.heappush(ready, nxt)
        if len(order) != len(preds):
            raise InvalidScheduleError(
                "cross-worker dependencies form a cycle — the plan deadlocks"
            )
        return tuple(order)


# ----------------------------------------------------------------------
# scalar oracle
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ParallelRunResult:  # repro: allow[RPR005] -- per-run record, reduced pre-export
    """Outcome of one simulated p-worker execution.

    ``worker_results`` holds each busy worker's single-chain
    :class:`~repro.simulation.engine.RunResult` (its *busy* trajectory,
    waits excluded; ``None`` for idle workers); ``worker_finish`` the
    wall-clock completion time of each worker (0 for idle ones);
    ``makespan`` their maximum.
    """

    makespan: float
    worker_finish: tuple[float, ...]
    worker_results: tuple[RunResult | None, ...]

    def _total(self, field: str) -> int:
        return sum(
            getattr(r, field) for r in self.worker_results if r is not None
        )

    @property
    def fail_stop_errors(self) -> int:
        return self._total("fail_stop_errors")

    @property
    def silent_errors(self) -> int:
        return self._total("silent_errors")

    @property
    def silent_detected(self) -> int:
        return self._total("silent_detected")

    @property
    def silent_missed(self) -> int:
        return self._total("silent_missed")

    @property
    def attempts(self) -> int:
        return self._total("attempts")


def _scalar_commit_times(
    wp: WorkerPlan, result: RunResult
) -> tuple[list[float], float]:
    """Extract the boundary commit instants from a traced scalar run."""
    events = result.trace.events
    times: list[float] = []
    for b in wp.boundaries:
        stamp = next(
            (
                ev.time
                for ev in events
                if ev.kind is EventKind.DISK_CHECKPOINT and ev.position == b
            ),
            None,
        )
        if stamp is None:  # pragma: no cover - guarded by WorkerPlan.validate
            raise SimulationError(
                f"no disk checkpoint stored at commit boundary T{b}"
            )
        times.append(stamp)
    return times, result.makespan


def _epoch_windows(
    commit_times: Sequence, busy_end, n_epochs: int
) -> "list[tuple[object, object]]":
    """Per-epoch (busy start, busy end) instants on the worker's own clock.

    Works elementwise for scalars (oracle) and arrays (batched composer)
    alike; epoch ``e`` spans ``commit_times[e-1]`` (or 0) to
    ``commit_times[e]`` (or the busy makespan for the last epoch).
    """
    windows = []
    for e in range(n_epochs):
        lo = 0.0 if e == 0 else commit_times[e - 1]
        hi = busy_end if e == n_epochs - 1 else commit_times[e]
        windows.append((lo, hi))
    return windows


def simulate_parallel_run(
    plan: ParallelPlan,
    platform: Platform,
    error_sources: Sequence[ErrorSource | None],
    *,
    record_trace: bool = False,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> ParallelRunResult:
    """Scalar oracle: simulate one p-worker execution of ``plan``.

    ``error_sources`` supplies one :class:`~repro.simulation.errors.
    ErrorSource` per worker — entries for idle workers may be ``None``.
    **Each busy worker needs its own instance**: a single source shared
    across workers would silently interleave one outcome stream between
    interleaved per-worker simulations (turning e.g. a scripted
    fail-stop meant for worker 0 into one striking worker 1), so sharing
    raises :class:`~repro.exceptions.SimulationError`.  See
    :mod:`repro.simulation.errors` for the per-worker stream convention.
    """
    if len(error_sources) != plan.n_workers:
        raise InvalidParameterError(
            f"plan has {plan.n_workers} workers but {len(error_sources)} "
            "error sources were supplied (pass None for idle workers)"
        )
    busy = [w for w, wp in enumerate(plan.workers) if wp is not None]
    for w in busy:
        if error_sources[w] is None:
            raise InvalidParameterError(
                f"worker {w} is busy but its error source is None"
            )
    seen: dict[int, int] = {}
    for w in busy:
        src = error_sources[w]
        if id(src) in seen:
            raise SimulationError(
                f"workers {seen[id(src)]} and {w} share the same "
                f"{type(src).__name__} instance; each worker consumes its "
                "own outcome stream, so a shared source would silently "
                "interleave outcomes between workers — give every busy "
                "worker its own instance"
            )
        seen[id(src)] = w

    results: list[RunResult | None] = [None] * plan.n_workers
    windows: dict[int, list] = {}
    for w in busy:
        wp = plan.workers[w]
        res = simulate_run(
            wp.chain,
            platform,
            wp.schedule,
            error_sources[w],
            record_trace=True,
            max_attempts=max_attempts,
            costs=wp.costs,
        )
        commits, busy_end = _scalar_commit_times(wp, res)
        windows[w] = _epoch_windows(commits, busy_end, wp.n_epochs)
        results[w] = (
            res
            if record_trace
            else RunResult(
                makespan=res.makespan,
                fail_stop_errors=res.fail_stop_errors,
                silent_errors=res.silent_errors,
                silent_detected=res.silent_detected,
                silent_missed=res.silent_missed,
                attempts=res.attempts,
            )
        )

    # Wall-clock fold over the epoch graph — float-op order mirrors the
    # vectorized composer in simulate_parallel exactly (bitwise contract).
    completion: dict[EpochRef, float] = {}
    for w, e in plan.epoch_order():
        lo, hi = windows[w][e]
        start = completion[(w, e - 1)] if e > 0 else 0.0
        for dep in plan.deps[w][e]:
            start = max(start, completion[dep])
        completion[(w, e)] = start + (hi - lo)
    finish = tuple(
        completion[(w, plan.workers[w].n_epochs - 1)] if w in windows else 0.0
        for w in range(plan.n_workers)
    )
    return ParallelRunResult(
        makespan=max(finish[w] for w in busy),
        worker_finish=finish,
        worker_results=tuple(results),
    )


# ----------------------------------------------------------------------
# batched engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ParallelBatchResult:  # repro: allow[RPR005] -- array carrier, reduced pre-export
    """Per-replication outcome arrays of one batched p-worker campaign.

    ``makespans`` is the wall-clock completion of each replication;
    ``worker_finish`` (shape ``(n_workers, n_runs)``) each worker's
    wall-clock completion; ``worker_results`` each busy worker's
    single-chain :class:`~repro.simulation.batch.BatchResult` (busy
    trajectories — their ``makespans`` are busy times, waits excluded).
    """

    makespans: np.ndarray
    worker_finish: np.ndarray
    worker_results: tuple[BatchResult | None, ...]
    steps: int

    @property
    def n_runs(self) -> int:
        return int(self.makespans.size)

    @property
    def n_workers(self) -> int:
        return len(self.worker_results)

    def _total(self, field: str) -> np.ndarray:
        rows = [
            getattr(r, field) for r in self.worker_results if r is not None
        ]
        return np.sum(rows, axis=0)

    @property
    def fail_stop_errors(self) -> np.ndarray:
        return self._total("fail_stop_errors")

    @property
    def silent_errors(self) -> np.ndarray:
        return self._total("silent_errors")

    @property
    def silent_detected(self) -> np.ndarray:
        return self._total("silent_detected")

    @property
    def silent_missed(self) -> np.ndarray:
        return self._total("silent_missed")

    @property
    def attempts(self) -> np.ndarray:
        return self._total("attempts")

    @classmethod
    def concatenate(cls, parts: list["ParallelBatchResult"]) -> "ParallelBatchResult":
        """Stitch per-chunk results back into one batch, in chunk order."""
        n_workers = parts[0].n_workers
        workers: list[BatchResult | None] = []
        for w in range(n_workers):
            if parts[0].worker_results[w] is None:
                workers.append(None)
            else:
                workers.append(
                    BatchResult.concatenate([p.worker_results[w] for p in parts])
                )
        return cls(
            makespans=np.concatenate([p.makespans for p in parts]),
            worker_finish=np.concatenate(
                [p.worker_finish for p in parts], axis=1
            ),
            worker_results=tuple(workers),
            steps=max(p.steps for p in parts),
        )


@dataclass(frozen=True)
class _CompiledWorker:
    compiled: CompiledSchedule
    commit_segments: tuple[int, ...]  #: segment cursor per commit boundary
    n_epochs: int


@dataclass(frozen=True)
class _CompiledPlan:
    workers: tuple[_CompiledWorker | None, ...]
    deps: tuple[tuple[tuple[EpochRef, ...], ...], ...]
    epoch_order: tuple[EpochRef, ...]


def _compile_plan(plan: ParallelPlan, platform: Platform) -> _CompiledPlan:
    workers: list[_CompiledWorker | None] = []
    for wp in plan.workers:
        if wp is None:
            workers.append(None)
            continue
        compiled = compile_schedule(wp.chain, platform, wp.schedule, wp.costs)
        stops = [int(s) for s in np.asarray(compiled.stops)]
        stop_index = {pos: j for j, pos in enumerate(stops)}
        try:
            segments = tuple(stop_index[b] for b in wp.boundaries)
        except KeyError as exc:  # pragma: no cover - WorkerPlan.validate
            raise InvalidScheduleError(
                f"commit boundary T{exc.args[0]} is not a verified stop"
            ) from exc
        workers.append(_CompiledWorker(compiled, segments, wp.n_epochs))
    return _CompiledPlan(
        workers=tuple(workers), deps=plan.deps, epoch_order=plan.epoch_order()
    )


def _compose(
    cplan: _CompiledPlan,
    commit_times: "list[np.ndarray | None]",
    busy_ends: "list[np.ndarray | None]",
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized wall-clock fold (same float ops as the scalar oracle)."""
    windows: dict[int, list] = {}
    for w, cw in enumerate(cplan.workers):
        if cw is None:
            continue
        commits = [] if commit_times[w] is None else list(commit_times[w])
        windows[w] = _epoch_windows(commits, busy_ends[w], cw.n_epochs)
    completion: dict[EpochRef, np.ndarray] = {}
    zeros = np.zeros(n, dtype=np.float64)
    for w, e in cplan.epoch_order:
        lo, hi = windows[w][e]
        start = completion[(w, e - 1)] if e > 0 else zeros
        for dep in cplan.deps[w][e]:
            start = np.maximum(start, completion[dep])
        completion[(w, e)] = start + (hi - lo)
    worker_finish = np.zeros((len(cplan.workers), n), dtype=np.float64)
    makespans = None
    for w, cw in enumerate(cplan.workers):
        if cw is None:
            continue
        fin = completion[(w, cw.n_epochs - 1)]
        worker_finish[w] = fin
        makespans = fin if makespans is None else np.maximum(makespans, fin)
    return np.asarray(makespans, dtype=np.float64), worker_finish


def _run_parallel_chunk(
    cplan: _CompiledPlan,
    child: np.random.SeedSequence,
    n: int,
    max_attempts: int,
    backend: str,
) -> ParallelBatchResult:
    """Chunk entry point (module-level so it pickles for ``n_jobs``).

    Spawns one child stream per worker slot — idle workers included, so a
    worker's stream depends only on its index, never on which other
    workers happen to be busy.
    """
    worker_seeds = child.spawn(len(cplan.workers))
    results: list[BatchResult | None] = [None] * len(cplan.workers)
    commit_times: list[np.ndarray | None] = [None] * len(cplan.workers)
    busy_ends: list[np.ndarray | None] = [None] * len(cplan.workers)
    steps = 0
    for w, cw in enumerate(cplan.workers):
        if cw is None:
            continue
        res = run_compiled(
            cw.compiled,
            n,
            np.random.default_rng(worker_seeds[w]),
            max_attempts,
            backend,
            commit_stops=list(cw.commit_segments) or None,
        )
        results[w] = res
        commit_times[w] = res.commit_times
        busy_ends[w] = res.makespans
        steps = max(steps, res.steps)
    makespans, worker_finish = _compose(cplan, commit_times, busy_ends, n)
    return ParallelBatchResult(
        makespans=makespans,
        worker_finish=worker_finish,
        worker_results=tuple(results),
        steps=steps,
    )


def simulate_parallel(
    plan: ParallelPlan,
    platform: Platform,
    n_runs: int,
    *,
    seed: int | np.random.SeedSequence | None = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    n_jobs: int | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    backend: str | None = None,
) -> ParallelBatchResult:
    """Simulate ``n_runs`` p-worker executions of ``plan`` in batches.

    Seeding discipline extends :func:`~repro.simulation.batch.
    simulate_batch` one level: chunk ``c`` still draws from the ``c``-th
    child of the campaign ``SeedSequence``, and each chunk child spawns
    one grandchild *per worker slot* (idle slots included).  Worker ``w``
    of chunk ``c`` therefore consumes a stream determined only by
    ``(seed, n_runs, chunk_size, w)`` — bit-identical whatever ``n_jobs``
    or the execution ``backend`` is, and regenerable replication-by-
    replication with :func:`worker_uniform_rows` for scalar replay.
    """
    if n_runs < 1:
        raise InvalidParameterError(f"n_runs must be >= 1, got {n_runs}")
    if chunk_size < 1:
        raise InvalidParameterError(f"chunk_size must be >= 1, got {chunk_size}")
    name = get_backend(backend).name  # resolve (and fail) before any work
    cplan = _compile_plan(plan, platform)
    n_busy = sum(1 for cw in cplan.workers if cw is not None)
    with _span(
        "sim.parallel", n_runs=n_runs, workers=n_busy, n_jobs=n_jobs or 1
    ) as sp:
        parts = _run_chunks(
            _run_parallel_chunk,
            cplan,
            seed,
            n_runs,
            chunk_size,
            max_attempts,
            name,
            n_jobs,
        )
        sp.set(chunks=len(parts))
    result = parts[0] if len(parts) == 1 else ParallelBatchResult.concatenate(parts)
    reg = _metrics()
    if reg.enabled:
        # Host-side accounting over the composed campaign: each busy
        # worker's cumulative busy seconds (its busy-trajectory makespans)
        # and stall seconds (wall-clock finish minus busy time — waiting
        # on producers' commits), plus the commit-stop crossings stamped
        # by the kernels.
        reg.counter("sim.parallel.replications").inc(n_runs)
        n_commits = 0
        for w, cw in enumerate(cplan.workers):
            if cw is None:
                continue
            busy = result.worker_results[w].makespans
            stall = result.worker_finish[w] - busy
            reg.timer(f"sim.parallel.worker{w}.busy").observe(float(busy.sum()))
            reg.timer(f"sim.parallel.worker{w}.idle").observe(
                float(stall.sum())
            )
            n_commits += len(cw.commit_segments) * n_runs
        reg.counter("sim.parallel.commits").inc(n_commits)
    return result


def worker_uniform_rows(
    seed: int | np.random.SeedSequence | None,
    n_runs: int,
    n_workers: int,
    worker: int,
    rep_index: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[np.ndarray]:
    """Yield the ``(3,)`` uniform rows worker ``worker`` consumes for
    replication ``rep_index`` of a :func:`simulate_parallel` campaign.

    The parallel analogue of :func:`~repro.simulation.batch.
    replication_uniform_rows`: regenerates the chunk child, spawns the
    per-worker grandchildren with the same discipline, and slices out one
    replication's column of the chosen worker's stream.  Feeding the rows
    to :class:`~repro.simulation.batch.InverseTransformErrorSource` makes
    the scalar engine replay that worker's busy trajectory bitwise.
    """
    if not 0 <= worker < n_workers:
        raise InvalidParameterError(
            f"worker must be in [0, {n_workers}), got {worker}"
        )
    return _replay_rows(
        seed,
        n_runs,
        rep_index,
        chunk_size,
        lambda child: child.spawn(n_workers)[worker],
    )
