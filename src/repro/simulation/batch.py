"""Batched, vectorized Monte-Carlo replay of a compiled schedule.

:func:`simulate_batch` advances *all* ``N`` replications of a schedule
simultaneously.  Each replication holds four words of state — elapsed
time, a segment cursor into the :class:`~repro.simulation.compile.
CompiledSchedule` arrays, and a latent-corruption bit — plus integer
event counters.  One engine step performs one *segment attempt* for every
still-running replication with pure array-API operations — the kernel is
backend-agnostic (:mod:`repro.simulation.backend`): NumPy by default,
``array-api-strict`` in the CI conformance lane:

1. draw a ``(3, N)`` block of uniforms (fail-stop, silent, detection
   slots — one row per random decision a segment attempt can need);
2. convert the fail-stop slot to an exponential arrival time by inverse
   transform and mask the replications whose arrival lands inside their
   current segment: those pay the elapsed work plus the disk recovery
   cost and their cursors jump back to the compiled ``fail_target``;
3. the survivors complete the segment; the silent slot corrupts them
   with the compiled per-segment probability, corruption ORs into the
   latent bitmask carried across unverified (partial-missed) stops;
4. at verifications, corrupted replications are caught (always, for
   guaranteed ones; with probability ``r`` via the detection slot for
   partial ones) and roll back to ``silent_target`` paying the memory
   recovery cost, or are missed and carry corruption latently;
5. clean replications pay their verification/checkpoint costs and their
   cursors advance.

The loop runs until every replication's cursor clears the last segment —
the number of iterations is the *maximum* attempt count over the batch
(close to the segment count unless error rates are extreme), so the
Python-level overhead is O(max attempts), not O(N × attempts) as in the
scalar engine.

Reproducibility
---------------
The uniform block in step 1 is always drawn full-size, including slots of
already-finished replications, so the stream consumed by replication
``i`` depends only on the chunk seed, the chunk population and ``i`` —
never on how fast *other* replications progress.  Replications are
processed in chunks of ``chunk_size`` (bounding memory and providing the
sharding grain for ``n_jobs``); chunk ``c`` draws from the ``c``-th child
of the batch ``SeedSequence``, so results are bit-identical for a given
``(seed, n_runs, chunk_size)`` regardless of ``n_jobs``.

:func:`replication_uniform_rows` regenerates the exact uniform rows
replication ``i`` consumes, and :class:`InverseTransformErrorSource`
feeds them to the trusted scalar engine with the same inverse-transform
conversions — the test suite replays every replication of a batch
through :func:`~repro.simulation.engine.simulate_run` this way and
asserts *bitwise* equal makespans and event counts.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..chains import TaskChain
from ..exceptions import InvalidParameterError, SimulationError
from ..obs import events as _events, fan_out, metrics as _metrics, span as _span
from ..platforms import Platform
from ..core.costs import CostProfile
from ..core.schedule import Schedule
from .backend import get_backend
from .breakdown import CATEGORY_INDEX, TIME_CATEGORIES, BatchBreakdown
from .compile import CompiledSchedule, compile_schedule
from .engine import DEFAULT_MAX_ATTEMPTS
from .errors import ErrorSource

__all__ = [
    "BatchResult",
    "simulate_batch",
    "run_compiled",
    "replication_uniform_rows",
    "InverseTransformErrorSource",
    "DEFAULT_CHUNK_SIZE",
]

#: Replications processed per chunk: bounds peak memory (a dozen
#: state/scratch arrays of this length) and is the sharding grain for
#: ``n_jobs``.  Part of the reproducibility contract — changing it
#: changes which chunk a replication lands in, hence its stream.
DEFAULT_CHUNK_SIZE = 16_384


@dataclass(frozen=True)
class BatchResult:  # repro: allow[RPR005] -- array carrier folded into MC stats
    """Per-replication outcome arrays of one batched campaign.

    The fields mirror :class:`~repro.simulation.engine.RunResult`, one
    array entry per replication.  ``time_categories`` is the vectorized
    per-category accounting: shape ``(len(TIME_CATEGORIES), n_runs)``, row
    order :data:`~repro.simulation.breakdown.TIME_CATEGORIES`; each column
    partitions that replication's makespan.
    """

    makespans: np.ndarray
    fail_stop_errors: np.ndarray
    silent_errors: np.ndarray
    silent_detected: np.ndarray
    silent_missed: np.ndarray
    attempts: np.ndarray
    time_categories: np.ndarray
    steps: int  #: lockstep iterations = max attempts over the batch
    #: Per-threshold first-crossing times, shape ``(len(commit_stops),
    #: n_runs)`` — the wall-clock instant each replication first cleared
    #: the corresponding segment cursor passed as ``commit_stops`` (None
    #: unless :func:`run_compiled` was asked to record them).  Row ``c``
    #: is bitwise-equal to the scalar engine's ``DISK_CHECKPOINT`` event
    #: time at the matching position, which is what the multi-worker
    #: composition in :mod:`repro.simulation.parallel` consumes.
    commit_times: np.ndarray | None = None

    @property
    def n_runs(self) -> int:
        return int(self.makespans.size)

    @property
    def breakdown(self) -> BatchBreakdown:
        """The per-category accounting wrapped with its accessors."""
        return BatchBreakdown(per_run=self.time_categories)

    @classmethod
    def concatenate(cls, parts: list["BatchResult"]) -> "BatchResult":
        """Stitch per-chunk results back into one batch, in chunk order."""
        commits = [p.commit_times for p in parts]
        if any(c is None for c in commits):
            commit_times = None
        else:
            commit_times = np.concatenate(commits, axis=1)
        return cls(
            commit_times=commit_times,
            makespans=np.concatenate([p.makespans for p in parts]),
            fail_stop_errors=np.concatenate([p.fail_stop_errors for p in parts]),
            silent_errors=np.concatenate([p.silent_errors for p in parts]),
            silent_detected=np.concatenate([p.silent_detected for p in parts]),
            silent_missed=np.concatenate([p.silent_missed for p in parts]),
            attempts=np.concatenate([p.attempts for p in parts]),
            time_categories=np.concatenate(
                [p.time_categories for p in parts], axis=1
            ),
            steps=max(p.steps for p in parts),
        )


def run_compiled(
    compiled: CompiledSchedule,
    n_runs: int,
    rng: np.random.Generator,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    backend: str | None = None,
    *,
    commit_stops: "list[int] | tuple[int, ...] | np.ndarray | None" = None,
) -> BatchResult:
    """Advance ``n_runs`` replications of ``compiled`` to completion.

    This is the single-chunk kernel; :func:`simulate_batch` wraps it with
    seeding, chunking and process sharding.  Raises
    :class:`~repro.exceptions.SimulationError` if any replication exceeds
    ``max_attempts`` segment attempts.

    ``commit_stops`` optionally asks the kernel to record, per
    replication, the wall-clock time at which its cursor *first* reached
    each of the given segment indices (strictly increasing, in ``[1,
    n_segments]``).  The times land in :attr:`BatchResult.commit_times`.
    Recording is only sound when no rollback can cross back over a
    recorded stop — i.e. every segment at or beyond a stop has its
    ``fail_target`` and ``silent_target`` at or beyond that stop, which
    holds exactly when each stop is a disk-checkpointed position (the
    multi-worker commit boundaries of :mod:`repro.simulation.parallel`);
    the kernel validates this and raises
    :class:`~repro.exceptions.SimulationError` otherwise.

    The kernel body is pure array-API (``backend`` names the namespace,
    defaulting to ``REPRO_BACKEND`` / NumPy): per-segment constants are
    gathered with ``xp.take``, branch outcomes are combined with boolean
    masks and ``xp.where`` (no NumPy-only integer fancy indexing), and the
    still-running replications are kept *compacted* — finished ones are
    retired to host NumPy result buffers through boolean-mask selection,
    so late lockstep iterations touch only the stragglers, whatever the
    backend.  Uniform draws always come from the host NumPy ``rng`` (full
    ``(3, n_runs)`` blocks per step, see module doc), which keeps streams
    identical across backends.
    """
    reg = _metrics()
    bus = _events()
    t0 = perf_counter() if (reg.enabled or bus.enabled) else 0.0
    n_compactions = 0
    be = get_backend(backend)
    xp = be.xp
    f8, i8, b1 = xp.float64, xp.int64, xp.bool
    S = compiled.n_segments
    lf = compiled.lf
    recall = compiled.recall
    # Segment constants onto the execution backend, once per kernel call
    # (no copy on NumPy, where the compiled arrays already live).
    work = be.asarray(compiled.work, dtype=f8)
    p_silent = be.asarray(compiled.p_silent, dtype=f8)
    has_verif = be.asarray(compiled.has_verification, dtype=b1)
    is_partial = be.asarray(compiled.is_partial, dtype=b1)
    verif_cost = be.asarray(compiled.verification_cost, dtype=f8)
    cm_cost = be.asarray(compiled.memory_ckpt_cost, dtype=f8)
    cd_cost = be.asarray(compiled.disk_ckpt_cost, dtype=f8)
    fail_target = be.asarray(compiled.fail_target, dtype=i8)
    fail_cost = be.asarray(compiled.fail_recovery_cost, dtype=f8)
    silent_target = be.asarray(compiled.silent_target, dtype=i8)
    silent_cost = be.asarray(compiled.silent_recovery_cost, dtype=f8)

    commit_list: list[int] = (
        [] if commit_stops is None else [int(c) for c in commit_stops]
    )
    if commit_list:
        if commit_list != sorted(set(commit_list)) or not (
            1 <= commit_list[0] and commit_list[-1] <= S
        ):
            raise SimulationError(
                "commit_stops must be strictly increasing segment indices "
                f"in [1, {S}], got {commit_list}"
            )
        ft_np = be.to_numpy(fail_target)
        st_np = be.to_numpy(silent_target)
        for thr in commit_list:
            if (ft_np[thr:] < thr).any() or (st_np[thr:] < thr).any():
                raise SimulationError(
                    f"commit stop at segment {thr} is not rollback-safe: a "
                    "later segment can roll back across it (commit stops "
                    "must be disk-checkpointed positions)"
                )

    c_work = CATEGORY_INDEX["work"]
    c_lost = CATEGORY_INDEX["fail_stop_lost"]
    c_rd = CATEGORY_INDEX["disk_recovery"]
    c_rm = CATEGORY_INDEX["memory_recovery"]
    c_verif = CATEGORY_INDEX["verification"]
    c_cm = CATEGORY_INDEX["memory_checkpoint"]
    c_cd = CATEGORY_INDEX["disk_checkpoint"]

    # Host (NumPy) result buffers, scatter-filled as replications retire.
    out_t = np.zeros(n_runs, dtype=np.float64)
    out_fail = np.zeros(n_runs, dtype=np.int64)
    out_silent = np.zeros(n_runs, dtype=np.int64)
    out_detected = np.zeros(n_runs, dtype=np.int64)
    out_missed = np.zeros(n_runs, dtype=np.int64)
    out_attempts = np.zeros(n_runs, dtype=np.int64)
    # Per-category accounting: each row receives the same doubles, in the
    # same order, as the scalar engine's trace durations for that category
    # (bitwise cross-validated), and each column partitions the makespan.
    out_cat = np.zeros((len(TIME_CATEGORIES), n_runs), dtype=np.float64)
    out_commit = np.zeros((len(commit_list), n_runs), dtype=np.float64)

    # Live (still-running) state, compacted; ``orig`` maps live position
    # -> original replication index and drives both the host-side stream
    # gather and the result scatter.
    orig = np.arange(n_runs, dtype=np.int64)
    t = be.zeros(n_runs, dtype=f8)
    cursor = be.zeros(n_runs, dtype=i8)
    latent = be.zeros(n_runs, dtype=b1)
    n_fail = be.zeros(n_runs, dtype=i8)
    n_silent = be.zeros(n_runs, dtype=i8)
    n_detected = be.zeros(n_runs, dtype=i8)
    n_missed = be.zeros(n_runs, dtype=i8)
    n_attempts = be.zeros(n_runs, dtype=i8)
    cat = [be.zeros(n_runs, dtype=f8) for _ in TIME_CATEGORIES]
    commit_t = [be.zeros(n_runs, dtype=f8) for _ in commit_list]
    committed = [be.zeros(n_runs, dtype=b1) for _ in commit_list]

    steps = 0
    while orig.size:
        steps += 1
        if steps > max_attempts:
            raise SimulationError(
                f"batch exceeded {max_attempts} segment attempts with "
                f"{orig.size} replication(s) still running "
                "(error rates too high for this schedule?)"
            )
        # Full-size draw: finished replications keep consuming their slots
        # so each replication's stream is independent of the others' pace.
        u = rng.random((3, n_runs))
        u_live = u if orig.size == n_runs else u[:, orig]
        u0 = be.asarray(u_live[0], dtype=f8)
        u1 = be.asarray(u_live[1], dtype=f8)
        u2 = be.asarray(u_live[2], dtype=f8)
        jj = cursor  # every live replication satisfies cursor < S
        W = xp.take(work, jj)
        n_attempts = n_attempts + 1
        zero = be.zeros(orig.size, dtype=f8)

        if lf > 0.0:
            arrival = -xp.log1p(-u0) / lf
            fail = arrival < W
        else:
            arrival = zero
            fail = be.zeros(orig.size, dtype=b1)

        ok = ~fail
        silent_new = ok & (u1 < xp.take(p_silent, jj))
        corrupted = silent_new | (latent & ok)
        at_verif = xp.take(has_verif, jj)
        partial = xp.take(is_partial, jj)
        caught = corrupted & at_verif & (~partial | (u2 < recall))
        missed = (corrupted & at_verif) & ~caught
        proceed = ok & ~caught & ~missed
        # fail/caught/missed/proceed partition the live set, so the masked
        # additions below touch each replication exactly once per branch
        # (adding a masked-out 0.0 elsewhere is bitwise identity).

        # --- fail-stop: pay elapsed work + disk recovery, jump back ----
        if lf > 0.0:
            lost = xp.where(fail, arrival, zero)
            rd = xp.where(fail, xp.take(fail_cost, jj), zero)
            t = t + lost
            t = t + rd
            cat[c_lost] = cat[c_lost] + lost
            cat[c_rd] = cat[c_rd] + rd
            n_fail = n_fail + xp.astype(fail, i8)

        # --- segment completed: pay the work and any verification ------
        wo = xp.where(ok, W, zero)
        vo = xp.where(ok, xp.take(verif_cost, jj), zero)  # 0 if unverified
        t = t + wo
        t = t + vo
        cat[c_work] = cat[c_work] + wo
        cat[c_verif] = cat[c_verif] + vo
        n_silent = n_silent + xp.astype(silent_new, i8)

        # --- corruption caught: memory recovery, jump back --------------
        rm = xp.where(caught, xp.take(silent_cost, jj), zero)
        t = t + rm
        cat[c_rm] = cat[c_rm] + rm
        n_detected = n_detected + xp.astype(caught, i8)

        # --- corruption missed: carry it latently, advance ---------------
        n_missed = n_missed + xp.astype(missed, i8)

        # --- clean: pay checkpoints, advance -----------------------------
        cm = xp.where(proceed, xp.take(cm_cost, jj), zero)  # 0 if no ckpt
        cd = xp.where(proceed, xp.take(cd_cost, jj), zero)
        t = t + cm
        t = t + cd
        cat[c_cm] = cat[c_cm] + cm
        cat[c_cd] = cat[c_cd] + cd

        cursor = xp.where(
            fail,
            xp.take(fail_target, jj),
            xp.where(caught, xp.take(silent_target, jj), cursor + 1),
        )
        latent = missed  # every other branch clears the latent bit

        # --- commit stops: stamp first crossings (rollback-safe by the
        # validation above, so a stamped time is final) -------------------
        for c, thr in enumerate(commit_list):
            newly = (cursor >= thr) & ~committed[c]
            commit_t[c] = xp.where(newly, t, commit_t[c])
            committed[c] = committed[c] | newly

        # --- retire finished replications, compact the live set ----------
        cursor_np = be.to_numpy(cursor)
        done_np = cursor_np >= S
        if done_np.any():
            n_compactions += 1
            ids = orig[done_np]
            done = be.asarray(done_np, dtype=b1)
            out_t[ids] = be.to_numpy(t[done])
            out_fail[ids] = be.to_numpy(n_fail[done])
            out_silent[ids] = be.to_numpy(n_silent[done])
            out_detected[ids] = be.to_numpy(n_detected[done])
            out_missed[ids] = be.to_numpy(n_missed[done])
            out_attempts[ids] = be.to_numpy(n_attempts[done])
            for k, row in enumerate(cat):
                out_cat[k, ids] = be.to_numpy(row[done])
            for c, row in enumerate(commit_t):
                out_commit[c, ids] = be.to_numpy(row[done])
            orig = orig[~done_np]
            keep = be.asarray(~done_np, dtype=b1)
            t = t[keep]
            cursor = cursor[keep]
            latent = latent[keep]
            n_fail = n_fail[keep]
            n_silent = n_silent[keep]
            n_detected = n_detected[keep]
            n_missed = n_missed[keep]
            n_attempts = n_attempts[keep]
            cat = [row[keep] for row in cat]
            commit_t = [row[keep] for row in commit_t]
            committed = [row[keep] for row in committed]

    if reg.enabled:
        reg.counter("sim.batch.chunks").inc()
        reg.counter("sim.batch.replications").inc(n_runs)
        reg.counter("sim.batch.steps").inc(steps)
        reg.counter("sim.batch.compactions").inc(n_compactions)
        reg.timer("sim.batch.kernel").observe(perf_counter() - t0)
    if bus.enabled:
        bus.emit(
            "sim.chunk",
            reps=n_runs,
            steps=steps,
            compactions=n_compactions,
            wall_s=perf_counter() - t0,
        )
    return BatchResult(
        makespans=out_t,
        fail_stop_errors=out_fail,
        silent_errors=out_silent,
        silent_detected=out_detected,
        silent_missed=out_missed,
        attempts=out_attempts,
        time_categories=out_cat,
        steps=steps,
        commit_times=out_commit if commit_list else None,
    )


def _seed_sequence(
    seed: int | np.random.SeedSequence | None,
) -> np.random.SeedSequence:
    """The campaign ``SeedSequence`` of ``seed`` (a sequence passes through)."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _chunk_sizes(n_runs: int, chunk_size: int) -> list[int]:
    if chunk_size < 1:
        raise InvalidParameterError(f"chunk_size must be >= 1, got {chunk_size}")
    sizes = [chunk_size] * (n_runs // chunk_size)
    if n_runs % chunk_size:
        sizes.append(n_runs % chunk_size)
    return sizes


def _run_chunks(
    fn,
    payload,
    seed: int | np.random.SeedSequence | None,
    n_runs: int,
    chunk_size: int,
    max_attempts: int,
    backend: str,
    n_jobs: int | None,
    pool=None,
) -> list:
    """``fn(payload, child, n, max_attempts, backend)`` for each chunk of
    an ``n_runs`` campaign, in chunk order.

    Chunk ``c`` draws from the ``c``-th child spawned from ``seed``'s
    sequence now, so successive calls on one ``SeedSequence`` continue
    its stream.  With ``n_jobs > 1`` and several chunks, the chunks fan
    out to worker processes (on ``pool`` when given), which re-resolve
    the ``backend`` name; the results are the same whatever ``n_jobs`` is.
    """
    sizes = _chunk_sizes(n_runs, chunk_size)
    children = _seed_sequence(seed).spawn(len(sizes))
    if n_jobs is not None and n_jobs > 1 and len(sizes) > 1:
        return fan_out(
            fn,
            [
                (payload, child, n, max_attempts, backend)
                for child, n in zip(children, sizes)
            ],
            n_jobs=n_jobs,
            pool=pool,
        )
    return [
        fn(payload, child, n, max_attempts, backend)
        for child, n in zip(children, sizes)
    ]


def _run_chunk(
    compiled: CompiledSchedule,
    child: np.random.SeedSequence,
    n: int,
    max_attempts: int,
    backend: str,
) -> BatchResult:
    """Worker entry point (module-level so it pickles for ``n_jobs``)."""
    return run_compiled(
        compiled, n, np.random.default_rng(child), max_attempts, backend
    )


def simulate_batch(
    chain: TaskChain,
    platform: Platform,
    schedule: Schedule,
    n_runs: int,
    *,
    seed: int | np.random.SeedSequence | None = 0,
    costs: CostProfile | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    n_jobs: int | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    backend: str | None = None,
) -> BatchResult:
    """Simulate ``n_runs`` executions of ``schedule`` in vectorized batches.

    Parameters
    ----------
    seed:
        Seed (or ``SeedSequence``) for the batch; each chunk of
        ``chunk_size`` replications draws from an independent child
        stream.  Results are bit-identical for a given ``(seed, n_runs,
        chunk_size)`` whatever ``n_jobs`` is.
    chunk_size:
        Replications advanced per lockstep kernel call — bounds memory
        and sets the process-sharding grain.
    n_jobs:
        When > 1, chunks are dispatched to that many worker processes;
        ``None`` or 1 runs them serially in-process.
    max_attempts:
        Per-replication cap on segment attempts, as in the scalar engine.
    backend:
        Name of the array-API backend the lockstep kernel runs on
        (``"numpy"`` or ``"array-api-strict"``), or ``None`` for the
        ``REPRO_BACKEND`` / NumPy default.  Uniform streams stay
        on the host, so the sampled campaign is the same one on every
        backend; results always come back as NumPy arrays.
    """
    if n_runs < 1:
        raise InvalidParameterError(f"n_runs must be >= 1, got {n_runs}")
    if chunk_size < 1:
        raise InvalidParameterError(f"chunk_size must be >= 1, got {chunk_size}")
    name = get_backend(backend).name  # resolve (and fail) before any work
    compiled = compile_schedule(chain, platform, schedule, costs)
    with _span(
        "sim.batch", n_runs=n_runs, n_jobs=n_jobs or 1, backend=name
    ) as sp:
        parts = _run_chunks(
            _run_chunk,
            compiled,
            seed,
            n_runs,
            chunk_size,
            max_attempts,
            name,
            n_jobs,
        )
        sp.set(chunks=len(parts))
    if len(parts) == 1:
        return parts[0]
    return BatchResult.concatenate(parts)


# ----------------------------------------------------------------------
# scalar replay of the batched streams (cross-validation support)
# ----------------------------------------------------------------------
def replication_uniform_rows(
    seed: int | np.random.SeedSequence | None,
    n_runs: int,
    rep_index: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[np.ndarray]:
    """Yield the ``(3,)`` uniform rows replication ``rep_index`` of a
    :func:`simulate_batch` campaign consumes, one row per segment attempt.

    Regenerates the batch's chunk streams (same seeding discipline as
    :func:`simulate_batch`) and slices out one replication's column —
    O(chunk population) per attempt, strictly a test/verification tool.
    """
    return _replay_rows(seed, n_runs, rep_index, chunk_size)


def _replay_rows(
    seed: int | np.random.SeedSequence | None,
    n_runs: int,
    rep_index: int,
    chunk_size: int,
    stream=None,
) -> Iterator[np.ndarray]:
    """Replication ``rep_index``'s column of its chunk's uniform blocks;
    ``stream`` maps the chunk's child sequence to the one actually drawn
    from (a p-worker campaign's per-worker grandchild)."""
    if not 0 <= rep_index < n_runs:
        raise InvalidParameterError(
            f"rep_index must be in [0, {n_runs}), got {rep_index}"
        )
    sizes = _chunk_sizes(n_runs, chunk_size)
    chunk, offset = divmod(rep_index, chunk_size)
    child = _seed_sequence(seed).spawn(len(sizes))[chunk]
    rng = np.random.default_rng(child if stream is None else stream(child))
    chunk_n = sizes[chunk]

    def _rows() -> Iterator[np.ndarray]:
        while True:
            yield rng.random((3, chunk_n))[:, offset]

    return _rows()


class InverseTransformErrorSource(ErrorSource):
    """Scalar :class:`~repro.simulation.errors.ErrorSource` drawing by the
    batched engine's exact discipline.

    Consumes one ``(3,)`` uniform row per segment attempt (fail-stop,
    silent, detection slots) and applies the same inverse-transform
    conversions — via the *numpy* transcendentals, which are bitwise
    identical to the vectorized kernels — so feeding it the rows from
    :func:`replication_uniform_rows` makes the trusted scalar engine
    replay one batch replication exactly, down to the last float.
    """

    def __init__(self, platform: Platform, rows: Iterator[np.ndarray]) -> None:
        self.platform = platform
        self._rows = iter(rows)
        self._row: np.ndarray | None = None

    def fail_stop_arrival(self, W: float) -> float | None:
        # The engine opens every attempt with this call: advance the row.
        self._row = next(self._rows)
        lf = self.platform.lf
        if lf <= 0.0:
            return None
        arrival = float(-np.log1p(-self._row[0]) / lf)
        return arrival if arrival < W else None

    def silent_strikes(self, W: float) -> bool:
        ls = self.platform.ls
        if ls <= 0.0:
            return False
        return bool(self._row[1] < -np.expm1(-ls * W))

    def partial_detects(self) -> bool:
        return bool(self._row[2] < self.platform.r)
