"""Lower a :class:`~repro.core.schedule.Schedule` into flat segment arrays.

The scalar engine (:mod:`repro.simulation.engine`) re-derives everything it
needs — segment weights, rollback targets, per-position costs — inside its
replay loop.  The batched engine (:mod:`repro.simulation.batch`) instead
advances *all* replications through the same segment structure at once, so
that structure is compiled ahead of time into a :class:`CompiledSchedule`:
one flat array entry per *segment* (the stretch of work between two
consecutive verified positions), indexable with a vector of per-replication
segment cursors.

Segment ``k`` runs from verified position ``stops[k]`` (exclusive) to
``stops[k+1]`` (inclusive); a replication is complete once its cursor
reaches ``n_segments``.  For each segment the compiler precomputes:

* ``work`` — the segment weight ``W`` (s);
* ``p_silent`` — the probability ``1 - e^{-λ_s W}`` that at least one
  silent error corrupts the segment;
* ``is_partial`` / ``has_verification`` — what kind of verification (if
  any) guards the segment's end;
* ``verification_cost`` — ``V`` or ``V*`` at the end position (0 if none);
* ``memory_ckpt_cost`` / ``disk_ckpt_cost`` — checkpoint costs paid after
  a clean guaranteed verification (0 if not taken);
* ``fail_target`` / ``fail_recovery_cost`` — the segment cursor and disk
  recovery cost ``R_D`` of a fail-stop rollback from this segment;
* ``silent_target`` / ``silent_recovery_cost`` — the segment cursor and
  memory recovery cost ``R_M`` of a detected-corruption rollback.

The per-segment values are gathered into plain Python lists and lowered
to plain (picklable, read-only) NumPy buffers, so a compiled schedule can
be shipped to worker processes when the batch engine shards replications
across jobs; the engine moves them onto its own backend once per kernel
call.  Compilation performs the same validation as the scalar
engine; the two therefore accept exactly the same inputs, which the test
suite pins with golden-value and same-seed cross-validation tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..chains import TaskChain
from ..exceptions import InvalidScheduleError
from ..platforms import Platform
from ..core.costs import CostProfile
from ..core.schedule import Action, Schedule

__all__ = ["CompiledSchedule", "compile_schedule"]


@dataclass(frozen=True)
class CompiledSchedule:
    """Flat per-segment arrays driving the batched replay (see module doc).

    All arrays have length :attr:`n_segments`; ``stops`` has one extra
    entry (the 1-based verified positions bounding the segments, starting
    at the virtual ``T0``).  They are read-only host NumPy buffers.
    """

    n_tasks: int
    stops: np.ndarray  # int64, n_segments + 1
    work: np.ndarray  # float64
    p_silent: np.ndarray  # float64, 1 - e^{-λ_s W}
    is_partial: np.ndarray  # bool
    has_verification: np.ndarray  # bool
    verification_cost: np.ndarray  # float64
    memory_ckpt_cost: np.ndarray  # float64
    disk_ckpt_cost: np.ndarray  # float64
    fail_target: np.ndarray  # int64 segment cursor after a fail-stop
    fail_recovery_cost: np.ndarray  # float64 (R_D at the rollback target)
    silent_target: np.ndarray  # int64 segment cursor after a detection
    silent_recovery_cost: np.ndarray  # float64 (R_M at the rollback target)
    lf: float
    ls: float
    recall: float
    total_work: float  #: one-pass chain weight (s) — the useful-work floor
    #: of the per-category accounting (work - total_work = re-execution).

    @property
    def n_segments(self) -> int:
        """Number of segments a replication must clear to complete."""
        return int(self.work.shape[0])

    def describe(self) -> str:
        """One-line human-readable summary."""
        total = float(np.sum(self.work))
        return (
            f"compiled schedule: {self.n_tasks} tasks -> "
            f"{self.n_segments} segments, total work {total:g}s, "
            f"λ_f={self.lf:g}/s λ_s={self.ls:g}/s r={self.recall:g}"
        )


def compile_schedule(
    chain: TaskChain,
    platform: Platform,
    schedule: Schedule,
    costs: CostProfile | None = None,
) -> CompiledSchedule:
    """Compile ``schedule`` on ``(chain, platform)`` into flat segment arrays.

    Raises
    ------
    InvalidScheduleError
        Under exactly the conditions the scalar engine rejects: a
        chain/schedule length mismatch, or a final task without a
        guaranteed verification while silent errors are possible.
    """
    if schedule.n != chain.n:
        raise InvalidScheduleError(
            f"schedule covers {schedule.n} tasks but the chain has {chain.n}"
        )
    if platform.ls > 0.0 and schedule.action(chain.n) < Action.VERIFY:
        raise InvalidScheduleError(
            "the final task needs a guaranteed verification for the run to "
            "complete correctly under silent errors"
        )
    if costs is None:
        costs = CostProfile.uniform(chain.n, platform)

    stops = [0] + schedule.verified_positions
    if stops[-1] != chain.n:
        # λ_s == 0 and unverified tail: execute it as a final segment.
        stops.append(chain.n)
    stop_index = {pos: j for j, pos in enumerate(stops)}
    n_segs = len(stops) - 1

    work = [0.0] * n_segs
    is_partial = [False] * n_segs
    has_verif = [False] * n_segs
    verif_cost = [0.0] * n_segs
    cm_cost = [0.0] * n_segs
    cd_cost = [0.0] * n_segs
    fail_target = [0] * n_segs
    fail_cost = [0.0] * n_segs
    silent_target = [0] * n_segs
    silent_cost = [0.0] * n_segs

    mem = disk = 0
    for k in range(n_segs):
        pos, nxt = stops[k], stops[k + 1]
        # Rollback targets are the last checkpoints at or before stops[k].
        if pos > 0 and schedule.action(pos) >= Action.MEMORY:
            mem = pos
        if pos > 0 and schedule.action(pos) == Action.DISK:
            disk = pos
        work[k] = float(chain.segment_weight(pos, nxt))
        fail_target[k] = stop_index[disk]
        fail_cost[k] = float(costs.RD[disk])
        silent_target[k] = stop_index[mem]
        silent_cost[k] = float(costs.RM[mem])

        action = schedule.action(nxt)
        if action >= Action.PARTIAL:
            has_verif[k] = True
            is_partial[k] = action == Action.PARTIAL
            verif_cost[k] = float(
                costs.Vp[nxt] if is_partial[k] else costs.Vg[nxt]
            )
        if action >= Action.MEMORY:
            cm_cost[k] = float(costs.CM[nxt])
        if action == Action.DISK:
            cd_cost[k] = float(costs.CD[nxt])

    ls = platform.ls
    work_arr = np.asarray(work, dtype=np.float64)
    if ls > 0.0:
        p_silent = -np.expm1((-ls) * work_arr)
    else:
        p_silent = np.zeros(n_segs, dtype=np.float64)

    arrays = dict(
        stops=np.asarray(stops, dtype=np.int64),
        work=work_arr,
        p_silent=p_silent,
        is_partial=np.asarray(is_partial, dtype=bool),
        has_verification=np.asarray(has_verif, dtype=bool),
        verification_cost=np.asarray(verif_cost, dtype=np.float64),
        memory_ckpt_cost=np.asarray(cm_cost, dtype=np.float64),
        disk_ckpt_cost=np.asarray(cd_cost, dtype=np.float64),
        fail_target=np.asarray(fail_target, dtype=np.int64),
        fail_recovery_cost=np.asarray(fail_cost, dtype=np.float64),
        silent_target=np.asarray(silent_target, dtype=np.int64),
        silent_recovery_cost=np.asarray(silent_cost, dtype=np.float64),
    )
    for arr in arrays.values():
        arr.setflags(write=False)
    return CompiledSchedule(
        n_tasks=chain.n,
        lf=float(platform.lf),
        ls=float(ls),
        recall=float(platform.r),
        total_work=float(chain.total_weight),
        **arrays,
    )
