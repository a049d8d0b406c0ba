"""Monte-Carlo agreement stamps: every certification runs here.

A stamp replays a solution through an adaptive fault-injection campaign
until the sample mean is certified to a target precision, and records
whether the analytic expected makespan lies inside the certified
interval.  :func:`certify_solution` stamps a chain schedule;
:func:`certify_dag_solution` stamps a DAG winner, drawing from
:func:`certification_seed`, the one seed child no search draws from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import InvalidParameterError
from .adaptive import (
    DEFAULT_MAX_RUNS,
    DEFAULT_MIN_RUNS,
    DEFAULT_TARGET_RELATIVE_CI,
    AdaptiveResult,
    StreamingMoments,
    _ChunkStats,
    _run_rounds,
    _validate_adaptive_params,
    run_adaptive,
)

if TYPE_CHECKING:
    from ..chains import TaskChain
    from ..core.costs import CostProfile
    from ..core.result import Solution
    from ..dag.linearize import DagSolution
    from ..dag.workflow import WorkflowDAG
    from ..platforms import Platform

__all__ = [
    "AgreementStamp",
    "certification_seed",
    "certify_dag_solution",
    "certify_solution",
]

#: Replication floor of the join certification.  Not the chain floor:
#: the join model has no silent errors, and on Table I platforms a few
#: hundred runs often see no fail-stop error at all — a zero-variance
#: sample whose zero-width interval certifies nothing.
_JOIN_MIN_RUNS = 2000


def certification_seed(seed: int) -> np.random.SeedSequence:
    """The campaign seed of a DAG result searched with ``seed``: child 4
    of ``SeedSequence(seed)``.  Chain search draws from children 0-2,
    join and p=2 search from 0-1, so no stamp (nor the p=2 makespan
    estimate, which draws from it too) replays a search stream."""
    return np.random.SeedSequence(seed).spawn(5)[4]


@dataclass(frozen=True)
class AgreementStamp:
    """Analytic-vs-simulated certification of one headline solution."""

    platform: str
    label: str  #: instance description, e.g. ``"uniform n=50 ADMV"``
    analytic: float  #: DP/Markov expected makespan (s)
    simulated: float  #: certified sample mean makespan (s)
    relative_gap: float
    reps: int  #: replications the adaptive campaign spent
    relative_half_width: float  #: certified precision (CI half-width / mean)
    target_ci: float
    agrees: bool  #: analytic value inside the certified CI
    converged: bool

    @classmethod
    def from_adaptive(
        cls, result: AdaptiveResult, *, platform: str, label: str
    ) -> "AgreementStamp":
        """The stamp of an adaptive campaign run against its analytic value."""
        return cls(
            platform=platform,
            label=label,
            analytic=result.analytic,
            simulated=result.mean,
            relative_gap=result.relative_gap,
            reps=result.reps_used,
            relative_half_width=result.relative_half_width,
            target_ci=result.target_relative_ci,
            agrees=result.agrees_with_analytic,
            converged=result.converged,
        )

    def line(self) -> str:
        mark = "ok " if self.agrees else "FAIL"
        tail = "" if self.converged else " [cap hit before target]"
        return (
            f"  [{mark}] {self.platform:12s} {self.label:22s} "
            f"analytic={self.analytic:12.2f}s "
            f"simulated={self.simulated:12.2f}s "
            f"±{self.relative_half_width:.2%} "
            f"({self.reps} reps, gap {self.relative_gap:+.3%}){tail}"
        )


def certify_solution(
    chain: TaskChain,
    platform: Platform,
    solution: Solution,
    *,
    label: str,
    target_ci: float = DEFAULT_TARGET_RELATIVE_CI,
    seed: int | np.random.SeedSequence = 0,
    backend: str | None = None,
    max_runs: int = DEFAULT_MAX_RUNS,
    costs: CostProfile | None = None,
) -> AgreementStamp:
    """Replay ``solution`` adaptively and stamp its analytic agreement.

    ``backend`` selects the array-API backend the batched campaign runs on
    (``None`` = the ``REPRO_BACKEND`` / NumPy default); ``max_runs`` caps
    the adaptive spend; ``costs`` prices a heterogeneous per-task
    :class:`~repro.core.costs.CostProfile` in the simulated campaign (it
    must match the profile the analytic value was computed with).
    """
    result = run_adaptive(
        chain,
        platform,
        solution.schedule,
        target_relative_ci=target_ci,
        min_runs=min(DEFAULT_MIN_RUNS, max_runs),
        max_runs=max_runs,
        seed=seed,
        costs=costs,
        analytic=solution.expected_time,
        backend=backend,
    )
    return AgreementStamp.from_adaptive(result, platform=platform.name, label=label)


def certify_dag_solution(
    dag: WorkflowDAG,
    platform: Platform,
    solution: DagSolution,
    *,
    label: str,
    seed: int,
    target_ci: float = DEFAULT_TARGET_RELATIVE_CI,
    backend: str | None = None,
    max_runs: int = DEFAULT_MAX_RUNS,
) -> AgreementStamp:
    """Stamp a DAG winner that was searched (or chosen) with ``seed``.

    A serial winner is serialised in its order, priced with the DAG's
    cost profile and stamped by :func:`certify_solution`.  A join winner
    (one with a ``join_schedule``) runs the adaptive round driver over
    :func:`repro.dag.join.simulate_join` makespans instead, with the same
    round growth, agreement rule and events, from the join floor
    (``backend`` does not apply there).
    """
    campaign = certification_seed(seed)
    if getattr(solution, "join_schedule", None) is None:
        order = list(solution.order)
        _, chain = dag.serialise(order)
        return certify_solution(
            chain,
            platform,
            solution,
            label=label,
            target_ci=target_ci,
            seed=campaign,
            backend=backend,
            max_runs=max_runs,
            costs=dag.cost_profile(order, platform),
        )
    from ..dag.join import simulate_join

    if max_runs < 1:
        raise InvalidParameterError(f"max_runs must be >= 1, got {max_runs}")
    min_runs = min(_JOIN_MIN_RUNS, max_runs)
    _validate_adaptive_params(target_ci, min_runs, max_runs, 2.0, 0.99)
    instance, schedule = solution.instance, solution.join_schedule

    def sample(seed_seq: np.random.SeedSequence, n: int) -> list[_ChunkStats]:
        # each round draws from the next child of the campaign seed
        rng = np.random.default_rng(seed_seq.spawn(1)[0])
        makespans = simulate_join(instance, schedule, runs=n, rng=rng)
        return [_ChunkStats(moments=StreamingMoments.from_samples(makespans))]

    result = _run_rounds(
        sample,
        "certify_join",
        target_relative_ci=target_ci,
        confidence=0.99,
        min_runs=min_runs,
        max_runs=max_runs,
        growth=2.0,
        seed=campaign,
        analytic=solution.expected_time,
        join=True,
    )
    return AgreementStamp.from_adaptive(result, platform=platform.name, label=label)
