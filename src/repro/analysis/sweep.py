"""Task-count sweeps: the x-axis of every makespan figure in the paper.

A sweep runs one or more algorithms over chains of increasing task counts
(same pattern, same total weight) on one platform, recording normalized
makespans and placement counts.  The figure drivers in
:mod:`repro.experiments` are thin wrappers around :func:`sweep_task_counts`.

Passing ``validate_runs > 0`` additionally replays every ``(n, algorithm)``
cell through the batched Monte-Carlo engine and records whether the DP's
analytic expected makespan falls inside the sample confidence interval —
statistical certification of the whole sweep at a cost the vectorized
engine makes negligible next to the DPs themselves.  With
``validate_target_ci`` the replications per cell are chosen adaptively:
each cell runs the sequential-sampling orchestrator until its relative CI
half-width reaches the target, so the certification carries an explicit
precision instead of a fixed replication budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..chains import PAPER_TOTAL_WEIGHT, make_chain
from ..exceptions import InvalidParameterError
from ..platforms import Platform
from ..core.result import Solution
from ..core.solver import canonical_algorithm, optimize

if TYPE_CHECKING:  # avoids a runtime analysis -> simulation dependency
    from ..simulation.monte_carlo import MonteCarloResult

__all__ = ["SweepRecord", "SweepResult", "sweep_task_counts", "default_task_grid"]


def default_task_grid(max_n: int = 50, step: int = 5) -> list[int]:
    """The paper's x-axis grid: 1 plus multiples of ``step`` up to ``max_n``."""
    if max_n < 1 or step < 1:
        raise InvalidParameterError("max_n and step must be >= 1")
    grid = [1] + [n for n in range(step, max_n + 1, step)]
    return sorted(set(grid))


@dataclass(frozen=True)
class SweepRecord:
    """One (n, algorithm) cell of a sweep.

    ``monte_carlo`` is populated when the sweep ran with
    ``validate_runs > 0`` (batched fault-injection replay of the cell).
    """

    n: int
    algorithm: str
    solution: Solution
    monte_carlo: "MonteCarloResult | None" = None

    @property
    def normalized_makespan(self) -> float:
        return self.solution.normalized_makespan

    @property
    def counts(self):
        return self.solution.counts()

    @property
    def validated(self) -> bool | None:
        """CI agreement of the cell's Monte-Carlo replay (None = not run)."""
        if self.monte_carlo is None:
            return None
        return self.monte_carlo.agrees_with_analytic


@dataclass
class SweepResult:  # repro: allow[RPR005] -- in-process sweep table, not a wire type
    """All records of one sweep, with convenient series accessors."""

    platform: Platform
    pattern: str
    total_weight: float
    task_counts: list[int]
    algorithms: list[str]
    records: list[SweepRecord] = field(default_factory=list)

    def record(self, n: int, algorithm: str) -> SweepRecord:
        """The record for a given ``(n, algorithm)`` cell."""
        for rec in self.records:
            if rec.n == n and rec.algorithm == algorithm:
                return rec
        raise KeyError(f"no record for n={n}, algorithm={algorithm!r}")

    def makespan_series(self, algorithm: str) -> list[tuple[float, float]]:
        """``(n, normalized makespan)`` points for one algorithm."""
        return [
            (rec.n, rec.normalized_makespan)
            for rec in self.records
            if rec.algorithm == algorithm
        ]

    def count_series(
        self, algorithm: str, category: str
    ) -> list[tuple[float, float]]:
        """``(n, count)`` points for one algorithm and placement category."""
        return [
            (rec.n, rec.counts[category])
            for rec in self.records
            if rec.algorithm == algorithm
        ]

    def rows(self) -> list[list]:
        """Tabular form: one row per n, one makespan column per algorithm."""
        out = []
        for n in self.task_counts:
            row: list = [n]
            for alg in self.algorithms:
                row.append(self.record(n, alg).normalized_makespan)
            out.append(row)
        return out

    def header(self) -> list[str]:
        return ["n"] + list(self.algorithms)

    @property
    def validated_cells(self) -> int:
        """Number of cells with a Monte-Carlo replay attached."""
        return sum(1 for rec in self.records if rec.monte_carlo is not None)

    @property
    def all_cells_agree(self) -> bool:
        """True when every validated cell's analytic value sits in its CI.

        False when the sweep ran without validation — an unvalidated sweep
        must not read as certified.
        """
        if not self.validated_cells:
            return False
        return all(rec.validated for rec in self.records if rec.validated is not None)

    def validation_report(self) -> str:
        """Per-cell agreement summary for validated sweeps."""
        if not self.validated_cells:
            return "sweep not validated (validate_runs=0)"
        lines = [
            f"Monte-Carlo validation: {self.validated_cells} cells, "
            f"{'ALL AGREE' if self.all_cells_agree else 'DISAGREEMENT'}"
        ]
        for rec in self.records:
            if rec.monte_carlo is None:
                continue
            mc = rec.monte_carlo
            mark = "ok " if rec.validated else "FAIL"
            precision = ""
            if mc.convergence is not None:
                precision = (
                    f" {mc.runs} reps ±{mc.convergence.relative_half_width:.2%}"
                )
            lines.append(
                f"  [{mark}] n={rec.n:3d} {rec.algorithm:10s} "
                f"analytic={mc.analytic:12.2f}s sample="
                f"[{mc.summary.ci_low:.2f}, {mc.summary.ci_high:.2f}] "
                f"(gap {mc.relative_gap:+.3%}){precision}"
            )
        return "\n".join(lines)


def sweep_task_counts(
    platform: Platform,
    *,
    pattern: str = "uniform",
    task_counts: list[int] | None = None,
    algorithms: tuple[str, ...] = ("adv_star", "admv_star", "admv"),
    total_weight: float = PAPER_TOTAL_WEIGHT,
    validate_runs: int = 0,
    validate_target_ci: float | None = None,
    validate_seed: int = 0,
    validate_confidence: float = 0.99,
    validate_backend: str | None = None,
    n_jobs: int | None = None,
    **pattern_kwargs,
) -> SweepResult:
    """Run ``algorithms`` over chains of each size in ``task_counts``.

    With ``validate_runs > 0`` every cell is additionally replayed through
    the batched Monte-Carlo engine with that many replications (seeded
    per-cell from ``validate_seed``, sharded over ``n_jobs`` processes) and
    the analytic-vs-sample agreement is attached to its record.

    ``validate_target_ci`` switches the per-cell replay to the adaptive
    orchestrator: each cell spends only the replications needed to certify
    that relative CI half-width (``validate_runs`` then caps the spend; 0
    means the orchestrator's default cap) — validation is enabled even if
    ``validate_runs`` is 0.

    ``validate_backend`` selects the array-API backend the validation
    campaigns run on (``"numpy"`` or ``"array-api-strict"``; ``None`` =
    the ``REPRO_BACKEND`` / NumPy default).

    The ``random`` pattern draws each size's weights from
    ``validate_seed`` (unless ``pattern_kwargs`` name an ``rng``), as
    :class:`~repro.api.requests.SolveRequest` draws them from its seed:
    a sweep reproduces, and its ``n``-task cell prices the chain of a
    seeded ``n``-task solve.
    """
    if task_counts is None:
        task_counts = default_task_grid()
    canon = [canonical_algorithm(a) for a in algorithms]
    result = SweepResult(
        platform=platform,
        pattern=pattern,
        total_weight=total_weight,
        task_counts=list(task_counts),
        algorithms=canon,
    )
    validate = bool(validate_runs) or validate_target_ci is not None
    if validate:
        import numpy as np

        from ..simulation import DEFAULT_MAX_RUNS, run_monte_carlo

        cell_runs = validate_runs or DEFAULT_MAX_RUNS
        cell_seeds = iter(
            np.random.SeedSequence(validate_seed).spawn(
                len(task_counts) * len(canon)
            )
        )
    if pattern == "random":
        pattern_kwargs.setdefault("rng", validate_seed)
    for n in task_counts:
        chain = make_chain(pattern, n, total_weight, **pattern_kwargs)
        for alg in canon:
            sol = optimize(chain, platform, algorithm=alg)
            mc = None
            if validate:
                mc = run_monte_carlo(
                    chain,
                    platform,
                    sol.schedule,
                    runs=cell_runs,
                    seed=next(cell_seeds),
                    confidence=validate_confidence,
                    analytic=sol.expected_time,
                    n_jobs=n_jobs,
                    target_ci=validate_target_ci,
                    backend=validate_backend,
                )
            result.records.append(
                SweepRecord(n=n, algorithm=alg, solution=sol, monte_carlo=mc)
            )
    return result
