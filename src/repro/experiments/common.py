"""Shared plumbing for the paper-figure experiment drivers.

Every experiment module exposes ``run(...) -> <Result>`` and the result
knows how to render itself to text (``render()``), so CLI, benches and
EXPERIMENTS.md generation all share one code path.

``fast`` mode uses a coarser task grid (the ``ADMV`` DP is ``O(n^5)``; the
full 1..50 grid over four platforms is a couple of minutes, the fast grid a
few seconds) — figure *shapes* are preserved either way.

Every regenerated artefact additionally carries a **Monte-Carlo agreement
stamp**: the headline solutions are replayed through the adaptive
fault-injection orchestrator until the sample mean is certified to a
target precision, and the analytic-vs-simulated agreement is appended to
the rendering (:func:`certify_solution` / :func:`render_stamps`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..analysis.sweep import default_task_grid
from ..chains import TaskChain
from ..core.result import Solution
from ..platforms import TABLE1_ROWS, Platform

if TYPE_CHECKING:
    import numpy as np

    from ..simulation.adaptive import AdaptiveResult

__all__ = [
    "PAPER_ALGORITHMS",
    "PAPER_PLATFORMS",
    "EXTREME_PLATFORMS",
    "task_grid",
    "ALGORITHM_LABELS",
    "AgreementStamp",
    "STAMP_TARGET_CI",
    "certify_solution",
    "render_stamps",
]

#: Relative CI half-width every agreement stamp certifies (±1%).
STAMP_TARGET_CI = 0.01

#: The three algorithms compared throughout Section IV.
PAPER_ALGORITHMS: tuple[str, ...] = ("adv_star", "admv_star", "admv")

#: Display names matching the paper's legends.
ALGORITHM_LABELS: dict[str, str] = {
    "adv_star": "ADV*",
    "admv_star": "ADMV*",
    "admv": "ADMV",
}

#: All four Table I platforms (Figure 5 / Figure 6).
PAPER_PLATFORMS: tuple[Platform, ...] = TABLE1_ROWS

#: The two extreme platforms used for Figures 7 and 8.
EXTREME_PLATFORMS: tuple[Platform, ...] = (TABLE1_ROWS[0], TABLE1_ROWS[3])


def task_grid(fast: bool) -> list[int]:
    """Task-count grid: paper-dense when ``fast`` is False."""
    return default_task_grid(50, 10) if fast else default_task_grid(50, 5)


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
    target_ci: float = STAMP_TARGET_CI,
    seed: int | np.random.SeedSequence = 0,
    backend: str | None = None,
    max_runs: int = 1_000_000,
    costs=None,
) -> AgreementStamp:
    """Replay ``solution`` adaptively and stamp its analytic agreement.

    ``backend`` selects the array-API backend the batched campaign runs on
    (``None`` = the ``REPRO_BACKEND`` / NumPy default); ``max_runs`` caps
    the adaptive spend; ``costs`` prices a heterogeneous per-task
    :class:`~repro.core.costs.CostProfile` in the simulated campaign (it
    must match the profile the analytic value was computed with).
    """
    from ..simulation import run_monte_carlo

    mc = run_monte_carlo(
        chain,
        platform,
        solution.schedule,
        runs=max_runs,
        seed=seed,
        analytic=solution.expected_time,
        target_ci=target_ci,
        backend=backend,
        costs=costs,
    )
    return AgreementStamp.from_adaptive(
        mc.convergence, platform=platform.name, label=label
    )


def render_stamps(stamps: list[AgreementStamp]) -> str:
    """The agreement-stamp block appended to every artefact rendering."""
    if not stamps:
        return "Monte-Carlo agreement stamp: not certified"
    all_ok = all(s.agrees for s in stamps)
    target = stamps[0].target_ci
    lines = [
        f"Monte-Carlo agreement stamp (adaptive, target ±{target:.1%}): "
        f"{'ALL AGREE' if all_ok else 'DISAGREEMENT'}"
    ]
    lines.extend(s.line() for s in stamps)
    return "\n".join(lines)
