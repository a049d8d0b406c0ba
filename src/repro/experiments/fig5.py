"""Figure 5 — Uniform pattern on all four platforms.

Column 1 of the paper's figure: normalized makespan versus number of tasks
for ``ADV*``, ``ADMV*`` and ``ADMV``.  Columns 2-4: numbers of disk
checkpoints, memory checkpoints, guaranteed verifications (and partial
verifications for ``ADMV``) placed by each algorithm.

The expected shapes (asserted in EXPERIMENTS.md):

* makespan decreases then flattens as ``n`` grows (small ``n`` ⇒ huge
  re-execution cost per error);
* ``ADMV <= ADMV* <= ADV*`` for every platform and every ``n``;
* partial verifications only appear for large ``n``;
* the two-level gain at ``n = 50`` is ≈2% on Hera and ≈5% on Atlas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.ascii_plot import line_chart
from ..analysis.sweep import SweepResult, sweep_task_counts
from ..analysis.tables import format_table
from ..analysis.metrics import improvement
from ..chains import make_chain
from ..platforms import Platform
from ..simulation.certify import AgreementStamp, certify_solution
from .common import (
    ALGORITHM_LABELS,
    PAPER_ALGORITHMS,
    PAPER_PLATFORMS,
    render_stamps,
    task_grid,
)

__all__ = ["Fig5Result", "run"]


@dataclass
class Fig5Result:
    """One sweep per platform, Uniform pattern."""

    sweeps: dict[str, SweepResult] = field(default_factory=dict)
    pattern: str = "uniform"
    stamps: list[AgreementStamp] = field(default_factory=list)

    def makespan_table(self, platform_name: str) -> str:
        sweep = self.sweeps[platform_name]
        header = ["n"] + [ALGORITHM_LABELS[a] for a in sweep.algorithms]
        return format_table(
            header,
            sweep.rows(),
            title=f"Figure 5 (makespan) — {platform_name}, {self.pattern}",
        )

    def counts_table(self, platform_name: str, algorithm: str) -> str:
        sweep = self.sweeps[platform_name]
        header = ["n", "#disk", "#memory", "#guaranteed", "#partial"]
        rows = []
        for n in sweep.task_counts:
            c = sweep.record(n, algorithm).counts
            rows.append([n, c.disk, c.memory, c.guaranteed, c.partial])
        return format_table(
            header,
            rows,
            title=(
                f"Figure 5 (counts) — {ALGORITHM_LABELS[algorithm]} on "
                f"{platform_name}, {self.pattern}"
            ),
        )

    def chart(self, platform_name: str) -> str:
        sweep = self.sweeps[platform_name]
        series = {
            ALGORITHM_LABELS[a]: sweep.makespan_series(a)
            for a in sweep.algorithms
        }
        return line_chart(
            series,
            title=f"Normalized makespan — {platform_name} ({self.pattern})",
            x_label="number of tasks",
        )

    def two_level_gain(self, platform_name: str, n: int = 50) -> float:
        """Improvement of ``ADMV*`` over ``ADV*`` at ``n`` tasks."""
        sweep = self.sweeps[platform_name]
        n = n if n in sweep.task_counts else sweep.task_counts[-1]
        return improvement(
            sweep.record(n, "adv_star").solution,
            sweep.record(n, "admv_star").solution,
        )

    def partial_gain(self, platform_name: str, n: int = 50) -> float:
        """Improvement of ``ADMV`` over ``ADMV*`` at ``n`` tasks."""
        sweep = self.sweeps[platform_name]
        n = n if n in sweep.task_counts else sweep.task_counts[-1]
        return improvement(
            sweep.record(n, "admv_star").solution,
            sweep.record(n, "admv").solution,
        )

    def render(self) -> str:
        blocks: list[str] = []
        for name, sweep in self.sweeps.items():
            blocks.append(self.chart(name))
            blocks.append(self.makespan_table(name))
            for alg in sweep.algorithms:
                blocks.append(self.counts_table(name, alg))
            blocks.append(
                f"gain ADMV* vs ADV* at n=max: {self.two_level_gain(name):+.2%}; "
                f"gain ADMV vs ADMV*: {self.partial_gain(name):+.2%}"
            )
        blocks.append(render_stamps(self.stamps))
        return "\n\n".join(blocks)


def run(
    *,
    fast: bool = True,
    platforms: tuple[Platform, ...] = PAPER_PLATFORMS,
    algorithms: tuple[str, ...] = PAPER_ALGORITHMS,
    task_counts: list[int] | None = None,
    certify: bool = True,
) -> Fig5Result:
    """Run the Figure 5 sweeps (Uniform pattern, all platforms).

    With ``certify`` (default) the headline cell of every sweep — each
    algorithm at the largest task count — is replayed through the adaptive
    Monte-Carlo orchestrator and the agreement stamp rides in the
    rendering.
    """
    grid = task_counts if task_counts is not None else task_grid(fast)
    result = Fig5Result()
    for platform in platforms:
        sweep = sweep_task_counts(
            platform,
            pattern="uniform",
            task_counts=grid,
            algorithms=algorithms,
        )
        result.sweeps[platform.name] = sweep
        if certify:
            n_max = sweep.task_counts[-1]
            chain = make_chain("uniform", n_max)
            for alg in sweep.algorithms:
                result.stamps.append(
                    certify_solution(
                        chain,
                        platform,
                        sweep.record(n_max, alg).solution,
                        label=f"uniform n={n_max} {ALGORITHM_LABELS[alg]}",
                    )
                )
    return result
