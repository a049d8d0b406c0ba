"""Figures 7 and 8 — Decrease and HighLow patterns on Hera and Coastal SSD.

Each figure has three columns in the paper:

1. normalized makespan versus ``n`` for the three algorithms;
2. placement counts of ``ADMV`` versus ``n``;
3. the placement map of the ``ADMV`` solution at ``n = 50``.

Figure 7 uses the quadratically decreasing pattern (the early, heavy tasks
get the protection; the light tail is barely verified).  Figure 8 uses the
HighLow pattern (10% heavy head holding 60% of the weight: memory
checkpoints become mandatory on the head on Hera, sparser on Coastal SSD
where ``C_M`` is expensive).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.ascii_plot import line_chart, placement_diagram
from ..analysis.sweep import SweepResult, sweep_task_counts
from ..analysis.tables import format_table
from ..chains import make_chain
from ..platforms import Platform
from ..core.result import Solution
from ..core.solver import optimize
from ..simulation.certify import AgreementStamp, certify_solution
from .common import (
    ALGORITHM_LABELS,
    EXTREME_PLATFORMS,
    PAPER_ALGORITHMS,
    render_stamps,
    task_grid,
)

__all__ = ["PatternFigureResult", "run_fig7", "run_fig8", "run_pattern_figure"]


@dataclass
class PatternFigureResult:
    """Sweeps + n=50 placement maps for one workload pattern."""

    figure: str
    pattern: str
    n_map: int
    sweeps: dict[str, SweepResult] = field(default_factory=dict)
    map_solutions: dict[str, Solution] = field(default_factory=dict)
    stamps: list[AgreementStamp] = field(default_factory=list)

    def makespan_table(self, platform_name: str) -> str:
        sweep = self.sweeps[platform_name]
        header = ["n"] + [ALGORITHM_LABELS[a] for a in sweep.algorithms]
        return format_table(
            header,
            sweep.rows(),
            title=(
                f"{self.figure} (makespan) — {platform_name}, {self.pattern}"
            ),
        )

    def counts_table(self, platform_name: str, algorithm: str = "admv") -> str:
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
                f"{self.figure} (counts) — {ALGORITHM_LABELS[algorithm]} on "
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
            title=(
                f"Normalized makespan — {platform_name} ({self.pattern})"
            ),
            x_label="number of tasks",
        )

    def diagram(self, platform_name: str) -> str:
        sol = self.map_solutions[platform_name]
        return placement_diagram(
            sol.schedule,
            title=(
                f"Platform {platform_name} with ADMV and n={self.n_map} "
                f"({self.pattern}) — E[T]={sol.expected_time:.0f}s"
            ),
        )

    def render(self) -> str:
        blocks: list[str] = []
        for name in self.sweeps:
            blocks.append(self.chart(name))
            blocks.append(self.makespan_table(name))
            blocks.append(self.counts_table(name))
            blocks.append(self.diagram(name))
        blocks.append(render_stamps(self.stamps))
        return "\n\n".join(blocks)


def run_pattern_figure(
    figure: str,
    pattern: str,
    *,
    fast: bool = True,
    platforms: tuple[Platform, ...] = EXTREME_PLATFORMS,
    algorithms: tuple[str, ...] = PAPER_ALGORITHMS,
    task_counts: list[int] | None = None,
    n_map: int = 50,
    certify: bool = True,
) -> PatternFigureResult:
    """Generic driver behind Figures 7 and 8.

    With ``certify`` (default) every platform's ``n_map`` placement-map
    solution is certified by an adaptive Monte-Carlo replay and the
    agreement stamp rides in the rendering.
    """
    grid = task_counts if task_counts is not None else task_grid(fast)
    result = PatternFigureResult(figure=figure, pattern=pattern, n_map=n_map)
    map_chain = make_chain(pattern, n_map)
    for platform in platforms:
        result.sweeps[platform.name] = sweep_task_counts(
            platform,
            pattern=pattern,
            task_counts=grid,
            algorithms=algorithms,
        )
        solution = optimize(map_chain, platform, algorithm="admv")
        result.map_solutions[platform.name] = solution
        if certify:
            result.stamps.append(
                certify_solution(
                    map_chain,
                    platform,
                    solution,
                    label=f"{pattern} n={n_map} ADMV",
                )
            )
    return result


def run_fig7(**kwargs) -> PatternFigureResult:
    """Figure 7: Decrease pattern on Hera and Coastal SSD."""
    return run_pattern_figure("Figure 7", "decrease", **kwargs)


def run_fig8(**kwargs) -> PatternFigureResult:
    """Figure 8: HighLow pattern on Hera and Coastal SSD."""
    return run_pattern_figure("Figure 8", "highlow", **kwargs)
