"""Figure 6 — placement maps of ``ADMV`` at ``n = 50``, Uniform pattern.

For each of the four platforms, shows where the optimal ``ADMV`` solution
puts disk checkpoints, memory checkpoints, guaranteed verifications and
partial verifications along the 50-task chain.

Expected shapes: no disk checkpoint other than the mandatory final one;
roughly equi-spaced memory checkpoints / guaranteed verifications with
partial verifications in-between; on Coastal SSD (expensive ``C_M``/``V*``)
partial verifications dominate over guaranteed ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.ascii_plot import placement_diagram
from ..chains import uniform_chain
from ..platforms import Platform
from ..core.result import Solution
from ..core.solver import optimize
from ..simulation.certify import AgreementStamp, certify_solution
from .common import PAPER_PLATFORMS, render_stamps

__all__ = ["Fig6Result", "run"]


@dataclass
class Fig6Result:
    """Optimal ``ADMV`` solutions at fixed ``n``, one per platform."""

    n: int
    pattern: str
    solutions: dict[str, Solution] = field(default_factory=dict)
    stamps: list[AgreementStamp] = field(default_factory=list)

    def diagram(self, platform_name: str) -> str:
        sol = self.solutions[platform_name]
        return placement_diagram(
            sol.schedule,
            title=(
                f"Platform {platform_name} with ADMV and n={self.n} "
                f"({self.pattern}) — E[T]={sol.expected_time:.0f}s"
            ),
        )

    def render(self) -> str:
        blocks = [self.diagram(name) for name in self.solutions]
        blocks.append(render_stamps(self.stamps))
        return "\n\n".join(blocks)


def run(
    *,
    n: int = 50,
    platforms: tuple[Platform, ...] = PAPER_PLATFORMS,
    algorithm: str = "admv",
    certify: bool = True,
) -> Fig6Result:
    """Solve ``ADMV`` at ``n`` tasks (Uniform) on each platform.

    With ``certify`` (default) every placement map's expected makespan is
    certified by an adaptive Monte-Carlo replay and stamped.
    """
    chain = uniform_chain(n)
    result = Fig6Result(n=n, pattern="uniform")
    for platform in platforms:
        solution = optimize(chain, platform, algorithm=algorithm)
        result.solutions[platform.name] = solution
        if certify:
            result.stamps.append(
                certify_solution(
                    chain,
                    platform,
                    solution,
                    label=f"uniform n={n} {algorithm.upper()}",
                )
            )
    return result
