"""Table I — platform parameters.

Regenerates the paper's Table I from the catalog, including the derived
MTBFs quoted in the prose ("the Hera platform has the worst error rates,
with a platform MTBF of 12.2 days for fail-stop errors and 3.4 days for
silent errors").  Each platform row is additionally stamped by replaying
the canonical ``ADMV`` solution (uniform, n = 20) through the adaptive
Monte-Carlo orchestrator — the parameters are certified to drive analytic
and simulated makespans into agreement, not just transcribed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.tables import format_table
from ..chains import uniform_chain
from ..core.solver import optimize
from ..platforms import TABLE1_ROWS, Platform
from ..simulation.certify import AgreementStamp, certify_solution
from .common import render_stamps

__all__ = ["Table1Result", "run"]

HEADER = [
    "platform",
    "#nodes",
    "lambda_f (/s)",
    "lambda_s (/s)",
    "C_D (s)",
    "C_M (s)",
    "MTBF_f (days)",
    "MTBF_s (days)",
]


@dataclass(frozen=True)
class Table1Result:
    """Rows of Table I plus derived MTBF columns."""

    platforms: tuple[Platform, ...]
    stamps: list[AgreementStamp] = field(default_factory=list)

    def rows(self) -> list[list]:
        out = []
        for p in self.platforms:
            out.append(
                [
                    p.name,
                    p.nodes,
                    f"{p.lf:.2e}",
                    f"{p.ls:.2e}",
                    p.CD,
                    p.CM,
                    f"{p.mtbf_fail_stop_days:.1f}",
                    f"{p.mtbf_silent_days:.1f}",
                ]
            )
        return out

    def render(self) -> str:
        table = format_table(
            HEADER, self.rows(), title="Table I — platform parameters"
        )
        return table + "\n\n" + render_stamps(self.stamps)


def run(*, certify: bool = True, certify_n: int = 20) -> Table1Result:
    """Build Table I from the platform catalog.

    With ``certify`` (default) each platform's canonical ``ADMV`` solution
    at ``certify_n`` uniform tasks is certified by an adaptive Monte-Carlo
    replay, stamping the table's parameters with a simulated agreement.
    """
    result = Table1Result(platforms=TABLE1_ROWS)
    if certify:
        chain = uniform_chain(certify_n)
        for platform in TABLE1_ROWS:
            solution = optimize(chain, platform, algorithm="admv")
            result.stamps.append(
                certify_solution(
                    chain,
                    platform,
                    solution,
                    label=f"uniform n={certify_n} ADMV",
                )
            )
    return result
