"""Shared plumbing for the paper-figure experiment drivers.

Every experiment module exposes ``run(...) -> <Result>`` and the result
knows how to render itself to text (``render()``), so CLI, benches and
EXPERIMENTS.md generation all share one code path.

``fast`` mode uses a coarser task grid (the ``ADMV`` DP is ``O(n^5)``; the
full 1..50 grid over four platforms is a couple of minutes, the fast grid a
few seconds) — figure *shapes* are preserved either way.

Every regenerated artefact additionally carries a **Monte-Carlo agreement
stamp** per headline solution
(:func:`repro.simulation.certify.certify_solution`); this module holds
the paper constants and renders the stamps (:func:`render_stamps`).
"""

from __future__ import annotations

from ..analysis.sweep import default_task_grid
from ..platforms import TABLE1_ROWS, Platform
from ..simulation.certify import AgreementStamp

__all__ = [
    "PAPER_ALGORITHMS",
    "PAPER_PLATFORMS",
    "EXTREME_PLATFORMS",
    "task_grid",
    "ALGORITHM_LABELS",
    "render_stamps",
]

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
