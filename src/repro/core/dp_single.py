"""Single-level dynamic program ``ADV*`` (paper Section IV baseline).

``ADV*`` uses only disk checkpoints (each still carrying its forced memory
checkpoint and guaranteed verification) plus additional guaranteed
verifications.  It is the simplification of the two-level DP of Section
III-A with no extra memory checkpoints: within a disk interval the last
memory checkpoint *is* the last disk checkpoint, so ``E_mem(d1, d1) = 0``
and the segment cost of eq. (4) is evaluated with ``m1 = d1``.

Recurrences::

    Everif1(d1, v2) = min_{d1 <= v1 < v2} Everif1(d1, v1) + E(d1, d1, v1, v2)
    Edisk(d2)       = min_{0 <= d1 < d2} Edisk(d1) + Everif1(d1, d2) + C_M + C_D

(the ``C_M`` shows up because every disk checkpoint is preceded by a memory
checkpoint that must be paid even though no standalone memory checkpoints
are placed).

Implementation notes
--------------------
The ``Everif1`` loop runs ``v2``-outer: one numpy step per ``v2`` prices
the candidates ``v1`` of every ``d1 < v2`` at once (only the pairs
``d1 <= v1 < v2``; the rest of the candidate matrix stays ``+inf``) and
takes each row's first minimum.  That is ``O(n)`` Python steps for
``O(n^3)`` scalar work, with the per-entry operations and argmins of the
one-``d1``-at-a-time loop, hence the same bits.
"""

from __future__ import annotations

import numpy as np

from ..chains import TaskChain
from ..exceptions import SolverError
from ..platforms import Platform
from .costs import CostProfile
from .factors import PairFactors
from .result import Solution
from .schedule import Action, Schedule

__all__ = ["optimize_single_level"]


def optimize_single_level(
    chain: TaskChain,
    platform: Platform,
    *,
    costs: CostProfile | None = None,
) -> Solution:
    """Optimal single-level schedule (``ADV*``) for ``chain`` on ``platform``.

    ``costs`` optionally makes every cost position-dependent; the default
    reproduces the paper's uniform model.
    """
    n = chain.n
    F = PairFactors(chain, platform, costs)
    CM, CD = F.costs.CM, F.costs.CD

    # everif1[d1, v2] and its argmin table.
    everif1 = np.full((n + 1, n + 1), np.inf)
    arg_verif = np.full((n + 1, n + 1), -1, dtype=np.int32)
    np.fill_diagonal(everif1, 0.0)
    # K1 = R_D(d1) + E_mem(d1, d1) = R_D(d1), and the memory rollback
    # target is the disk checkpoint
    RD, RM = F.costs.RD, F.costs.RM

    # the pairs d1 <= v1, ordered by v1: those with v1 < v2 are a prefix
    v1_all, d1_all = np.tril_indices(n + 1)
    index = np.arange(n + 1)

    for v2 in range(1, n + 1):
        # Everif1(d1, v2) for every d1 < v2 at once, over the pairs
        # d1 <= v1 < v2 only
        pairs = v2 * (v2 + 1) // 2
        d1, v1 = d1_all[:pairs], v1_all[:pairs]
        row = everif1[d1, v1]
        cand = np.full((v2, v2), np.inf)
        cand[d1, v1] = (
            row
            + F.base_g[v1, v2]
            + F.cK1[v1, v2] * RD[d1]
            + F.etm1[v1, v2] * row
            + F.esm1[v1, v2] * RM[d1]
        )
        # first minimum; a row with no finite candidate takes its scan's
        # first slot, d1
        k = np.maximum(cand.argmin(axis=1), index[:v2])
        everif1[:v2, v2] = cand[index[:v2], k]
        arg_verif[:v2, v2] = k

    Edisk = np.full(n + 1, np.inf)
    arg_disk = np.full(n + 1, -1, dtype=np.int32)
    Edisk[0] = 0.0
    for d2 in range(1, n + 1):
        cand = Edisk[:d2] + everif1[:d2, d2] + CM[d2] + CD[d2]
        k = int(np.argmin(cand))
        Edisk[d2] = float(cand[k])
        arg_disk[d2] = k

    schedule = _extract_schedule(n, arg_disk, arg_verif)
    return Solution(
        algorithm="adv_star",
        chain=chain,
        platform=platform,
        expected_time=float(Edisk[n]),
        schedule=schedule,
        diagnostics={"Edisk": Edisk, "Everif1": everif1},
    )


def _extract_schedule(
    n: int, arg_disk: np.ndarray, arg_verif: np.ndarray
) -> Schedule:
    """Backtrack: disk positions, then verification chains inside each."""
    levels = np.zeros(n, dtype=np.int8)
    d2 = n
    while d2 > 0:
        d1 = int(arg_disk[d2])
        if d1 < 0 or d1 >= d2:
            raise SolverError(f"inconsistent disk backtrack at d2={d2}: {d1}")
        levels[d2 - 1] = int(Action.DISK)
        v2 = d2
        while v2 > d1:
            v1 = int(arg_verif[d1, v2])
            if v1 < 0 or v1 >= v2:
                raise SolverError(
                    f"inconsistent verification backtrack at (d1={d1}, v2={v2})"
                )
            if v2 != d2:
                levels[v2 - 1] = max(levels[v2 - 1], int(Action.VERIFY))
            v2 = v1
        d2 = d1
    return Schedule(levels)
