"""Two-level dynamic program ``ADMV*`` (paper Section III-A).

Places disk checkpoints, memory checkpoints and guaranteed verifications (no
partial verifications) to minimise the expected makespan of a linear chain.

Three nested recurrences, all initialised at the virtual task ``T0`` (disk
checkpointed, zero recovery cost):

.. math::

    E_{disk}(d_2) &= \\min_{0 \\le d_1 < d_2}
        E_{disk}(d_1) + E_{mem}(d_1, d_2) + C_D \\\\
    E_{mem}(d_1, m_2) &= \\min_{d_1 \\le m_1 < m_2}
        E_{mem}(d_1, m_1) + E_{verif}(d_1, m_1, m_2) + C_M \\\\
    E_{verif}(d_1, m_1, v_2) &= \\min_{m_1 \\le v_1 < v_2}
        E_{verif}(d_1, m_1, v_1) + E(d_1, m_1, v_1, v_2)

with the closed-form segment cost ``E(d1, m1, v1, v2)`` of eq. (4)::

    E = e^{λ_s W} ( (e^{λ_f W}-1)/λ_f + V* )
      + e^{λ_s W} (e^{λ_f W}-1) (R_D + E_mem(d1, m1))
      + (e^{(λ_s+λ_f) W} - 1) E_verif(d1, m1, v1)
      + (e^{λ_s W} - 1) R_M          where W = W_{v1,v2}.

The answer is ``E_disk(n)`` — the final task always ends with a guaranteed
verification, a memory checkpoint and a disk checkpoint.

Implementation notes
--------------------
All candidate evaluations are numpy expressions over the
:class:`~repro.core.factors.PairFactors` matrices.  Every ``(d1, m1)``
pair runs the same verification scan; the pairs differ only in the
scalar ``K1 = R_D(d1) + E_mem(d1, m1)``.  So the loop runs ``m1``-outer
with a ``d1`` vector: per ``m1``, one step computes ``E_mem(d1, m1)`` for
every ``d1 < m1`` (the slots ``m < d1`` masked with ``+inf``), then one
``(m1 + 1) x (v2 - m1)`` step per ``v2`` extends ``E_verif(d1, m1, .)``
for every ``d1 <= m1``.  That is ``O(n^2)`` Python steps for ``O(n^4)``
scalar work, with the per-entry operations and the first-minimum
argmins of the one-``d1``-at-a-time loop, hence the same bits.  The
``E_verif`` table (``(n+1)^3`` floats) and the argmin tables (``int32``)
are kept for exact schedule extraction.
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

__all__ = ["optimize_two_level"]


def optimize_two_level(
    chain: TaskChain,
    platform: Platform,
    *,
    costs: CostProfile | None = None,
) -> Solution:
    """Optimal two-level schedule (``ADMV*``) for ``chain`` on ``platform``.

    ``costs`` optionally makes every checkpoint/verification/recovery
    cost position-dependent (see :class:`~repro.core.costs.CostProfile`);
    the default reproduces the paper's uniform model.
    """
    n = chain.n
    F = PairFactors(chain, platform, costs)
    CM, CD, RD = F.costs.CM, F.costs.CD, F.costs.RD
    # below[d1, m] is True for m < d1: slots outside row d1's scan
    below = np.tri(n + 1, k=-1, dtype=bool)
    index = np.arange(n + 1)

    # Emem[d1, m2]; arg_mem[d1, m2] = optimal previous memory position m1.
    Emem = np.full((n + 1, n + 1), np.inf)
    arg_mem = np.full((n + 1, n + 1), -1, dtype=np.int32)
    # ev[d1, m1, v2] = E_verif(d1, m1, v2); arg_verif[d1, m1, v2] = optimal
    # previous verification position v1.
    ev = np.full((n + 1, n + 1, n + 1), np.inf)
    arg_verif = np.full((n + 1, n + 1, n + 1), -1, dtype=np.int32)

    for m1 in range(n + 1):
        # E_mem(d1, m1) for every d1 < m1 at once; row d1 scans the
        # previous memory positions m in [d1, m1).
        if m1 > 0:
            cand = Emem[:m1, :m1] + ev[:m1, :m1, m1] + CM[m1]
            cand[below[:m1, :m1]] = np.inf
            # first minimum; a row with no finite candidate takes its
            # scan's first slot, d1
            k = np.maximum(cand.argmin(axis=1), index[:m1])
            Emem[:m1, m1] = cand[index[:m1], k]
            arg_mem[:m1, m1] = k
        Emem[m1, m1] = 0.0

        # E_verif(d1, m1, v2) for every d1 <= m1 at once: the rows share
        # the scan over v1 in [m1, v2) and differ only in
        # K1 = R_D(d1) + E_mem(d1, m1).
        d = m1 + 1
        K1 = (RD[:d] + Emem[:d, m1])[:, None]
        rm = F.rm_eff(m1)
        rows = ev[:d, m1]  # a view: filled left to right
        rows[:, m1] = 0.0
        for v2 in range(m1 + 1, n + 1):
            cand = (
                rows[:, m1:v2]
                + F.base_g[m1:v2, v2]
                + F.cK1[m1:v2, v2] * K1
                + F.etm1[m1:v2, v2] * rows[:, m1:v2]
                + F.esm1[m1:v2, v2] * rm
            )
            k = cand.argmin(axis=1)
            rows[:, v2] = cand[index[:d], k]
            arg_verif[:d, m1, v2] = m1 + k

    Edisk = np.full(n + 1, np.inf)
    arg_disk = np.full(n + 1, -1, dtype=np.int32)
    Edisk[0] = 0.0
    for d2 in range(1, n + 1):
        cand = Edisk[:d2] + Emem[:d2, d2] + CD[d2]
        k = int(np.argmin(cand))
        Edisk[d2] = float(cand[k])
        arg_disk[d2] = k

    schedule = _extract_schedule(n, arg_disk, arg_mem, arg_verif)
    return Solution(
        algorithm="admv_star",
        chain=chain,
        platform=platform,
        expected_time=float(Edisk[n]),
        schedule=schedule,
        diagnostics={"Edisk": Edisk, "Emem": Emem},
    )


def _extract_schedule(
    n: int,
    arg_disk: np.ndarray,
    arg_mem: np.ndarray,
    arg_verif: np.ndarray,
) -> Schedule:
    """Backtrack the argmin tables into an explicit :class:`Schedule`."""
    levels = np.zeros(n, dtype=np.int8)

    d2 = n
    while d2 > 0:
        d1 = int(arg_disk[d2])
        if d1 < 0 or d1 >= d2:
            raise SolverError(f"inconsistent disk backtrack at d2={d2}: {d1}")
        levels[d2 - 1] = int(Action.DISK)
        # memory checkpoints within (d1, d2]
        m2 = d2
        while m2 > d1:
            m1 = int(arg_mem[d1, m2]) if m2 != d1 else d1
            if m2 == d2:
                pass  # level already DISK
            else:
                levels[m2 - 1] = max(levels[m2 - 1], int(Action.MEMORY))
            if m2 > d1 and m1 < 0:
                raise SolverError(
                    f"inconsistent memory backtrack at (d1={d1}, m2={m2})"
                )
            # guaranteed verifications within (m1, m2)
            v2 = m2
            while v2 > m1:
                v1 = int(arg_verif[d1, m1, v2])
                if v1 < 0 or v1 >= v2:
                    raise SolverError(
                        f"inconsistent verification backtrack at "
                        f"(d1={d1}, m1={m1}, v2={v2})"
                    )
                if v2 not in (m2,):
                    levels[v2 - 1] = max(levels[v2 - 1], int(Action.VERIFY))
                v2 = v1
            m2 = m1
        d2 = d1

    return Schedule(levels)
