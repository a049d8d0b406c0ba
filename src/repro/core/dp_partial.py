"""Full dynamic program ``ADMV`` with partial verifications (paper §III-B).

This is the most involved algorithm of the paper: between two guaranteed
verifications it places *partial* verifications (cost ``V``, recall ``r``),
accounting for errors that slip through (probability ``g = 1 - r``) and are
only caught further right — possibly by the closing guaranteed verification.

Paper recurrences (for fixed ``d1, m1``, writing ``Λ = λ_f + λ_s``):

* ``E_right(v1, p1, v2)`` — expected time lost executing ``T_{p1+1}..T_{v2}``
  *given* a latent silent error, following the optimal next-verification
  chain ``p2 = next(p1)``::

      E_right(p1) = (1 - e^{-λ_f W}) (T_lost(W) + R_D + E_mem(d1, m1))
                  + e^{-λ_f W} (W + V + (1-g) R_M + g E_right(p2)),
      E_right(v2) = R_M                     with W = W_{p1,p2}

* ``E⁻(v1, p1, p2, v2)`` — the expected segment cost with the left
  re-execution term removed (re-injected through the ``e^{Λ W_{p2,v2}}``
  re-execution multiplier)::

      E⁻ = e^{λ_s W} ( (e^{λ_f W}-1)/λ_f + V )
         + e^{λ_s W} (e^{λ_f W}-1) (R_D + E_mem(d1, m1))
         + (e^{Λ W}-1) E_verif(d1, m1, v1)
         + (e^{λ_s W}-1) ((1-g) R_M + g E_right(p2))

* ``E_partial(v1, p1, v2) = min_{p1 < p2 <= v2}`` of
  ``E⁻(p1, p2) e^{Λ W_{p2,v2}} + E_partial(v1, p2, v2)`` for ``p2 < v2`` and
  ``E⁻(p1, v2) + e^{Λ W_{p1,v2}} (V* - V)`` for ``p2 = v2``;

* ``E_verif(d1, m1, v2) = min_{v1} E_verif(d1, m1, v1) + E_partial(v1, v1, v2)``.

Affine decomposition (this implementation's speed-up)
------------------------------------------------------
The term ``K2 = E_verif(d1, m1, v1)`` enters every candidate of the
``E_partial`` minimisation affinely, and by induction its coefficient
telescopes to ``e^{Λ W_{p1,v2}} - 1`` *independently of the chosen chain*:
for ``p2 < v2`` the coefficient is
``(e^{Λ W_{p1,p2}}-1) e^{Λ W_{p2,v2}} + (e^{Λ W_{p2,v2}}-1)
= e^{Λ W_{p1,v2}} - 1``, matching the ``p2 = v2`` base case.  Therefore the
argmin does not depend on ``v1`` and::

    E_partial(v1, p1, v2) = Ehat(p1, v2) + (e^{Λ W_{p1,v2}} - 1) K2,

where ``Ehat`` is ``E_partial`` computed with ``K2 = 0``.  One scan per
``(d1, m1)`` yields every ``v1`` at once, dropping the complexity from the
paper's ``O(n^6)`` to ``O(n^5)`` (and the table space from ``O(n^5)`` to
``O(n^3)``).  ``E_verif`` then reads::

    E_verif(d1, m1, v2) = min_{v1} E_verif(d1, m1, v1) e^{Λ W_{v1,v2}}
                                   + Ehat(v1, v2).

A direct per-``v1`` reference implementation (kept in the test suite) and
the exhaustive/Markov oracle both certify the decomposition.

Paper deviations
----------------
Two terms of the paper's recurrences are priced exactly rather than as
printed; ``paper_faithful=True`` restores the printed forms.  Both touch
only the final hop ``p2 = v2`` of a scan, which ends at the guaranteed
verification, and differ by ``O(λ_f W (V* - V))`` per interval.

* The ``(V* - V)`` correction of the ``p2 = v2`` candidate.  The paper
  multiplies it by ``e^{Λ W_{p1,v2}}``.  A fail-stop error interrupts the
  segment *before* its closing verification runs, so only silent-error
  retries pay the verification again: consistency with eq. (4) requires
  ``e^{λ_s W_{p1,v2}}``, i.e. ``base_g`` instead of ``base_p`` on the
  final hop.
* The verification cost of the final ``E_right`` hop.  The paper charges
  ``V``; the hop ends at the guaranteed verification, whose cost is
  ``V*``.

Implementation notes
--------------------
Like :mod:`~repro.core.dp_two_level`, the pass runs ``m1``-outer with a
``d1`` vector and a ``K`` axis of chains: for a fixed ``m1`` the scans of
every ``d1 <= m1`` differ only in ``K1 = R_D(d1) + E_mem(d1, m1)``.
Inside a scan, ``Ehat(p1, v2)`` and ``E_right(p1, v2)`` read only the
entries ``p2 > p1`` of the same ``v2``.  So ``p1`` runs as a wavefront,
right to left: one step prices the candidates ``p2`` of every
``v2 > p1``, every ``d1 <= m1`` and every chain at once, a
``(d1, k, v2, p2)`` array whose entries ``p2 > v2`` are set to ``+inf``
before the first-minimum argmin.  The tables are laid out ``[.., v2,
p]`` so that a step reads one square block.  Each entry takes the
operations of the one-pair :func:`scan_interval` in the same order, and
the terms that do not depend on ``v2`` are formed once per step, so the
tables hold its bits.  That is ``O(n^2)`` Python steps for ``O(n^5)``
scalar work.  Each step's argmins are kept (``next_p``, ``int16``,
``d1 <= m1 <= p1 < v2``), so backtracking follows the partial chains
without re-running a scan.

Chains of different lengths share one pass padded to the longest (see
:func:`~repro.core.dp_two_level.stack_chains`).  Padding is exact
because the DP is prefix-causal: an entry at position ``j`` reads only
positions ``<= j``, and the padded prefix sums and factor matrices are
element-wise, so a chain's entries up to its own length are those of
its ``K = 1`` solve, and the masked ``p2 > v2`` slots never reach an
argmin.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from ..chains import TaskChain
from ..platforms import Platform
from .costs import CostProfile
from .dp_two_level import (
    disk_pass,
    extract_schedule,
    memory_step,
    solutions,
    stack_chains,
)
from .factors import PairFactors, factor_matrices
from .result import Solution
from .schedule import Schedule

__all__ = ["optimize_partial", "optimize_partial_batch", "scan_interval"]


def scan_interval(
    F: PairFactors,
    m1: int,
    K1: float,
    rm: float,
    *,
    want_chains: bool = False,
    paper_faithful: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Run the partial-verification scan for one ``(d1, m1)`` pair.

    This is the one-pair reference of the batched pass of
    :func:`optimize_partial_batch`, which runs the same per-entry
    operations for every pair and chain at once; the test suite's oracles
    call it.

    Parameters
    ----------
    F:
        Precomputed pair factors for the instance.
    m1:
        Left end of the interval (position of the last memory checkpoint).
    K1:
        ``R_D(d1) + E_mem(d1, m1)`` — the disk-rollback re-execution cost.
    rm:
        Effective memory recovery cost ``R_M`` (0 when ``m1 == 0``).
    want_chains:
        Also return the ``next_p[p1, v2]`` successor table needed to extract
        partial-verification positions.

    Returns
    -------
    everif_row:
        ``everif_row[v2] = E_verif(d1, m1, v2)`` for ``v2`` in ``[m1, n]``.
    arg_v1:
        ``arg_v1[v2]`` = optimal previous guaranteed verification.
    next_p:
        ``next_p[p1, v2]`` = optimal next verification after ``p1`` inside a
        guaranteed-verification interval ending at ``v2`` (or None).
    """
    n = F.n
    platform = F.platform
    Vp_at, Vg_at = F.costs.Vp, F.costs.Vg
    g = platform.g
    rm_mix = (1.0 - g) * rm  # (1-g) R_M term of E⁻ / E_right

    everif_row = np.full(n + 1, np.inf)
    arg_v1 = np.full(n + 1, -1, dtype=np.int32)
    everif_row[m1] = 0.0
    next_p = (
        np.full((n + 1, n + 1), -1, dtype=np.int32) if want_chains else None
    )

    # Per-v2 scratch buffers (re-filled each iteration).
    ehat = np.empty(n + 1)
    eright = np.empty(n + 1)

    for v2 in range(m1 + 1, n + 1):
        # Right-to-left scan over p1; candidates p2 in (p1, v2].
        ehat[v2] = 0.0  # sentinel: "E_partial contribution of p2 = v2"
        eright[v2] = rm
        for p1 in range(v2 - 1, m1 - 1, -1):
            sl = slice(p1 + 1, v2 + 1)
            # E⁻(p1, p2) with K2 = 0, vector over p2 in (p1, v2]:
            em = (
                F.base_p[p1, sl]
                + F.cK1[p1, sl] * K1
                + F.esm1[p1, sl] * (rm_mix + g * eright[sl])
            )
            cand = em * F.etot[sl, v2] + ehat[sl]
            # p2 = v2 candidate: no re-execution multiplier, and the closing
            # verification is guaranteed, hence the (V* - V) correction.
            # The paper multiplies the correction by e^{Λ W_{p1,v2}}; exact
            # consistency with eq. (4) requires e^{λ_s W_{p1,v2}} (see
            # "Paper deviations" in the module docstring).
            corr = F.etot[p1, v2] if paper_faithful else F.es[p1, v2]
            cand[-1] += corr * (Vg_at[v2] - Vp_at[v2])
            k = int(np.argmin(cand))
            p2 = p1 + 1 + k
            ehat[p1] = float(cand[k])
            if next_p is not None:
                next_p[p1, v2] = p2
            # E_right(p1) through the optimal successor p2.  The final hop
            # ends at the guaranteed verification, whose cost is V*, not V
            # (the second paper deviation).
            if p2 < v2 or paper_faithful:
                hop_cost = float(Vp_at[p2 if p2 < v2 else v2])
            else:
                hop_cost = float(Vg_at[v2])
            eright[p1] = F.pf[p1, p2] * (F.tlost[p1, p2] + K1) + (
                1.0 - F.pf[p1, p2]
            ) * (F.W[p1, p2] + hop_cost + rm_mix + g * eright[p2])

        cand_v1 = everif_row[m1:v2] * F.etot[m1:v2, v2] + ehat[m1:v2]
        k = int(np.argmin(cand_v1))
        everif_row[v2] = float(cand_v1[k])
        arg_v1[v2] = m1 + k

    return everif_row, arg_v1, next_p


def optimize_partial(
    chain: TaskChain,
    platform: Platform,
    *,
    paper_faithful: bool = False,
    costs: CostProfile | None = None,
) -> Solution:
    """Optimal schedule with partial verifications (``ADMV``).

    Parameters
    ----------
    paper_faithful:
        Use the paper's literal ``e^{Λ W}(V* - V)`` correction and
        ``V``-priced final ``E_right`` hop instead of the exact variants
        (see "Paper deviations" in the module docstring); the difference
        is ``O(λ_f W (V*-V))`` per interval — negligible on realistic
        platforms but measurable against the exact Markov oracle.
    """
    (solution,) = optimize_partial_batch(
        [chain], platform, costs=[costs], paper_faithful=paper_faithful
    )
    return solution


def optimize_partial_batch(
    chains: Sequence[TaskChain],
    platform: Platform,
    *,
    costs: Sequence[CostProfile | None] | np.ndarray | None = None,
    paper_faithful: bool = False,
) -> list[Solution]:
    """``ADMV`` for K chains of any lengths in one pass of the DP.

    ``costs`` holds one profile (or ``None``, the uniform model) per
    chain, or their :func:`~repro.core.costs.cost_table` stack; shorter
    chains are padded (see :func:`~repro.core.dp_two_level.stack_chains`).
    Solution ``k`` is the one :func:`optimize_partial` gives for
    ``chains[k]`` alone, bit for bit.
    """
    K = len(chains)
    if K == 0:
        return []
    n, prefix, table = stack_chains(chains, platform, costs)
    Vg, Vp = table[:, 4], table[:, 5]
    F = factor_matrices(prefix, platform, Vg, Vp)
    base_p, cK1, esm1, pf, tlost = (
        F[name] for name in ("base_p", "cK1", "esm1", "pf", "tlost")
    )
    RD, RM = table[:, 2].T, table[:, 3]
    g = platform.g
    # the final hop of a scan ends at the guaranteed verification: the
    # (V* - V) correction of its E_partial candidate, and the cost of the
    # closing verification in E_right (see "Paper deviations")
    corr = (F["etot"] if paper_faithful else F["es"]) * (Vg - Vp)[:, None, :]
    W_hop = F["W"] + Vp[:, None, :]  # W_{p1,p2} + V, p2 < v2
    W_last = F["W"] + (Vp if paper_faithful else Vg)[:, None, :]  # p2 = v2
    etot = F["etot"]
    etot_t = etot.transpose(0, 2, 1).copy()  # etot_t[k, v2, p2]
    index = np.arange((n + 1) ** 2 * K)
    masked = index[None, : n + 1] > index[: n + 1, None]  # [v2, p2]: p2 > v2
    chain_index = index[:K, None]

    # Emem[d1, k, m2], ev[m1, d1, k, v2] = E_verif(d1, m1, v2) and their
    # argmin tables, as in optimize_two_level_batch
    Emem = np.full((n + 1, K, n + 1), np.inf)
    arg_mem = np.full((n + 1, K, n + 1), -1, dtype=np.int32)
    ev = np.full((n + 1, n + 1, K, n + 1), np.inf)
    arg_verif = np.full((n + 1, n + 1, K, n + 1), -1, dtype=np.int32)
    # next_p[m1][p1 - m1, d1, k, v2] = next(p1) - p1 - 1 in the scan of
    # (d1, m1) for the guaranteed interval ending at v2
    next_p: list[np.ndarray] = []
    # the scan of the current m1: Ehat[d1, k, v2, p] = Ehat(p, v2) and
    # Eright[d1, k, v2, p] = E_right(p, v2); the slots p > v2 keep +inf
    # and 0, the diagonal the sentinels Ehat(v2, v2) = 0 and
    # E_right(v2, v2) = R_M(m1)
    Ehat = np.full((n + 1, K, n + 1, n + 1), np.inf)
    Ehat.reshape(n + 1, K, -1)[:, :, :: n + 2] = 0.0
    Eright = np.zeros((n + 1, K, n + 1, n + 1))

    for m1 in range(n + 1):
        memory_step(Emem, arg_mem, ev, table[:, 1], m1, index)
        d = m1 + 1
        K1 = (RD[:d] + Emem[:d, :, m1])[:, :, None]
        rm = RM[:, m1]
        rm_mix = ((1.0 - g) * rm)[:, None]  # (1-g) R_M term of E⁻ / E_right
        Eright.reshape(n + 1, K, -1)[:d, :, :: n + 2] = rm[:, None]
        eh, er = Ehat[:d], Eright[:d]

        # The p1 wavefront: E_partial and E_right at p1 read only entries
        # p2 > p1 of the same v2, so one step serves every v2 > p1 and
        # every d1 <= m1, the candidates p2 > v2 masked to +inf.
        nxt = np.empty((n - m1, d, K, n + 1), dtype=np.int16)
        next_p.append(nxt)
        for p1 in range(n - 1, m1 - 1, -1):
            L = n - p1
            s = slice(p1 + 1, n + 1)
            # E⁻(p1, p2) with K2 = 0 over (v2, p2); its first two terms
            # do not depend on v2
            fixed = base_p[:, p1, s] + cK1[:, p1, s] * K1
            ger = g * er[:, :, s, s]
            retry = rm_mix[:, :, None] + ger
            em = fixed[:, :, None, :] + esm1[:, p1, None, s] * retry
            cand = em * etot_t[:, s, s] + eh[:, :, s, s]
            # p2 = v2: no re-execution multiplier (etot = 1, Ehat = 0) and
            # the closing verification is guaranteed
            cand.reshape(d, K, L * L)[:, :, :: L + 1] += corr[:, p1, s]
            np.copyto(cand, np.inf, where=masked[s, s])
            k = cand.argmin(axis=3)
            pos = index[: d * K * L] * L + k.reshape(-1)
            eh[:, :, s, p1] = cand.reshape(-1)[pos].reshape(d, K, L)
            nxt[p1 - m1, :, :, s] = k
            # E_right(p1, v2) through the optimal successor p2
            p2 = k + (p1 + 1)
            pf_k = pf[chain_index, p1, p2]
            w_hop = np.where(
                p2 == index[p1 + 1 : n + 1],
                W_last[chain_index, p1, p2],
                W_hop[chain_index, p1, p2],
            )
            lost = pf_k * (tlost[chain_index, p1, p2] + K1)
            ger_k = ger.reshape(-1)[pos].reshape(d, K, L)
            er[:, :, s, p1] = lost + (1.0 - pf_k) * (w_hop + rm_mix + ger_k)

        # E_verif(d1, m1, v2) = min_v1 E_verif(d1, m1, v1) e^{Λ W_{v1,v2}}
        #                               + Ehat(v1, v2)
        block = ev[m1, :d]
        block[:, :, m1] = 0.0
        rows = block.reshape(d * K, n + 1)
        args = arg_verif[m1, :d].reshape(d * K, n + 1)
        flat = index[: d * K]
        for v2 in range(m1 + 1, n + 1):
            cand = (
                block[:, :, m1:v2] * etot[:, m1:v2, v2] + eh[:, :, v2, m1:v2]
            ).reshape(d * K, v2 - m1)
            k = cand.argmin(axis=1)
            rows[:, v2] = cand[flat, k]
            args[:, v2] = k
        args[:, m1 + 1 :] += m1  # scan offsets to positions v1

    Edisk, arg_disk = disk_pass(Emem, table[:, 0])

    def schedule_of(c: int) -> Schedule:
        def partials(d1: int, m1: int, v1: int, v2: int) -> Iterator[int]:
            p = v1 + 1 + int(next_p[m1][v1 - m1, d1, c, v2])
            while p < v2:
                yield p
                p += 1 + int(next_p[m1][p - m1, d1, c, v2])

        return extract_schedule(
            chains[c].n,
            arg_disk[:, c],
            arg_mem[:, c],
            arg_verif[:, :, c].transpose(1, 0, 2),
            partials,
        )

    return solutions("admv", chains, platform, Edisk, Emem, schedule_of)
