"""Precomputed per-segment-pair factor matrices for the dynamic programs.

Every recurrence of the paper combines a handful of exponentials of segment
weights ``W_{i,j}``.  :func:`factor_matrices` builds all ``(n+1) x (n+1)``
factor matrices of K chains at once with vectorized numpy broadcasting,
after which the DP inner loops are pure slice-multiply-add operations with
no transcendental calls (see the hpc-parallel guide: hoist work out of the
hot loop, keep it vectorized).  :class:`PairFactors` holds one chain's
matrices for the single- and partial-verification DPs; ``ADMV*`` stacks
K chains.

Matrix glossary (entry ``[i, j]`` refers to the segment ``W_{i,j}``; only the
upper triangle ``i <= j`` is meaningful):

=========  ==========================================================
``W``      segment weights ``prefix[j] - prefix[i]``
``es``     ``e^{λ_s W}``
``efm1``   ``e^{λ_f W} - 1``         (``expm1`` accuracy)
``esm1``   ``e^{λ_s W} - 1``
``etot``   ``e^{(λ_f+λ_s) W}``
``etm1``   ``e^{(λ_f+λ_s) W} - 1``
``pf``     ``1 - e^{-λ_f W}``         (fail-stop probability)
``tlost``  expected lost time, eq. (3)
``base_g`` ``e^{λ_s W} (φ_f(W) + V*)``  — constant part of eq. (4)
``base_p`` ``e^{λ_s W} (φ_f(W) + V)``   — same with a partial verification
``cK1``    ``e^{λ_s W} (e^{λ_f W} - 1)`` — coefficient of ``R_D + E_mem``
=========  ==========================================================

where ``φ_f(W) = (e^{λ_f W} - 1)/λ_f`` (limit ``W`` when ``λ_f = 0``).
"""

from __future__ import annotations

import numpy as np

from ..chains import TaskChain
from ..platforms import Platform
from .costs import CostProfile

__all__ = ["PairFactors", "factor_matrices"]


class PairFactors:
    """All pairwise factor matrices for one ``(chain, platform)`` instance.

    An optional :class:`~repro.core.costs.CostProfile` makes every cost
    position-dependent; the verification costs enter the ``base_g`` /
    ``base_p`` matrices through their *column* index (the verified task),
    so the DP inner loops are unchanged.
    """

    __slots__ = (
        "chain",
        "platform",
        "costs",
        "n",
        "W",
        "es",
        "efm1",
        "esm1",
        "etot",
        "etm1",
        "pf",
        "tlost",
        "base_g",
        "base_p",
        "cK1",
    )

    def __init__(
        self,
        chain: TaskChain,
        platform: Platform,
        costs: CostProfile | None = None,
    ) -> None:
        self.chain = chain
        self.platform = platform
        self.costs = costs if costs is not None else CostProfile.uniform(
            chain.n, platform
        )
        self.n = chain.n
        matrices = factor_matrices(
            chain.prefix, platform, self.costs.Vg, self.costs.Vp
        )
        for name, matrix in matrices.items():
            matrix.setflags(write=False)
            setattr(self, name, matrix)

    def rd_eff(self, d1: int) -> float:
        """Disk recovery cost from the checkpoint at ``T_{d1}`` (0 at T0)."""
        return float(self.costs.RD[d1])

    def rm_eff(self, m1: int) -> float:
        """Memory recovery cost from the checkpoint at ``T_{m1}`` (0 at T0)."""
        return float(self.costs.RM[m1])


def factor_matrices(
    prefix: np.ndarray, platform: Platform, Vg: np.ndarray, Vp: np.ndarray
) -> dict[str, np.ndarray]:
    """Every factor matrix of the glossary for K chains at once.

    ``prefix`` holds the chains' prefix sums, ``(K, n + 1)``; ``Vg`` and
    ``Vp`` their per-position verification costs, ``(K, n + 1)``.  Each
    matrix comes back ``(K, n + 1, n + 1)``, entry ``[k, i, j]`` for the
    segment ``W_{i,j}`` of chain ``k``.  Every step is element-wise, so
    row ``k`` holds the bits a one-chain build gives.  One chain's
    ``(n + 1,)`` arrays give its ``(n + 1, n + 1)`` matrices: that is
    :class:`PairFactors`' call.
    """
    lf, ls = platform.lf, platform.ls
    W = prefix[..., None, :] - prefix[..., :, None]  # W[k, i, j] = W_{i,j}

    # λW beyond ~709 overflows the exponentials to inf — a meaningful
    # saturation (such segments have unbounded expected cost, so the
    # DPs never select them) — and subnormal rates overflow 1/λ, which
    # the series fallbacks below repair; silence both instead of warning.
    with np.errstate(over="ignore"):
        es = np.exp(ls * W)
        efm1 = np.expm1(lf * W)
        esm1 = np.expm1(ls * W)
        etm1 = np.expm1((lf + ls) * W)
        etot = etm1 + 1.0
        pf = -np.expm1(-lf * W)

    # Expected lost time to a fail-stop error, eq. (3); λ_f -> 0 gives
    # W/2 and W == 0 gives 0.  Entries below the diagonal (W < 0) are
    # never read; they are clamped to 0 to avoid spurious warnings.
    if lf > 0.0:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # Where λ_f W overflowed, W/inf vanishes and the correct
            # large-λW limit T_lost -> 1/λ_f falls out of the formula.
            tlost = 1.0 / lf - W / np.where(efm1 != 0.0, efm1, np.inf)
        # series fallback where λ_f W is too small for the subtraction
        # (see closed_form.t_lost)
        x = lf * W
        small = (x < 1e-8) & (W > 0.0)
        if np.any(small):
            tlost = np.where(small, (W / 2.0) * (1.0 - x / 6.0), tlost)
        tlost[W <= 0.0] = 0.0
    else:
        tlost = np.where(W > 0.0, W / 2.0, 0.0)

    if lf > 0.0:
        with np.errstate(over="ignore"):
            phi_f = efm1 / lf
        # series fallback where λ_f W is below float-division accuracy
        # (see closed_form.phi)
        x = lf * W
        small = x < 1e-8
        if np.any(small):
            phi_f = np.where(small, W * (1.0 + x / 2.0 + x * x / 6.0), phi_f)
    else:
        phi_f = W
    # Verification costs are paid at the *end* of a segment: broadcast
    # per-position costs over the column (destination) index.
    return {
        "W": W,
        "es": es,
        "efm1": efm1,
        "esm1": esm1,
        "etot": etot,
        "etm1": etm1,
        "pf": pf,
        "tlost": tlost,
        "base_g": es * (phi_f + Vg[..., None, :]),
        "base_p": es * (phi_f + Vp[..., None, :]),
        "cK1": es * efm1,
    }
