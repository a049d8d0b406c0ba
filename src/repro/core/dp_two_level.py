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
All candidate evaluations are numpy expressions over the factor
matrices of :func:`~repro.core.factors.factor_matrices`.  Every
``(d1, m1)`` pair runs the same verification scan; the pairs differ only
in the scalar ``K1 = R_D(d1) + E_mem(d1, m1)``.  So the loop runs
``m1``-outer with a ``d1`` vector: per ``m1``, one step computes
``E_mem(d1, m1)`` for every ``d1 < m1`` (the slots ``m < d1`` stay
``+inf``), then one ``(m1 + 1) x (v2 - m1)`` step per ``v2`` extends
``E_verif(d1, m1, .)`` for every ``d1 <= m1``.  That is ``O(n^2)`` Python
steps for ``O(n^4)`` scalar work, with the per-entry operations and the
first-minimum argmins of the one-``d1``-at-a-time loop, hence the same
bits.

A second axis, ``K``, stacks chains: their factor matrices, cost arrays
and tables carry a chain index, and every step above runs once for all
``K`` chains (:func:`optimize_two_level_batch`; :func:`optimize_two_level`
is its ``K = 1`` call).  Chains of different lengths are padded to the
longest, which is exact because every entry reads only positions at or
before its own (:func:`stack_chains`).  The ``E_verif``
tables are laid out ``[m1, d1, k, v2]`` so that the rows one ``m1`` step
extends, ``E_verif(d1, m1, .)`` for ``d1 <= m1`` and every chain, are
one contiguous block; ``E_mem`` is laid out ``[d1, k, m2]`` so that its
scans run along the last axis.  A step's candidates form a
``(d, K, L)`` array whose flattened ``(d·K, L)`` view takes the argmin
and the gather of the minima, which go back through the same flattened
view of the table.  Two loop invariants are hoisted out of the ``v2``
loop: the ``R_M(m1)`` products, taken once per ``m1`` for every
``(v1, v2)``, and the shift of the argmins from scan offsets to
positions.  So at ``K = 1`` a step runs fewer numpy calls than the
one-chain loop did, on 3-D operands.  The ``E_verif`` table
(``K (n+1)^3`` floats) and the argmin tables (``int32``) are kept for
exact schedule extraction.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

import numpy as np

from ..chains import TaskChain
from ..exceptions import SolverError
from ..platforms import Platform
from .costs import CostProfile, cost_table
from .factors import factor_matrices
from .result import Solution
from .schedule import Action, Schedule

__all__ = ["optimize_two_level", "optimize_two_level_batch"]


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
    (solution,) = optimize_two_level_batch([chain], platform, costs=[costs])
    return solution


def optimize_two_level_batch(
    chains: Sequence[TaskChain],
    platform: Platform,
    *,
    costs: Sequence[CostProfile | None] | np.ndarray | None = None,
) -> list[Solution]:
    """``ADMV*`` for K chains of any lengths in one pass of the DP.

    ``costs`` holds one profile (or ``None``, the uniform model) per
    chain, or their :func:`~repro.core.costs.cost_table` stack.  Chains
    shorter than the longest are padded (see :func:`stack_chains`).
    Solution ``k`` is the one :func:`optimize_two_level` gives for
    ``chains[k]`` alone, bit for bit.
    """
    K = len(chains)
    if K == 0:
        return []
    n, prefix, table = stack_chains(chains, platform, costs)
    F = factor_matrices(prefix, platform, table[:, 4], table[:, 5])
    base_g, cK1, etm1, esm1 = F["base_g"], F["cK1"], F["etm1"], F["esm1"]
    RD, RM = table[:, 2].T, table[:, 3]
    index = np.arange((n + 1) * K)

    # Emem[d1, k, m2] = E_mem(d1, m2) of chain k; arg_mem[d1, k, m2] =
    # optimal previous memory position m1.
    Emem = np.full((n + 1, K, n + 1), np.inf)
    arg_mem = np.full((n + 1, K, n + 1), -1, dtype=np.int32)
    # ev[m1, d1, k, v2] = E_verif(d1, m1, v2); arg_verif[m1, d1, k, v2] =
    # optimal previous verification position v1.
    ev = np.full((n + 1, n + 1, K, n + 1), np.inf)
    arg_verif = np.full((n + 1, n + 1, K, n + 1), -1, dtype=np.int32)

    for m1 in range(n + 1):
        memory_step(Emem, arg_mem, ev, table[:, 1], m1, index)

        # E_verif(d1, m1, v2) for every d1 <= m1 at once: the rows share
        # the scan over v1 in [m1, v2) and differ only in
        # K1 = R_D(d1) + E_mem(d1, m1).
        d = m1 + 1
        K1 = (RD[:d] + Emem[:d, :, m1])[:, :, None]
        # R_M(m1) does not change along the scan: its products for every
        # (v1, v2) at once
        rm_term = esm1[:, m1:] * RM[:, m1, None, None]
        block = ev[m1, :d]  # (d, K, n + 1), contiguous: filled left to right
        block[:, :, m1] = 0.0
        rows = block.reshape(d * K, n + 1)
        args = arg_verif[m1, :d].reshape(d * K, n + 1)
        flat = index[: d * K]
        for v2 in range(m1 + 1, n + 1):
            L = v2 - m1
            scan = block[:, :, m1:v2]
            cand = (
                scan
                + base_g[:, m1:v2, v2]
                + cK1[:, m1:v2, v2] * K1
                + etm1[:, m1:v2, v2] * scan
                + rm_term[:, :L, v2]
            ).reshape(d * K, L)
            k = cand.argmin(axis=1)
            rows[:, v2] = cand[flat, k]
            args[:, v2] = k
        args[:, m1 + 1 :] += m1  # scan offsets to positions v1

    Edisk, arg_disk = disk_pass(Emem, table[:, 0])
    return solutions(
        "admv_star",
        chains,
        platform,
        Edisk,
        Emem,
        lambda c: extract_schedule(
            chains[c].n,
            arg_disk[:, c],
            arg_mem[:, c],
            arg_verif[:, :, c].transpose(1, 0, 2),
        ),
    )


def stack_chains(
    chains: Sequence[TaskChain],
    platform: Platform,
    costs: Sequence[CostProfile | None] | np.ndarray | None,
) -> tuple[int, np.ndarray, np.ndarray]:
    """The longest length ``n`` and the padded ``(K, n + 1)`` prefix sums
    and ``(K, 6, n + 1)`` cost table of K chains of any lengths.

    A shorter chain is padded with zero weights and zero costs.  The
    padding is never read: every table entry at a position ``j`` of the
    DPs reads only positions ``<= j``, and the factor matrices are built
    element by element, so chain ``k``'s entries up to its own length
    hold the bits of its ``K = 1`` solve.
    """
    lengths = [chain.n for chain in chains]
    n = max(lengths)
    table = cost_table(costs, len(chains), lengths, platform)
    prefix = np.empty((len(chains), n + 1))
    for row, chain in zip(prefix, chains):
        row[: chain.n + 1] = chain.prefix
        row[chain.n + 1 :] = chain.prefix[-1]
    return n, prefix, table


def memory_step(
    Emem: np.ndarray,
    arg_mem: np.ndarray,
    ev: np.ndarray,
    CM: np.ndarray,
    m1: int,
    index: np.ndarray,
) -> None:
    """Fill ``E_mem(d1, m1)`` for every ``d1 <= m1`` and every chain.

    Row ``d1 < m1`` scans the previous memory positions ``m`` in
    ``[d1, m1)``: ``E_mem(d1, m) + E_verif(d1, m, m1) + C_M(m1)``, laid
    out as in :func:`optimize_two_level_batch`.  Its slots ``m < d1``
    hold ``+inf``: neither ``E_mem(d1, .)`` nor ``E_verif(d1, ., .)`` is
    written there.
    """
    K = Emem.shape[1]
    if m1 > 0:
        cand = (
            Emem[:m1, :, :m1]
            + ev[:m1, :m1, :, m1].transpose(1, 2, 0)
            + CM[:, m1, None]
        )
        # first minimum; a row with no finite candidate takes its scan's
        # first slot, d1
        k = np.maximum(cand.argmin(axis=2), index[:m1, None])
        Emem[:m1, :, m1] = cand.reshape(m1 * K, m1)[
            index[: m1 * K], k.reshape(-1)
        ].reshape(m1, K)
        arg_mem[:m1, :, m1] = k
    Emem[m1, :, m1] = 0.0


def disk_pass(Emem: np.ndarray, CD: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``E_disk`` of every chain, ``(n + 1, K)``, and its argmin table."""
    n, K = Emem.shape[0] - 1, Emem.shape[1]
    Edisk = np.full((n + 1, K), np.inf)
    arg_disk = np.full((n + 1, K), -1, dtype=np.int32)
    Edisk[0] = 0.0
    chain_index = np.arange(K)
    for d2 in range(1, n + 1):
        cand = Edisk[:d2] + Emem[:d2, :, d2] + CD[:, d2]
        k = cand.argmin(axis=0)
        Edisk[d2] = cand[k, chain_index]
        arg_disk[d2] = k
    return Edisk, arg_disk


def solutions(
    algorithm: str,
    chains: Sequence[TaskChain],
    platform: Platform,
    Edisk: np.ndarray,
    Emem: np.ndarray,
    schedule_of: Callable[[int], Schedule],
) -> list[Solution]:
    """One :class:`Solution` per chain, each read at its own length."""
    out = []
    for c, chain in enumerate(chains):
        m = chain.n + 1
        out.append(
            Solution(
                algorithm=algorithm,
                chain=chain,
                platform=platform,
                expected_time=float(Edisk[chain.n, c]),
                schedule=schedule_of(c),
                diagnostics={"Edisk": Edisk[:m, c], "Emem": Emem[:m, c, :m]},
            )
        )
    return out


def extract_schedule(
    n: int,
    arg_disk: np.ndarray,
    arg_mem: np.ndarray,
    arg_verif: np.ndarray,
    partials: Callable[[int, int, int, int], Iterable[int]] | None = None,
) -> Schedule:
    """Backtrack the argmin tables into an explicit :class:`Schedule`.

    ``arg_mem[d1, m2]`` and ``arg_verif[d1, m1, v2]`` are one chain's
    tables.  ``partials(d1, m1, v1, v2)``, when given, yields the partial
    verifications strictly inside the guaranteed interval ``(v1, v2)``.
    """
    levels = np.zeros(n, dtype=np.int8)

    d2 = n
    while d2 > 0:
        d1 = int(arg_disk[d2])
        if d1 < 0 or d1 >= d2:
            raise SolverError(f"inconsistent disk backtrack at d2={d2}: {d1}")
        levels[d2 - 1] = int(Action.DISK)
        # memory checkpoints within (d1, d2)
        m2 = d2
        while m2 > d1:
            m1 = int(arg_mem[d1, m2])
            if m1 < 0 or m1 >= m2:
                raise SolverError(
                    f"inconsistent memory backtrack at (d1={d1}, m2={m2})"
                )
            if m2 != d2:
                levels[m2 - 1] = max(levels[m2 - 1], int(Action.MEMORY))
            # guaranteed verifications within (m1, m2)
            v2 = m2
            while v2 > m1:
                v1 = int(arg_verif[d1, m1, v2])
                if v1 < 0 or v1 >= v2:
                    raise SolverError(
                        f"inconsistent verification backtrack at "
                        f"(d1={d1}, m1={m1}, v2={v2})"
                    )
                if v2 != m2:
                    levels[v2 - 1] = max(levels[v2 - 1], int(Action.VERIFY))
                if partials is not None:
                    for p in partials(d1, m1, v1, v2):
                        levels[p - 1] = max(levels[p - 1], int(Action.PARTIAL))
                v2 = v1
            m2 = m1
        d2 = d1

    return Schedule(levels)
