"""Certify the ``d1``-batched ``ADMV``, ``ADMV*`` and ``ADV*`` loops bit for bit.

:func:`repro.core.dp_two_level.optimize_two_level` runs its loop
``m1``-outer with a ``d1`` vector,
:func:`repro.core.dp_single.optimize_single_level` runs ``v2``-outer
with one, and :func:`repro.core.dp_partial.optimize_partial` runs
``m1``-outer with a ``d1`` vector and a ``p1`` wavefront.  This module
keeps the loops they replaced — one ``d1`` at a time, one scan per
``(d1, m1, v2)``, and for ``ADMV`` one
:func:`~repro.core.dp_partial.scan_interval` per ``(d1, m1)`` with a
re-scan of the optimal pairs to backtrack — as the oracles, and checks
that they produce ``==`` ``Edisk``/``Emem``/``Everif1`` tables (not
merely close ones) and equal schedules on randomized chains, platforms
and cost profiles.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chains import TaskChain
from repro.core import dp_single, dp_two_level
from repro.core.dp_partial import optimize_partial, scan_interval
from repro.core.costs import CostProfile
from repro.core.dp_single import optimize_single_level
from repro.core.dp_two_level import optimize_two_level
from repro.core.factors import PairFactors
from repro.core.schedule import Action, Schedule
from repro.experiments.dag_search import stress_platform
from repro.exceptions import SolverError
from repro.platforms import TABLE1_ROWS, Platform
from repro.testing import random_cost_profile

STRESS = stress_platform()
PLATFORMS = (
    *TABLE1_ROWS,
    STRESS,
    # V* = C_M / 10: guaranteed verifications without a checkpoint pay
    # off, so the scans' optima sit at interior v1, where a change in the
    # order of the candidate operations shows in the bits
    Platform.from_costs(
        "stress-cheap-verify", lf=STRESS.lf, ls=STRESS.ls, CD=STRESS.CD,
        CM=STRESS.CM, Vg=STRESS.CM / 10.0, r=STRESS.r,
    ),
)


def _reference_verif_row(
    F: PairFactors, d1: int, m1: int, emem_d1m1: float
) -> tuple[np.ndarray, np.ndarray]:
    """``E_verif(d1, m1, v2)`` for all ``v2`` in ``[m1, n]``, one scan
    per ``v2``, and the optimal previous verification positions."""
    n = F.n
    K1 = F.rd_eff(d1) + emem_d1m1
    rm = F.rm_eff(m1)
    row = np.full(n + 1, np.inf)
    arg = np.full(n + 1, -1, dtype=np.int32)
    row[m1] = 0.0
    for v2 in range(m1 + 1, n + 1):
        lo = m1
        cand = (
            row[lo:v2]
            + F.base_g[lo:v2, v2]
            + F.cK1[lo:v2, v2] * K1
            + F.etm1[lo:v2, v2] * row[lo:v2]
            + F.esm1[lo:v2, v2] * rm
        )
        k = int(np.argmin(cand))
        row[v2] = float(cand[k])
        arg[v2] = lo + k
    return row, arg


def reference_two_level(chain, platform, costs=None):
    """``ADMV*`` one ``d1`` at a time: ``O(n^3)`` Python steps."""
    n = chain.n
    F = PairFactors(chain, platform, costs)
    CM, CD = F.costs.CM, F.costs.CD
    Emem = np.full((n + 1, n + 1), np.inf)
    arg_mem = np.full((n + 1, n + 1), -1, dtype=np.int32)
    arg_verif = np.full((n + 1, n + 1, n + 1), -1, dtype=np.int32)
    for d1 in range(n + 1):
        ev = np.full((n + 1, n + 1), np.inf)
        Emem[d1, d1] = 0.0
        for m1 in range(d1, n + 1):
            if m1 > d1:
                cand = Emem[d1, d1:m1] + ev[d1:m1, m1] + CM[m1]
                k = int(np.argmin(cand))
                Emem[d1, m1] = float(cand[k])
                arg_mem[d1, m1] = d1 + k
            row, arg = _reference_verif_row(F, d1, m1, float(Emem[d1, m1]))
            ev[m1, :] = row
            arg_verif[d1, m1, :] = arg
    Edisk = np.full(n + 1, np.inf)
    arg_disk = np.full(n + 1, -1, dtype=np.int32)
    Edisk[0] = 0.0
    for d2 in range(1, n + 1):
        cand = Edisk[:d2] + Emem[:d2, d2] + CD[d2]
        k = int(np.argmin(cand))
        Edisk[d2] = float(cand[k])
        arg_disk[d2] = k
    schedule = dp_two_level.extract_schedule(n, arg_disk, arg_mem, arg_verif)
    return Edisk, Emem, schedule


def reference_single_level(chain, platform, costs=None):
    """``ADV*`` one ``d1`` at a time: ``O(n^2)`` Python steps."""
    n = chain.n
    F = PairFactors(chain, platform, costs)
    CM, CD = F.costs.CM, F.costs.CD
    everif1 = np.full((n + 1, n + 1), np.inf)
    arg_verif = np.full((n + 1, n + 1), -1, dtype=np.int32)
    for d1 in range(n + 1):
        K1 = F.rd_eff(d1)
        rm = F.rm_eff(d1)
        row = everif1[d1]
        row[d1] = 0.0
        for v2 in range(d1 + 1, n + 1):
            lo = d1
            cand = (
                row[lo:v2]
                + F.base_g[lo:v2, v2]
                + F.cK1[lo:v2, v2] * K1
                + F.etm1[lo:v2, v2] * row[lo:v2]
                + F.esm1[lo:v2, v2] * rm
            )
            k = int(np.argmin(cand))
            row[v2] = float(cand[k])
            arg_verif[d1, v2] = lo + k
    Edisk = np.full(n + 1, np.inf)
    arg_disk = np.full(n + 1, -1, dtype=np.int32)
    Edisk[0] = 0.0
    for d2 in range(1, n + 1):
        cand = Edisk[:d2] + everif1[:d2, d2] + CM[d2] + CD[d2]
        k = int(np.argmin(cand))
        Edisk[d2] = float(cand[k])
        arg_disk[d2] = k
    schedule = dp_single._extract_schedule(n, arg_disk, arg_verif)
    return Edisk, everif1, schedule


def reference_partial(chain, platform, costs=None, *, paper_faithful=False):
    """``ADMV`` one ``d1`` at a time: one :func:`scan_interval` per
    ``(d1, m1)``, ``O(n^4)`` Python steps, then a re-scan of each optimal
    ``(d1, m1)`` pair to recover its partial-verification chains."""
    n = chain.n
    F = PairFactors(chain, platform, costs)
    CM, CD = F.costs.CM, F.costs.CD
    Emem = np.full((n + 1, n + 1), np.inf)
    arg_mem = np.full((n + 1, n + 1), -1, dtype=np.int32)
    arg_verif = np.full((n + 1, n + 1, n + 1), -1, dtype=np.int32)
    for d1 in range(n + 1):
        ev = np.full((n + 1, n + 1), np.inf)  # ev[m1, v2] for this d1
        Emem[d1, d1] = 0.0
        for m1 in range(d1, n + 1):
            if m1 > d1:
                cand = Emem[d1, d1:m1] + ev[d1:m1, m1] + CM[m1]
                k = int(np.argmin(cand))
                Emem[d1, m1] = float(cand[k])
                arg_mem[d1, m1] = d1 + k
            row, arg, _ = scan_interval(
                F,
                m1,
                F.rd_eff(d1) + float(Emem[d1, m1]),
                F.rm_eff(m1),
                paper_faithful=paper_faithful,
            )
            ev[m1, :] = row
            arg_verif[d1, m1, :] = arg
    Edisk = np.full(n + 1, np.inf)
    arg_disk = np.full(n + 1, -1, dtype=np.int32)
    Edisk[0] = 0.0
    for d2 in range(1, n + 1):
        cand = Edisk[:d2] + Emem[:d2, d2] + CD[d2]
        k = int(np.argmin(cand))
        Edisk[d2] = float(cand[k])
        arg_disk[d2] = k

    levels = np.zeros(n, dtype=np.int8)
    d2 = n
    while d2 > 0:
        d1 = int(arg_disk[d2])
        if d1 < 0 or d1 >= d2:
            raise SolverError(f"inconsistent disk backtrack at d2={d2}: {d1}")
        levels[d2 - 1] = int(Action.DISK)
        m2 = d2
        while m2 > d1:
            m1 = int(arg_mem[d1, m2])
            if m2 != d2:
                levels[m2 - 1] = max(levels[m2 - 1], int(Action.MEMORY))
            _, _, next_p = scan_interval(
                F,
                m1,
                F.rd_eff(d1) + float(Emem[d1, m1]),
                F.rm_eff(m1),
                want_chains=True,
                paper_faithful=paper_faithful,
            )
            v2 = m2
            while v2 > m1:
                v1 = int(arg_verif[d1, m1, v2])
                if v2 != m2:
                    levels[v2 - 1] = max(levels[v2 - 1], int(Action.VERIFY))
                p = int(next_p[v1, v2])
                while 0 < p < v2:
                    levels[p - 1] = max(levels[p - 1], int(Action.PARTIAL))
                    p = int(next_p[p, v2])
                v2 = v1
            m2 = m1
        d2 = d1
    return Edisk, Emem, Schedule(levels)


@st.composite
def instances(draw, max_n=30):
    """(chain, platform, costs) with n in 1..max_n and every cost model."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    platform = draw(st.sampled_from(PLATFORMS))
    n = draw(st.integers(1, max_n))
    # per-task weights from short to several MTBFs of the platform
    scale = draw(st.sampled_from([1.0, 100.0, 3000.0]))
    chain = TaskChain(rng.lognormal(0.0, 1.0, n) * scale)
    mode = draw(st.sampled_from(("uniform", "scaled", "profile", "boundary")))
    costs = None
    if mode == "scaled":
        costs = CostProfile.scaled(platform, rng.lognormal(0.0, 1.0, n))
    elif mode == "profile":
        costs = random_cost_profile(rng, n)
    elif mode == "boundary":
        base = (
            CostProfile.scaled(platform, rng.lognormal(0.0, 1.0, n))
            if draw(st.booleans())
            else CostProfile.uniform(n, platform)
        )
        costs = base.with_boundary_recovery(platform.RD, platform.RM)
    return chain, platform, costs


def _assert_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    # == on every entry, inf included; NaN never appears in these tables
    assert np.array_equal(got, want), np.argwhere(got != want)[:5]


@settings(max_examples=200, deadline=None)
@given(instances())
def test_batched_admv_star_equals_the_loop(case):
    chain, platform, costs = case
    solution = optimize_two_level(chain, platform, costs=costs)
    Edisk, Emem, schedule = reference_two_level(chain, platform, costs)
    _assert_bits(solution.diagnostics["Edisk"], Edisk)
    _assert_bits(solution.diagnostics["Emem"], Emem)
    assert solution.schedule == schedule
    assert solution.expected_time == float(Edisk[-1])


@settings(max_examples=200, deadline=None)
@given(instances())
def test_batched_adv_star_equals_the_loop(case):
    chain, platform, costs = case
    solution = optimize_single_level(chain, platform, costs=costs)
    Edisk, everif1, schedule = reference_single_level(chain, platform, costs)
    _assert_bits(solution.diagnostics["Edisk"], Edisk)
    _assert_bits(solution.diagnostics["Everif1"], everif1)
    assert solution.schedule == schedule
    assert solution.expected_time == float(Edisk[-1])


@st.composite
def partial_instances(draw):
    """(chain, platform, costs, paper_faithful) with n in 1..20."""
    chain, platform, costs = draw(instances(max_n=20))
    return chain, platform, costs, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(partial_instances())
def test_wavefront_admv_equals_the_loop(case):
    chain, platform, costs, paper_faithful = case
    solution = optimize_partial(
        chain, platform, costs=costs, paper_faithful=paper_faithful
    )
    Edisk, Emem, schedule = reference_partial(
        chain, platform, costs, paper_faithful=paper_faithful
    )
    _assert_bits(solution.diagnostics["Edisk"], Edisk)
    _assert_bits(solution.diagnostics["Emem"], Emem)
    assert solution.schedule == schedule
    assert solution.expected_time == float(Edisk[-1])
