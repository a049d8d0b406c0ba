"""Certify the vectorised Markov evaluator against the scalar one.

:func:`repro.core.evaluator.evaluate_schedules` assembles the first-passage
systems of ``K`` weight rows at once, over every row and segment with
array operations, and solves them in one stacked call.  This module keeps
the evaluator it replaced — one Python step per segment and per
transition, skipping zero-probability transitions — as the oracle, and
checks that both give ``==`` expected times, components and state times
(not merely close ones) on randomized schedules, including partial
verifications, ``strict=False``, heterogeneous costs and a batch with one
singular row.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chains import TaskChain
from repro.core.closed_form import t_lost
from repro.core.costs import CostProfile, scaled_costs
from repro.core.evaluator import (
    COST_CATEGORIES,
    MarkovEvaluation,
    evaluate_schedule,
    evaluate_schedules,
)
from repro.core.schedule import Action, Schedule
from repro.exceptions import InvalidParameterError, InvalidScheduleError
from repro.experiments.dag_search import stress_platform
from repro.platforms import TABLE1_ROWS, Platform
from repro.testing import random_cost_profile, random_platform

PLATFORMS = (*TABLE1_ROWS, stress_platform())


def reference_evaluate_schedule(
    chain: TaskChain,
    platform: Platform,
    schedule: Schedule,
    *,
    strict: bool = True,
    costs: CostProfile | None = None,
) -> MarkovEvaluation:
    """The scalar evaluator, one segment and one transition at a time."""
    if schedule.n != chain.n:
        raise InvalidScheduleError(
            f"schedule covers {schedule.n} tasks but the chain has {chain.n}"
        )
    schedule.validate(strict=strict)
    if not strict and platform.ls > 0.0 and schedule.action(chain.n) < Action.VERIFY:
        raise InvalidScheduleError(
            "with silent errors the final task needs a guaranteed "
            "verification for the expected correct-completion time to exist"
        )

    if costs is None:
        costs = CostProfile.uniform(chain.n, platform)
    stops = [0] + schedule.verified_positions
    k = len(stops)  # number of stop positions including virtual 0
    stop_index = {pos: j for j, pos in enumerate(stops)}

    # Last memory / disk checkpoint at or before each stop position.
    last_mem = [0] * k
    last_disk = [0] * k
    mem, disk = 0, 0
    for j, pos in enumerate(stops):
        if pos > 0:
            action = schedule.action(pos)
            if action >= Action.MEMORY:
                mem = pos
            if action == Action.DISK:
                disk = pos
        last_mem[j] = mem
        last_disk[j] = disk

    # State indexing: clean state per stop position, latent state per
    # partial-verification position.
    clean_state = {j: j for j in range(k)}
    latent_state: dict[int, int] = {}
    next_id = k
    for j, pos in enumerate(stops):
        if pos > 0 and schedule.action(pos) == Action.PARTIAL:
            latent_state[j] = next_id
            next_id += 1
    n_states = next_id

    P = np.zeros((n_states, n_states), dtype=np.float64)
    # Per-category immediate expected costs; summing the columns gives the
    # classic cost vector, solving per column gives the waste breakdown.
    C = np.zeros((n_states, len(COST_CATEGORIES)), dtype=np.float64)
    cat = {name: i for i, name in enumerate(COST_CATEGORIES)}

    lf, ls = platform.lf, platform.ls

    def _add(src: int, dst: int | None, prob: float, **category_costs: float) -> None:
        """Accumulate a transition (dst=None means absorption)."""
        if prob <= 0.0:
            return
        for name, cost in category_costs.items():
            C[src, cat[name]] += prob * cost
        if dst is not None:
            P[src, dst] += prob

    for j in range(k - 1):  # from stop j over segment to stop j+1
        pos, nxt = stops[j], stops[j + 1]
        W = chain.segment_weight(pos, nxt)
        action_next = schedule.action(nxt)
        is_partial = action_next == Action.PARTIAL
        verif_cost = float(costs.Vp[nxt] if is_partial else costs.Vg[nxt])
        detect = platform.r if is_partial else 1.0

        pf = -np.expm1(-lf * W)
        ps = -np.expm1(-ls * W)
        loss = t_lost(lf, W)
        rd = float(costs.RD[last_disk[j]])
        rm = float(costs.RM[last_mem[j]])
        disk_target = clean_state[stop_index[last_disk[j]]]
        mem_target = clean_state[stop_index[last_mem[j]]]

        ckpt_cost = 0.0
        if action_next >= Action.MEMORY:
            ckpt_cost += float(costs.CM[nxt])
        if action_next == Action.DISK:
            ckpt_cost += float(costs.CD[nxt])
        # Absorb after the final stop's checkpoint completes.
        clean_dst: int | None = clean_state[j + 1] if j + 1 < k - 1 else None

        for latent in (False, True):
            if latent and j not in latent_state:
                continue
            src = latent_state[j] if latent else clean_state[j]
            p_err = 1.0 if latent else ps

            _add(src, disk_target, pf, fail_stop_loss=loss, recovery=rd)
            no_ff = 1.0 - pf
            # corrupted and detected -> memory rollback
            _add(
                src,
                mem_target,
                no_ff * p_err * detect,
                work=W,
                verification=verif_cost,
                recovery=rm,
            )
            # corrupted and missed -> latent at next stop (partial only)
            if is_partial and detect < 1.0:
                _add(
                    src,
                    latent_state[j + 1],
                    no_ff * p_err * (1.0 - detect),
                    work=W,
                    verification=verif_cost,
                )
            # clean arrival -> pay checkpoints, move on (or absorb)
            _add(
                src,
                clean_dst,
                no_ff * (1.0 - p_err),
                work=W,
                verification=verif_cost,
                checkpointing=ckpt_cost,
            )

    A = np.eye(n_states) - P
    try:
        X = np.linalg.solve(A, C)
    except np.linalg.LinAlgError as exc:
        raise InvalidScheduleError(
            f"schedule induces a non-terminating execution ({exc})"
        ) from exc
    x = X.sum(axis=1)

    labels = [f"T{stops[j]}:clean" for j in range(k)]
    for j, sid in sorted(latent_state.items(), key=lambda kv: kv[1]):
        labels.append(f"T{stops[j]}:latent")
    components = {
        name: float(X[0, i]) for i, name in enumerate(COST_CATEGORIES)
    }
    return MarkovEvaluation(float(x[0]), labels, x, components)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
COST_MODES = ("uniform", "scaled", "profile", "boundary")


@st.composite
def batches(draw):
    """(platform, schedule, strict, weights (K, n), cost mode, rng)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    platform = draw(st.sampled_from(PLATFORMS + ("hot", "fail-stop only")))
    if platform == "hot":
        platform = random_platform(rng)
    elif platform == "fail-stop only":
        platform = random_platform(rng, with_silent=False)
    n = draw(st.integers(1, 30))
    strict = draw(st.booleans())
    levels = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    if strict:
        levels[-1] = int(Action.DISK)
    elif platform.ls > 0.0:
        levels[-1] = max(levels[-1], int(Action.VERIFY))
    # else: without silent errors any final action is allowed, even none
    k = draw(st.integers(1, 6))
    # segment rates from ~1e-4 to ~10: every branch carries real mass
    scale = draw(st.sampled_from([1.0, 100.0, 3000.0]))
    weights = rng.lognormal(0.0, 1.0, size=(k, n)) * scale
    mode = draw(st.sampled_from(COST_MODES))
    return platform, Schedule(levels), strict, weights, mode, rng


def _assert_same(got: MarkovEvaluation, want: MarkovEvaluation) -> None:
    assert got.expected_time == want.expected_time
    assert got.components == want.components
    assert got.state_labels == want.state_labels
    np.testing.assert_array_equal(got.state_times, want.state_times)


@settings(max_examples=150, deadline=None)
@given(batches())
def test_batch_rows_equal_the_scalar_evaluator(case):
    platform, schedule, strict, weights, mode, rng = case
    k, n = weights.shape
    multipliers = None
    shared = None
    if mode == "scaled":
        multipliers = rng.lognormal(0.0, 1.0, size=(k, n))
    elif mode == "profile":
        shared = random_cost_profile(rng, n)
    elif mode == "boundary":
        shared = CostProfile.scaled(
            platform, rng.lognormal(0.0, 1.0, size=n)
        ).with_boundary_recovery(platform.RD, platform.RM)
    costs = [
        CostProfile.scaled(platform, multipliers[row])
        if multipliers is not None
        else shared
        for row in range(k)
    ]
    want = []
    for row in range(k):
        try:
            want.append(
                reference_evaluate_schedule(
                    TaskChain(weights[row]),
                    platform,
                    schedule,
                    strict=strict,
                    costs=costs[row],
                )
            )
        except InvalidScheduleError:  # a non-terminating row
            want.append(None)

    stack = shared if multipliers is None else scaled_costs(platform, multipliers)

    def run():
        return evaluate_schedules(
            weights, platform, schedule, strict=strict, costs=stack
        )

    if None in want:
        # one singular row fails the whole batch, as it failed alone
        with pytest.raises(InvalidScheduleError, match="non-terminating"):
            run()
        return
    batch = run()
    assert len(batch) == k
    for row in range(k):
        _assert_same(batch[row], want[row])
        # the one-chain entry point is the K = 1 batch
        _assert_same(
            evaluate_schedule(
                TaskChain(weights[row]),
                platform,
                schedule,
                strict=strict,
                costs=costs[row],
            ),
            want[row],
        )


def test_singular_row_fails_the_whole_batch():
    platform = stress_platform()
    schedule = Schedule.final_only(3)
    # lf * W = 3000: the fail-stop probability rounds to exactly 1, so
    # the start state loops onto itself and I - P has a zero row
    rows = np.array([[10.0, 20.0, 30.0], [1e7, 1e7, 1e7], [5.0, 5.0, 5.0]])
    with pytest.raises(InvalidScheduleError, match="non-terminating"):
        reference_evaluate_schedule(TaskChain(rows[1]), platform, schedule)
    with pytest.raises(InvalidScheduleError, match="non-terminating"):
        evaluate_schedules(rows, platform, schedule)
    # the regular rows alone still price
    batch = evaluate_schedules(rows[[0, 2]], platform, schedule)
    assert batch[1].expected_time == reference_evaluate_schedule(
        TaskChain(rows[2]), platform, schedule
    ).expected_time


def test_costs_must_be_finite():
    """The batch adds every transition, also those of probability 0,
    where the scalar evaluator skipped them: the two agree only because
    ``0 * cost`` is exactly 0 for every finite cost.  Non-finite costs
    are therefore rejected, never silently turned into NaN."""
    platform = stress_platform()
    good = CostProfile.uniform(3, platform)
    bad = CostProfile(
        CD=np.array([0.0, 1.0, np.inf, 1.0]),
        CM=good.CM,
        RD=good.RD,
        RM=good.RM,
        Vg=good.Vg,
        Vp=good.Vp,
    )
    chain = TaskChain([1.0, 2.0, 3.0])
    with pytest.raises(InvalidParameterError, match="CD"):
        evaluate_schedule(chain, platform, Schedule.final_only(3), costs=bad)
    for profile in (
        good,
        CostProfile.scaled(platform, [0.5, 2.0, 1.0]),
        good.with_boundary_recovery(platform.RD, platform.RM),
    ):
        for name in ("CD", "CM", "RD", "RM", "Vg", "Vp"):
            arr = getattr(profile, name)
            assert np.all(np.isfinite(arr)) and np.all(arr >= 0.0)


def test_batch_rejects_bad_shapes():
    platform = stress_platform()
    schedule = Schedule.final_only(3)
    with pytest.raises(InvalidScheduleError, match="covers 3 tasks"):
        evaluate_schedules(np.ones((2, 4)), platform, schedule)
    with pytest.raises(InvalidParameterError, match=r"\(K, n\)"):
        evaluate_schedules(np.ones(3), platform, schedule)
    with pytest.raises(InvalidParameterError, match=r"\(1, 6, 4\) stack"):
        evaluate_schedules(
            np.ones((1, 3)),
            platform,
            schedule,
            costs=scaled_costs(platform, np.ones((2, 3))),
        )
