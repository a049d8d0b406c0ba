"""Exact expected-makespan evaluation of a *fixed* schedule.

This module is deliberately independent from the dynamic programs: it models
the execution of a schedule as an absorbing Markov chain and solves the
first-passage-time linear system.  The dynamic programs of the paper are
validated against it (their optimal value must equal the evaluation of the
schedule they extract, and for small ``n`` the exhaustive minimum over all
schedules must match too).

Markov model
------------
Execution stops only at *verified* positions (any verification implies a
stop; checkpointed positions carry a guaranteed verification by
construction).  The state is the pair ``(position, latent?)`` where
``latent`` records an undetected silent error corrupting the current data.
``latent`` states exist only at partial-verification positions — a
guaranteed verification never lets an error through.

From state ``(s, x)``, executing the segment of work ``W`` up to the next
verified position ``s'``:

* a fail-stop error strikes first with probability ``1 - e^{-λ_f W}``: we
  lose ``T_lost(W)`` (eq. 3), pay ``R_D`` (0 if the last disk checkpoint is
  the virtual ``T0``) and restart *clean* from the last disk checkpoint —
  a fail-stop wipes memory, latent corruption included;
* otherwise we pay ``W`` plus the verification cost at ``s'``; the data is
  corrupted iff ``x`` is latent or a new silent error struck
  (prob. ``1 - e^{-λ_s W}``):

  * corruption detected (always for guaranteed, prob. ``r`` for partial):
    pay ``R_M`` (0 if the last memory checkpoint is ``T0``) and restart
    clean from the last memory checkpoint;
  * corruption missed (partial only, prob. ``g``): continue latently
    corrupted from ``s'``;
  * no corruption: pay the checkpoint costs at ``s'`` (``C_M``, then
    ``C_D``) and continue clean.

The chain absorbs after the final task's actions complete.  Expected
absorption time from the start state solves ``(I - P) x = c`` where ``c`` is
the per-state expected immediate cost.
"""

from __future__ import annotations

import numpy as np

from ..chains import TaskChain
from ..exceptions import InvalidParameterError, InvalidScheduleError
from ..platforms import Platform
from .closed_form import t_lost
from .costs import COST_NAMES, CostProfile, cost_table
from .schedule import Action, Schedule

__all__ = [
    "evaluate_schedule",
    "evaluate_schedules",
    "error_free_time",
    "MarkovEvaluation",
    "COST_CATEGORIES",
]

#: Cost categories of the expected-time breakdown (they sum to the total):
#: raw computation (first pass + re-executions), time lost to interrupted
#: segments, recovery transfers, verification costs, checkpoint transfers.
COST_CATEGORIES: tuple[str, ...] = (
    "work",
    "fail_stop_loss",
    "recovery",
    "verification",
    "checkpointing",
)


_CATEGORY = {name: i for i, name in enumerate(COST_CATEGORIES)}


class MarkovEvaluation:
    """Result of :func:`evaluate_schedule` with diagnostic accessors.

    Attributes
    ----------
    expected_time:
        Expected makespan of the schedule (seconds).
    state_labels:
        Human-readable labels of the Markov states, aligned with
        ``state_times``.
    state_times:
        Expected remaining time from each state (solution of the linear
        system) — useful to inspect how expensive a rollback to each
        position is.
    components:
        Expected time per :data:`COST_CATEGORIES` entry; the values sum to
        ``expected_time``.
    """

    __slots__ = ("expected_time", "state_labels", "state_times", "components")

    def __init__(
        self,
        expected_time: float,
        state_labels: list[str],
        state_times: np.ndarray,
        components: dict[str, float] | None = None,
    ) -> None:
        self.expected_time = expected_time
        self.state_labels = state_labels
        self.state_times = state_times
        self.components = components or {}

    def __float__(self) -> float:
        return self.expected_time

    def __repr__(self) -> str:
        return f"MarkovEvaluation(expected_time={self.expected_time:.6g})"

    def waste_breakdown(self, chain: TaskChain) -> dict[str, float]:
        """Split the expected time into useful work plus waste categories.

        ``re_executed_work`` is total expected computation minus the chain's
        one-pass weight; the remaining categories come straight from
        :attr:`components`.  All values sum to :attr:`expected_time`.
        """
        out = dict(self.components)
        work = out.pop("work")
        out["useful_work"] = chain.total_weight
        out["re_executed_work"] = work - chain.total_weight
        return out

    def render_breakdown(self, chain: TaskChain) -> str:
        """Human-readable waste breakdown table."""
        breakdown = self.waste_breakdown(chain)
        order = [
            "useful_work",
            "re_executed_work",
            "fail_stop_loss",
            "recovery",
            "verification",
            "checkpointing",
        ]
        lines = ["expected-time breakdown:"]
        for name in order:
            value = breakdown[name]
            share = value / self.expected_time if self.expected_time else 0.0
            lines.append(f"  {name:17s} {value:12.2f}s  ({share:6.2%})")
        lines.append(f"  {'total':17s} {self.expected_time:12.2f}s")
        return "\n".join(lines)


def error_free_time(
    chain: TaskChain,
    platform: Platform,
    schedule: Schedule,
    costs: CostProfile | None = None,
) -> float:
    """Deterministic makespan with no errors: work + all action costs."""
    if costs is None:
        costs = CostProfile.uniform(chain.n, platform)
    total = chain.total_weight
    for i, action in enumerate(schedule, start=1):
        if action == Action.PARTIAL:
            total += costs.Vp[i]
        elif action >= Action.VERIFY:
            total += costs.Vg[i]
        if action >= Action.MEMORY:
            total += costs.CM[i]
        if action == Action.DISK:
            total += costs.CD[i]
    return float(total)


def evaluate_schedule(
    chain: TaskChain,
    platform: Platform,
    schedule: Schedule,
    *,
    strict: bool = True,
    costs: CostProfile | None = None,
) -> MarkovEvaluation:
    """Exact expected makespan of ``schedule`` on ``chain``/``platform``.

    The one-chain case of :func:`evaluate_schedules`.

    Parameters
    ----------
    costs:
        Optional per-task cost profile (default: the platform's uniform
        scalars, i.e. the paper's model).
    strict:
        Require the final task to be disk-checkpointed (the paper's setting).
        With ``strict=False`` the final task must still carry a guaranteed
        verification whenever ``λ_s > 0``, otherwise silent errors could
        escape undetected and "expected time to correct completion" would be
        ill-defined.

    Raises
    ------
    InvalidScheduleError
        If the schedule length does not match the chain or violates the
        rules above.
    """
    return evaluate_schedules(
        chain.weights[None, :], platform, schedule, strict=strict, costs=costs
    )[0]


def evaluate_schedules(
    weights: np.ndarray,
    platform: Platform,
    schedule: Schedule,
    *,
    strict: bool = True,
    costs: CostProfile | np.ndarray | None = None,
) -> list[MarkovEvaluation]:
    """Exact expected makespans of one schedule on ``K`` weight vectors.

    ``weights`` is a ``(K, n)`` stack of task-weight rows; every row is
    priced under the same ``schedule``.  ``costs`` takes the forms
    :func:`~repro.core.solver.optimize_batch` takes: ``None`` (the
    platform scalars), one :class:`~repro.core.costs.CostProfile`
    shared by every row, or a ``(K, 6, n + 1)``
    :func:`~repro.core.costs.cost_table` stack with row ``k``'s costs —
    :func:`~repro.core.costs.scaled_costs` builds one from per-task
    multipliers.  Row ``k`` equals, bit for bit, the evaluation of
    chain ``weights[k]`` alone: the Markov systems are assembled with
    array operations over all rows and segments, in the same order of
    operations per entry, and solved in one stacked
    :func:`numpy.linalg.solve`.

    Raises
    ------
    InvalidScheduleError
        If the schedule length does not match the rows, the schedule
        violates the rules of :func:`evaluate_schedule`, or any row's
        system is singular (a non-terminating execution).
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise InvalidParameterError(
            f"weights must be a (K, n) stack, got shape {weights.shape}"
        )
    if schedule.n != weights.shape[1]:
        raise InvalidScheduleError(
            f"schedule covers {schedule.n} tasks but the chain has "
            f"{weights.shape[1]}"
        )
    schedule.validate(strict=strict)
    n = schedule.n
    if not strict and platform.ls > 0.0 and schedule.action(n) < Action.VERIFY:
        raise InvalidScheduleError(
            "with silent errors the final task needs a guaranteed "
            "verification for the expected correct-completion time to exist"
        )
    # one shared profile is a one-row stack, broadcast over the K rows
    shared = costs is None or isinstance(costs, CostProfile)
    table = cost_table(
        [costs] if shared else costs, 1 if shared else len(weights), n, platform
    )
    cost = dict(zip(COST_NAMES, table.transpose(1, 0, 2)))
    prefix = np.zeros((weights.shape[0], n + 1))
    np.cumsum(weights, axis=1, out=prefix[:, 1:])
    if not np.all(np.isfinite(prefix[:, -1])) or np.any(weights <= 0.0):
        raise InvalidParameterError(
            "all task weights must be positive with a finite total"
        )

    layout = _Layout(schedule)
    stops = layout.stops
    pos, nxt = stops[:-1], stops[1:]
    K = weights.shape[0]
    S = layout.n_states

    # Per-segment quantities, (K, k - 1): segment j runs from stop j to
    # stop j + 1.
    lf, ls = platform.lf, platform.ls
    W = prefix[:, nxt] - prefix[:, pos]
    pf = -np.expm1(-lf * W)
    ps = -np.expm1(-ls * W)
    loss = t_lost(lf, W)
    verif = np.where(layout.partial, cost["Vp"][:, nxt], cost["Vg"][:, nxt])
    ckpt = np.where(layout.mem, cost["CM"][:, nxt], 0.0) + np.where(
        layout.disk, cost["CD"][:, nxt], 0.0
    )
    rd = cost["RD"][:, layout.last_disk]
    rm = cost["RM"][:, layout.last_mem]
    detect = np.where(layout.partial, platform.r, 1.0)

    # Per-source quantities, (K, R): one source per clean state with an
    # outgoing segment, plus one per latent state with one.
    seg, src = layout.src_segment, layout.src_state
    p_err = np.where(layout.src_latent, 1.0, ps[:, seg])
    pf_s, W_s, verif_s = pf[:, seg], W[:, seg], verif[:, seg]
    detect_s = detect[seg]

    P = np.zeros((K, S, S))
    # Per-category immediate expected costs; summing the columns gives the
    # classic cost vector, solving per column gives the waste breakdown.
    C = np.zeros((K, S, len(COST_CATEGORIES)))

    def _add(
        sel: np.ndarray | slice,
        dst: np.ndarray | None,
        prob: np.ndarray,
        **category_costs: np.ndarray,
    ) -> None:
        """Accumulate one transition of the sources ``sel`` (dst=None
        means absorption)."""
        states = src[sel]
        for name, amount in category_costs.items():
            C[:, states, _CATEGORY[name]] += prob * amount
        if dst is not None:
            P[:, states, dst] += prob

    _add(
        slice(None),
        layout.src_disk_target,
        pf_s,
        fail_stop_loss=loss[:, seg],
        recovery=rd[:, seg],
    )
    no_ff = 1.0 - pf_s
    # corrupted and detected -> memory rollback
    _add(
        slice(None),
        layout.src_mem_target,
        no_ff * p_err * detect_s,
        work=W_s,
        verification=verif_s,
        recovery=rm[:, seg],
    )
    # corrupted and missed -> latent at next stop (partial only)
    miss = layout.src_misses
    if platform.r < 1.0 and miss.size:
        _add(
            miss,
            layout.src_latent_next[miss],
            (no_ff * p_err * (1.0 - detect_s))[:, miss],
            work=W_s[:, miss],
            verification=verif_s[:, miss],
        )
    # clean arrival -> pay checkpoints, move on (or absorb after the
    # final stop's checkpoint completes)
    arrive = no_ff * (1.0 - p_err)
    moves, absorbs = layout.src_moves, layout.src_absorbs
    for sel, dst in ((moves, seg[moves] + 1), (absorbs, None)):
        _add(
            sel,
            dst,
            arrive[:, sel],
            work=W_s[:, sel],
            verification=verif_s[:, sel],
            checkpointing=ckpt[:, seg[sel]],
        )

    A = np.eye(S) - P
    try:
        X = np.linalg.solve(A, C)
    except np.linalg.LinAlgError as exc:
        raise InvalidScheduleError(
            f"schedule induces a non-terminating execution ({exc})"
        ) from exc
    x = X.sum(axis=-1)
    return [
        MarkovEvaluation(
            float(x[row, 0]),
            layout.labels,
            x[row],
            dict(zip(COST_CATEGORIES, X[row, 0].tolist())),
        )
        for row in range(K)
    ]


class _Layout:
    """The Markov state space and transition targets of one schedule.

    It depends on the schedule alone, never on weights or costs, so every
    row of a batch shares it.  Stops are the verified positions preceded
    by the virtual start 0; state ``j`` is "clean at stop ``j``" and the
    latent states follow, one per partial-verification stop.
    """

    def __init__(self, schedule: Schedule) -> None:
        stops = [0] + schedule.verified_positions
        k = len(stops)
        actions = [schedule.action(p) for p in stops[1:]]
        self.stops = np.asarray(stops, dtype=np.intp)
        # per segment j (stop j -> stop j + 1), keyed by the arrival stop
        self.partial = np.asarray([a == Action.PARTIAL for a in actions])
        self.mem = np.asarray([a >= Action.MEMORY for a in actions])
        self.disk = np.asarray([a == Action.DISK for a in actions])

        # Stop index of the last memory / disk checkpoint at or before
        # each stop: the clean state a rollback lands in.
        mem_j, disk_j = [0] * k, [0] * k
        for j in range(1, k):
            a = actions[j - 1]
            mem_j[j] = j if a >= Action.MEMORY else mem_j[j - 1]
            disk_j[j] = j if a == Action.DISK else disk_j[j - 1]
        # per segment: the positions whose recovery costs a rollback pays
        self.last_mem = self.stops[mem_j[:-1]]
        self.last_disk = self.stops[disk_j[:-1]]

        latent_stops = [j for j in range(1, k) if actions[j - 1] == Action.PARTIAL]
        latent = {j: k + i for i, j in enumerate(latent_stops)}
        self.n_states = k + len(latent)
        self.labels = [f"T{p}:clean" for p in stops] + [
            f"T{stops[j]}:latent" for j in latent_stops
        ]

        # Sources: every clean state with an outgoing segment, then every
        # latent one.
        segments = list(range(k - 1)) + [j for j in latent_stops if j < k - 1]
        self.src_segment = seg = np.asarray(segments, dtype=np.intp)
        self.src_state = np.asarray(
            list(range(k - 1)) + [latent[j] for j in segments[k - 1 :]],
            dtype=np.intp,
        )
        self.src_latent = np.arange(len(segments)) >= k - 1
        self.src_disk_target = np.asarray(disk_j, dtype=np.intp)[seg]
        self.src_mem_target = np.asarray(mem_j, dtype=np.intp)[seg]
        self.src_latent_next = np.asarray(
            [latent.get(j + 1, -1) for j in segments], dtype=np.intp
        )
        self.src_misses = np.flatnonzero(self.src_latent_next >= 0)
        final = seg == k - 2
        self.src_moves = np.flatnonzero(~final)
        self.src_absorbs = np.flatnonzero(final)
