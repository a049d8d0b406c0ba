"""Unified optimizer front-end.

:func:`optimize` dispatches on an algorithm name and returns a
:class:`~repro.core.result.Solution`.  Canonical names follow the paper:

=============  ==================================================== =========
name           places                                               via
=============  ==================================================== =========
``adv_star``   disk ckpts + guaranteed verifications                 DP O(n^3)
``admv_star``  disk + memory ckpts + guaranteed verifications        DP O(n^4)
``admv``       disk + memory ckpts + guaranteed + partial verifs     DP O(n^5)
``exhaustive`` any action set, brute force (small ``n`` only)        O(5^n)
=============  ==================================================== =========

Aliases accepted for convenience: ``ADV*`` / ``ADMV*`` / ``ADMV`` (paper
notation, case-insensitive) and ``single`` / ``two_level`` / ``partial``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from ..chains import TaskChain
from ..exceptions import InvalidParameterError
from ..obs import metrics as _metrics
from ..platforms import Platform
from .costs import cost_table, profile_of
from .dp_partial import optimize_partial, optimize_partial_batch
from .dp_single import optimize_single_level
from .dp_two_level import optimize_two_level, optimize_two_level_batch
from .exhaustive import exhaustive_search
from .result import Solution

__all__ = ["optimize", "optimize_batch", "ALGORITHMS", "canonical_algorithm"]

_ALIASES: dict[str, str] = {
    "adv*": "adv_star",
    "adv_star": "adv_star",
    "advstar": "adv_star",
    "single": "adv_star",
    "single_level": "adv_star",
    "admv*": "admv_star",
    "admv_star": "admv_star",
    "admvstar": "admv_star",
    "two_level": "admv_star",
    "admv": "admv",
    "partial": "admv",
    "full": "admv",
    "exhaustive": "exhaustive",
    "brute_force": "exhaustive",
}

#: Canonical algorithm names, in increasing generality order.
ALGORITHMS: tuple[str, ...] = ("adv_star", "admv_star", "admv")


def canonical_algorithm(name: str) -> str:
    """Resolve an algorithm alias to its canonical name.

    >>> canonical_algorithm("ADMV*")
    'admv_star'
    """
    key = name.strip().lower().replace("-", "_")
    try:
        return _ALIASES[key]
    except KeyError:
        known = ", ".join(sorted(set(_ALIASES.values())))
        raise InvalidParameterError(
            f"unknown algorithm {name!r}; expected one of: {known}"
        ) from None


def _run_exhaustive(
    chain: TaskChain, platform: Platform, *, costs=None
) -> Solution:
    value, schedule = exhaustive_search(
        chain, platform, algorithm="admv", costs=costs
    )
    return Solution(
        algorithm="exhaustive",
        chain=chain,
        platform=platform,
        expected_time=value,
        schedule=schedule,
    )


#: the algorithms whose DP solves K chains in one pass
_BATCHED: dict[str, Callable[..., list[Solution]]] = {
    "admv_star": optimize_two_level_batch,
    "admv": optimize_partial_batch,
}

_DISPATCH: dict[str, Callable[[TaskChain, Platform], Solution]] = {
    "adv_star": optimize_single_level,
    "admv_star": optimize_two_level,
    "admv": optimize_partial,
    "exhaustive": _run_exhaustive,
}


def optimize(
    chain: TaskChain,
    platform: Platform,
    algorithm: str = "admv",
    *,
    costs=None,
) -> Solution:
    """Compute an optimal schedule for ``chain`` on ``platform``.

    Parameters
    ----------
    chain:
        The linear task chain to protect.
    platform:
        Error rates and resilience costs.
    algorithm:
        Algorithm name or alias (see module docstring); default is the most
        general ``admv``.
    costs:
        Optional :class:`~repro.core.costs.CostProfile` with per-task
        checkpoint/verification/recovery costs (default: the platform's
        uniform scalars — the paper's model).

    Returns
    -------
    Solution
        Optimal expected makespan and an explicit schedule achieving it.

    Examples
    --------
    >>> from repro.chains import uniform_chain
    >>> from repro.platforms import HERA
    >>> sol = optimize(uniform_chain(10), HERA, algorithm="ADMV*")
    >>> sol.schedule.is_strict
    True
    """
    name = canonical_algorithm(algorithm)
    (solution,) = _run(
        name, 1, lambda: [_DISPATCH[name](chain, platform, costs=costs)]
    )
    return solution


def optimize_batch(
    weights,
    platform: Platform,
    algorithm: str = "admv",
    *,
    costs: Sequence | np.ndarray | None = None,
) -> list[Solution]:
    """:func:`optimize` for K chains: ``weights`` holds one row per chain.

    The rows may differ in length; a :class:`~repro.chains.TaskChain` row
    keeps its name in its solution and in an overflow error.  ``costs`` holds one
    :class:`~repro.core.costs.CostProfile` (or ``None``, the uniform
    model) per chain, or their :func:`~repro.core.costs.cost_table`
    stack, ``(K, 6, n + 1)`` for the longest row's ``n``.  ``admv_star``
    and ``admv`` solve all K chains in one pass of their DP
    (:func:`~repro.core.dp_two_level.optimize_two_level_batch`,
    :func:`~repro.core.dp_partial.optimize_partial_batch`); the other
    algorithms solve them one by one.  Solution ``k`` equals
    ``optimize(TaskChain(weights[k]), platform, algorithm,
    costs=costs[k])`` bit for bit, and ``dp.solves.<algorithm>`` counts
    K solves.  The rows are validated together
    (:meth:`~repro.chains.TaskChain.batch`); ``K = 0`` gives ``[]``.
    """
    name = canonical_algorithm(algorithm)
    chains = TaskChain.batch(weights)
    if not chains:
        return []
    batched = _BATCHED.get(name)
    if batched is None:
        table = cost_table(costs, len(chains), [c.n for c in chains], platform)
        return [
            optimize(chain, platform, name, costs=profile_of(row[:, : chain.n + 1]))
            for chain, row in zip(chains, table)
        ]
    return _run(name, len(chains), lambda: batched(chains, platform, costs=costs))


def _run(
    name: str, k: int, solve: Callable[[], list[Solution]]
) -> list[Solution]:
    """``solve()``'s ``k`` solutions, counted and timed when metrics are on.

    A segment whose λW overflows float64 has an unbounded expected cost,
    and an optimum built on it is inf or NaN: refused with a typed error.
    """
    reg = _metrics()
    with np.errstate(over="ignore", invalid="ignore"):
        if reg.enabled:
            reg.counter(f"dp.solves.{name}").inc(k)
            with reg.timer("dp.solve").time():
                solutions = solve()
        else:
            solutions = solve()
    for solution in solutions:
        if not math.isfinite(solution.expected_time):
            raise InvalidParameterError(
                f"the optimal expected makespan of {solution.chain.name} on "
                f"{solution.platform.name} is {solution.expected_time!r}: "
                "the segment costs overflow float64 (error rate x task "
                "weight is too large); use shorter tasks or a platform with "
                "lower rates"
            )
    return solutions
