"""Heterogeneous (per-task) resilience costs — an extension of the paper.

The paper assumes uniform costs: one ``C_D``, ``C_M``, ``V*``, ``V`` for
every task.  On real platforms the checkpoint and verification costs scale
with each task's *output size*, which varies along the chain (e.g. a mesh
refinement step multiplies the state).  The dynamic programs accommodate
position-dependent costs without any structural change: every cost enters
the recurrences indexed by the position where it is paid —

* ``C_D[d2]`` / ``C_M[m2]`` at the checkpointed task,
* ``V*[v2]`` / ``V[p2]`` at the verified task,
* ``R_D[d1]`` / ``R_M[m1]`` at the rollback target
  (``R_*[0] = 0``: the virtual ``T0`` restarts for free).

A :class:`CostProfile` carries those six arrays; passing ``costs=None``
everywhere reproduces the paper's uniform model exactly (and the test
suite pins that equivalence).  The exhaustive search and Markov evaluator
accept the same profile, so heterogeneous optimality is certified by the
same oracles as the uniform case.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..chains import TaskChain
from ..exceptions import InvalidParameterError
from ..platforms import Platform

__all__ = ["CostProfile", "COST_NAMES", "cost_table", "profile_of", "scaled_costs"]

#: the per-position cost arrays of a profile, in the row order of
#: :func:`cost_table`
COST_NAMES = ("CD", "CM", "RD", "RM", "Vg", "Vp")


def _as_cost_array(
    values: Sequence[float] | np.ndarray, n: int, what: str
) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (n,):
        raise InvalidParameterError(
            f"{what} must have one entry per task ({n}), got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise InvalidParameterError(f"{what} entries must be >= 0 and finite")
    # prepend the virtual T0 slot (index 0)
    out = np.concatenate(([0.0], arr))
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class CostProfile:
    """Per-position resilience costs (arrays of length ``n + 1``).

    Index ``i`` is the cost *at task* ``T_i``; index 0 is the virtual
    ``T0`` whose recovery costs are zero by construction.  Build instances
    through :meth:`uniform`, :meth:`from_arrays` or
    :meth:`proportional_to_output` rather than the raw constructor.
    """

    CD: np.ndarray
    CM: np.ndarray
    RD: np.ndarray
    RM: np.ndarray
    Vg: np.ndarray
    Vp: np.ndarray

    def __post_init__(self) -> None:
        n = self.CD.shape[0]
        for name in ("CD", "CM", "RD", "RM", "Vg", "Vp"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise InvalidParameterError(
                    f"cost arrays must share one length, {name} differs"
                )
        if self.RD[0] != 0.0 or self.RM[0] != 0.0:
            raise InvalidParameterError(
                "recovery costs at the virtual T0 must be zero (use "
                "with_boundary_recovery() to price a subchain that opens "
                "at a checkpoint of a longer chain)"
            )

    @property
    def n(self) -> int:
        """Number of (real) tasks covered."""
        return int(self.CD.shape[0]) - 1

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, n: int, platform: Platform) -> "CostProfile":
        """The paper's model: every task pays the platform scalars."""
        return cls.scaled(platform, np.ones(n))

    @classmethod
    def from_arrays(
        cls,
        n: int,
        *,
        CD: Sequence[float],
        CM: Sequence[float],
        RD: Sequence[float] | None = None,
        RM: Sequence[float] | None = None,
        Vg: Sequence[float] | None = None,
        Vp: Sequence[float] | None = None,
    ) -> "CostProfile":
        """Explicit per-task arrays (one entry per task, 0-based).

        Defaults mirror the paper's conventions: ``RD = CD``, ``RM = CM``,
        ``V* = CM`` and ``V = V*/100``.
        """
        cd = _as_cost_array(CD, n, "CD")
        cm = _as_cost_array(CM, n, "CM")
        rd = _as_cost_array(RD, n, "RD") if RD is not None else cd
        rm = _as_cost_array(RM, n, "RM") if RM is not None else cm
        vg = _as_cost_array(Vg, n, "Vg") if Vg is not None else cm
        if Vp is not None:
            vp = _as_cost_array(Vp, n, "Vp")
        else:
            vp = vg / 100.0
            vp.setflags(write=False)
        return cls(CD=cd, CM=cm, RD=rd, RM=rm, Vg=vg, Vp=vp)

    @classmethod
    def scaled(
        cls, platform: Platform, multipliers: Sequence[float]
    ) -> "CostProfile":
        """Platform scalars scaled by a per-task multiplier (one per task).

        Unlike :meth:`proportional_to_output` the multipliers are taken
        *as given* (no mean normalisation): 1.0 means exactly the
        platform's scalar costs, so a workflow's per-task multipliers
        keep their meaning when tasks are permuted — the profile for a
        serialisation is just the multipliers in that order.  Checkpoint,
        recovery and verification costs all scale together (output-size
        semantics).  The arrays are the one-row :func:`scaled_costs`
        stack's, bit for bit.
        """
        mult = np.asarray(multipliers, dtype=np.float64)
        if mult.ndim != 1 or mult.size < 1:
            raise InvalidParameterError(
                "multipliers must be a 1-D sequence with one entry per task"
            )
        return profile_of(scaled_costs(platform, mult[None, :])[0])

    @classmethod
    def proportional_to_output(
        cls,
        chain: TaskChain,
        platform: Platform,
        output_sizes: Sequence[float],
    ) -> "CostProfile":
        """Scale every cost by each task's relative output size.

        ``output_sizes`` (one positive number per task, arbitrary units) is
        normalised so its *mean* is 1, preserving the platform's average
        cost; checkpoint, recovery and verification costs all scale with
        the data volume they move or inspect.
        """
        sizes = np.asarray(output_sizes, dtype=np.float64)
        if sizes.shape != (chain.n,):
            raise InvalidParameterError(
                f"output_sizes must have one entry per task ({chain.n})"
            )
        if not np.all(np.isfinite(sizes)) or np.any(sizes <= 0.0):
            raise InvalidParameterError("output sizes must be > 0 and finite")
        return cls.scaled(platform, sizes / sizes.mean())

    def with_boundary_recovery(
        self, rd0: float, rm0: float = 0.0
    ) -> "CostProfile":
        """Price the virtual ``T0`` restart at ``rd0`` / ``rm0``.

        By default ``T0`` restarts for free (the application start needs no
        checkpoint load), and :meth:`__post_init__` enforces that for every
        ordinary construction path.  This factory is the one sanctioned
        exception: when a chain is a *disk interval* of a longer chain,
        rolling back to the interval start re-loads the disk checkpoint
        that opened it, so the boundary recovery costs the platform's
        ``R_D`` (and ``R_M`` for the memory copy every disk checkpoint
        carries).  The optimum of the full chain then decomposes exactly
        into the sum of its disk intervals priced this way — an identity
        the test suite pins against all three DPs (at float-rounding
        precision: the sums associate differently).
        """
        for name, value in (("rd0", rd0), ("rm0", rm0)):
            if not (np.isfinite(value) and value >= 0.0):
                raise InvalidParameterError(
                    f"boundary recovery {name} must be >= 0 and finite, "
                    f"got {value!r}"
                )
        rd = self.RD.copy()
        rd[0] = rd0
        rd.setflags(write=False)
        rm = self.RM.copy()
        rm[0] = rm0
        rm.setflags(write=False)
        zero_rd = self.RD.copy()
        zero_rd[0] = 0.0
        zero_rm = self.RM.copy()
        zero_rm[0] = 0.0
        profile = CostProfile(
            CD=self.CD, CM=self.CM, RD=zero_rd, RM=zero_rm,
            Vg=self.Vg, Vp=self.Vp,
        )
        # bypass the frozen-dataclass validation deliberately: nonzero
        # boundary recovery is valid only through this factory
        object.__setattr__(profile, "RD", rd)
        object.__setattr__(profile, "RM", rm)
        return profile

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_uniform(self) -> bool:
        """True when every task shares the same costs (paper model)."""
        return all(
            np.all(getattr(self, name)[1:] == getattr(self, name)[1])
            for name in ("CD", "CM", "RD", "RM", "Vg", "Vp")
        )

    def describe(self) -> str:
        """Short human-readable summary."""
        if self.is_uniform():
            return (
                f"uniform costs over {self.n} tasks: CD={self.CD[1]:g}, "
                f"CM={self.CM[1]:g}, V*={self.Vg[1]:g}, V={self.Vp[1]:g}"
            )
        return (
            f"per-task costs over {self.n} tasks: CD in "
            f"[{self.CD[1:].min():g}, {self.CD[1:].max():g}], CM in "
            f"[{self.CM[1:].min():g}, {self.CM[1:].max():g}]"
        )


def scaled_costs(
    platform: Platform,
    multipliers: Sequence[Sequence[float]] | np.ndarray,
) -> np.ndarray:
    """The costs of chains whose tasks scale the platform's costs.

    ``multipliers`` holds one row of per-task multipliers per chain: a
    ``(K, n)`` array, or ``K`` rows of any lengths.  Row ``k`` of the
    ``(K, 6, n + 1)`` result (``n`` the longest row's length) holds the
    ``CD, CM, RD, RM, Vg, Vp`` arrays of
    ``CostProfile.scaled(platform, multipliers[k])``, zero at the
    virtual ``T0`` and past the row's own length.  This is the one place
    a task multiplier scales a platform cost: every row takes one
    broadcast multiply.
    """
    if isinstance(multipliers, np.ndarray) and multipliers.ndim == 2:
        mult = flat = multipliers.astype(np.float64, copy=False)
    else:
        rows = [np.asarray(m, dtype=np.float64).ravel() for m in multipliers]
        flat = np.concatenate([np.zeros(0), *rows])
        sizes = np.array([row.size for row in rows], dtype=np.intp)
        present = np.arange(sizes.max(initial=0)) < sizes[:, None]
        mult = np.zeros(present.shape)
        mult[present] = flat  # row-major, as the rows are concatenated
    if not np.isfinite(flat).all() or (flat <= 0.0).any():
        raise InvalidParameterError("multipliers must be > 0 and finite")
    return _scale(platform, mult)


def _scale(platform: Platform, mult: np.ndarray) -> np.ndarray:
    """The cost stack of a ``(K, n)`` multiplier array; 0 is no task."""
    unit = np.array([getattr(platform, name) for name in COST_NAMES])
    table = np.zeros((mult.shape[0], 6, mult.shape[1] + 1))
    np.multiply(unit[:, None], mult[:, None, :], out=table[:, :, 1:])
    return table


def cost_table(
    costs: Sequence[CostProfile | None] | np.ndarray | None,
    k: int,
    n: int | Sequence[int],
    platform: Platform,
) -> np.ndarray:
    """The costs of ``k`` chains as one ``(k, 6, n + 1)`` array.

    ``n`` is the chains' common length, or their ``k`` lengths: the
    stack then runs to the longest, and row ``i`` is zero past its own
    length.  Row ``i`` holds chain ``i``'s ``CD, CM, RD, RM, Vg, Vp``
    arrays, in that order.  ``costs`` is ``None`` (the platform's uniform
    costs for every chain), a sequence of ``k`` profiles (``None``
    entries are uniform: the :func:`scaled_costs` rows of multiplier
    1.0), or such an array already — :func:`scaled_costs` builds one for
    per-task multipliers.  The stack is validated once: it must have
    that shape and every cost must be finite and ``>= 0``; an error
    names the first cost array that is not.
    """
    lengths = [n] * k if isinstance(n, (int, np.integer)) else list(n)
    n_max = max(lengths, default=0)
    if costs is None:
        costs = [None] * k
    if isinstance(costs, np.ndarray):
        table = np.asarray(costs, dtype=np.float64)
    elif len(costs) != k:
        raise InvalidParameterError(
            f"expected the costs of {k} chains, got {len(costs)}"
        )
    else:
        # a None row is the scaled_costs row of multiplier 1.0
        uniform = [m if profile is None else 0 for profile, m in zip(costs, lengths)]
        ones = np.arange(n_max) < np.array(uniform, dtype=np.intp)[:, None]
        table = _scale(platform, ones.astype(np.float64))
        for row, profile, m in zip(table, costs, lengths):
            if profile is None:
                continue
            if profile.n != m:
                raise InvalidParameterError(
                    f"cost profile covers {profile.n} tasks but the chain "
                    f"has {m}"
                )
            row[:, : m + 1] = [getattr(profile, name) for name in COST_NAMES]
    if table.shape != (k, 6, n_max + 1):
        raise InvalidParameterError(
            f"expected the costs of {k} chains of up to {n_max} tasks, a "
            f"{(k, 6, n_max + 1)} stack, got shape {table.shape}"
        )
    # The DPs and the evaluator add terms of probability 0 too: 0 * cost
    # adds exactly nothing only while every cost is finite and >= 0.
    bad = ~np.isfinite(table) | (table < 0.0)
    if bad.any():
        name = COST_NAMES[int(np.flatnonzero(bad.any(axis=(0, 2)))[0])]
        raise InvalidParameterError(f"{name} costs must be >= 0 and finite")
    return table


def profile_of(row: np.ndarray) -> CostProfile:
    """The :class:`CostProfile` of one ``(6, n + 1)`` row of :func:`cost_table`."""
    profile = CostProfile.from_arrays(
        row.shape[1] - 1,
        **{name: row[j, 1:] for j, name in enumerate(COST_NAMES)},
    )
    if row[2, 0] != 0.0 or row[3, 0] != 0.0:
        profile = profile.with_boundary_recovery(
            float(row[2, 0]), float(row[3, 0])
        )
    return profile
