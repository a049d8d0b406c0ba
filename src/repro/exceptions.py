"""Exception hierarchy for :mod:`repro`.

All library-raised errors derive from :class:`ReproError` so that callers can
catch everything coming out of the package with a single ``except`` clause
while still being able to discriminate configuration problems from model
violations.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidParameterError",
    "InvalidChainError",
    "InvalidScheduleError",
    "SolverError",
    "SimulationError",
    "BackendUnavailableError",
]


class ReproError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


class InvalidParameterError(ReproError, ValueError):
    """A scalar model parameter is out of its admissible domain.

    Raised, e.g., for negative error rates, negative checkpoint costs, or a
    partial-verification recall outside ``[0, 1]``.
    """


class InvalidChainError(ReproError, ValueError):
    """A task chain is structurally invalid (empty task set, negative or
    non-finite weights, inconsistent prefix sums)."""


class InvalidScheduleError(ReproError, ValueError):
    """A schedule violates the structural invariants of the model.

    The model of Benoit et al. requires that every disk checkpoint be
    co-located with a memory checkpoint, every memory checkpoint with a
    guaranteed verification, and (in strict mode) that the final task be
    disk-checkpointed so the application output is safely stored.
    """


class SolverError(ReproError, RuntimeError):
    """An optimizer failed to produce a solution (unknown algorithm name,
    internal table inconsistency detected during backtracking, ...)."""


class SimulationError(ReproError, RuntimeError):
    """The discrete-event simulator entered an impossible state or exceeded
    its configured event budget (runaway execution)."""


class BackendUnavailableError(ReproError, ImportError):
    """A known array-API backend cannot be loaded in this environment.

    Raised when a backend *name* is known
    (:mod:`repro.simulation.backend`) but importing its array namespace
    fails — e.g. ``array-api-strict`` when the package is not installed.
    Distinct from :class:`InvalidParameterError`, which signals a name
    that is not a backend at all.
    """
