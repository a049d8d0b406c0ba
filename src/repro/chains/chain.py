"""Linear task-chain model.

The application model of the paper is a linear chain ``T1 -> T2 -> ... -> Tn``
where each task ``Ti`` carries a computational weight ``w_i`` (seconds of
error-free execution).  The quantity that drives every formula is the segment
weight

.. math::

    W_{i,j} = \\sum_{k=i+1}^{j} w_k,

the time needed to execute tasks ``T_{i+1} .. T_j``.  :class:`TaskChain`
stores the prefix sums once so that ``W_{i,j}`` is an O(1) lookup, which is
what the vectorized dynamic programs index into.

Indexing convention
-------------------
Tasks are numbered ``1..n`` as in the paper; index ``0`` denotes the virtual
task ``T0`` that is disk-checkpointed for free before the application starts.
``TaskChain.weights[i]`` is the weight of task ``i+1`` (plain 0-based numpy
storage); all public methods taking task indices use the 1-based paper
convention and accept ``0`` for the virtual task.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import InvalidChainError

__all__ = ["Task", "TaskChain"]


@dataclass(frozen=True)
class Task:
    """A single task of the chain.

    Parameters
    ----------
    index:
        1-based position in the chain.
    weight:
        Error-free execution time (seconds); must be positive and finite.
    name:
        Optional human-readable label (defaults to ``"T<index>"``).
    """

    index: int
    weight: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.index < 1:
            raise InvalidChainError(f"task index must be >= 1, got {self.index}")
        if not math.isfinite(self.weight) or self.weight <= 0.0:
            raise InvalidChainError(
                f"task T{self.index} weight must be a positive finite number, "
                f"got {self.weight!r}"
            )
        if not self.name:
            object.__setattr__(self, "name", f"T{self.index}")


@dataclass(frozen=True)
class TaskChain:
    """An immutable linear chain of tasks with O(1) segment weights.

    Parameters
    ----------
    weights:
        Sequence of positive task weights, ``weights[0]`` being task ``T1``.
    name:
        Optional label used in reports ("uniform-50", ...).

    Examples
    --------
    >>> chain = TaskChain([10.0, 20.0, 30.0])
    >>> chain.n
    3
    >>> chain.segment_weight(0, 2)   # W_{0,2} = w1 + w2
    30.0
    >>> chain.total_weight
    60.0
    """

    weights: np.ndarray
    name: str = ""
    #: prefix[i] = w_1 + ... + w_i  (prefix[0] = 0), length n+1
    prefix: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, weights: Iterable[float], name: str = "") -> None:
        arr = np.asarray(list(weights), dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidChainError("a task chain needs at least one task")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise InvalidChainError(
                "all task weights must be positive finite numbers"
            )
        self._freeze(arr, name)

    def _freeze(self, arr: np.ndarray, name: str) -> None:
        """Store validated weights ``arr`` (owned, 1-D) and their prefix sums."""
        arr.setflags(write=False)
        prefix = np.concatenate(([0.0], np.cumsum(arr)))
        prefix.setflags(write=False)
        object.__setattr__(self, "weights", arr)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "name", name or f"chain-{arr.size}")

    @classmethod
    def batch(cls, rows: Iterable[Iterable[float]]) -> list["TaskChain"]:
        """One chain per row of ``rows``, the rows validated together.

        Rows may differ in length, and a row that is a chain keeps its
        name.  A row that is empty or not 1-D, or a weight that is not a
        positive finite number, raises :class:`InvalidChainError` naming
        the row.
        """
        if isinstance(rows, (str, bytes)) or not isinstance(rows, Iterable):
            raise InvalidChainError("weights must be a sequence of rows")
        arrays, names = [], []
        for i, row in enumerate(rows):
            row, name = (row.weights, row.name) if isinstance(row, cls) else (row, "")
            names.append(name)
            try:
                arr = np.array(row, dtype=np.float64)
            except (TypeError, ValueError):
                arr = None
            if arr is None or arr.ndim != 1 or arr.size == 0:
                raise InvalidChainError(
                    f"weights row {i} must be a non-empty 1-D sequence of "
                    "task weights"
                )
            arrays.append(arr)
        if not arrays:
            return []
        flat = np.concatenate(arrays)
        bad = ~(np.isfinite(flat) & (flat > 0.0))
        if bad.any():
            ends = np.cumsum([arr.size for arr in arrays])
            i = int(np.searchsorted(ends, np.argmax(bad), side="right"))
            raise InvalidChainError(
                f"weights row {i}: all task weights must be positive finite "
                "numbers"
            )
        chains = []
        for arr, name in zip(arrays, names):
            chain = cls.__new__(cls)
            chain._freeze(arr, name)
            chains.append(chain)
        return chains

    # ------------------------------------------------------------------
    # basic container behaviour
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of (real) tasks in the chain."""
        return int(self.weights.size)

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[Task]:
        for i, w in enumerate(self.weights, start=1):
            yield Task(index=i, weight=float(w))

    def __getitem__(self, index: int) -> Task:
        """Return task ``T_index`` (1-based, like the paper)."""
        if not 1 <= index <= self.n:
            raise IndexError(
                f"task index must be in [1, {self.n}], got {index}"
            )
        return Task(index=index, weight=float(self.weights[index - 1]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskChain):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.weights, other.weights))

    def __hash__(self) -> int:
        return hash((self.n, self.weights.tobytes()))

    # ------------------------------------------------------------------
    # weights
    # ------------------------------------------------------------------
    @property
    def total_weight(self) -> float:
        """Total error-free execution time ``W_{0,n}``."""
        return float(self.prefix[-1])

    def segment_weight(self, i: int, j: int) -> float:
        """Return ``W_{i,j}``, the weight of tasks ``T_{i+1} .. T_j``.

        ``0 <= i <= j <= n``; ``segment_weight(i, i) == 0``.
        """
        if not 0 <= i <= j <= self.n:
            raise InvalidChainError(
                f"segment ({i}, {j}) out of range for a chain of {self.n} tasks"
            )
        return float(self.prefix[j] - self.prefix[i])

    def weight_of(self, index: int) -> float:
        """Weight of task ``T_index`` (1-based)."""
        return self[index].weight

    def subchain(self, i: int, j: int, name: str = "") -> "TaskChain":
        """Return the chain of tasks ``T_{i+1} .. T_j`` as a new chain."""
        if not 0 <= i < j <= self.n:
            raise InvalidChainError(
                f"subchain ({i}, {j}) out of range for a chain of {self.n} tasks"
            )
        return TaskChain(self.weights[i:j], name=name or f"{self.name}[{i+1}:{j}]")

    # ------------------------------------------------------------------
    # convenience constructors / exports
    # ------------------------------------------------------------------
    @classmethod
    def from_tasks(cls, tasks: Sequence[Task], name: str = "") -> "TaskChain":
        """Build a chain from :class:`Task` objects (order taken as given)."""
        return cls((t.weight for t in tasks), name=name)

    def as_list(self) -> list[float]:
        """Task weights as a plain Python list (for serialization)."""
        return [float(w) for w in self.weights]

    def describe(self) -> str:
        """One-line human-readable summary used by the CLI."""
        w = self.weights
        return (
            f"{self.name}: n={self.n}, total={self.total_weight:g}s, "
            f"min={w.min():g}s, max={w.max():g}s, mean={w.mean():g}s"
        )
