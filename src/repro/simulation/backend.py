"""The two array namespaces the batched lockstep engine runs on.

The vectorized kernel (:func:`repro.simulation.batch.run_compiled`) is
written against the `Python array API standard
<https://data-apis.org/array-api/>`_ rather than against NumPy: every
array operation it performs is namespace-resolved (``xp.take``,
``xp.where``, boolean-mask indexing, ...).  Two namespaces drive it:
NumPy, and ``array-api-strict``, the conformance namespace the CI
``backend-matrix`` lane runs to prove the kernel stays on the standard.

A :class:`Backend` bundles the array namespace with the two
host-boundary conversions the engine needs:

* :meth:`Backend.asarray` / :meth:`Backend.zeros` — move host (NumPy)
  data onto the backend with an explicit dtype;
* :meth:`Backend.to_numpy` — bring small result blocks back to host
  NumPy (DLPack first, ``np.asarray`` as fallback).

Random numbers are *not* part of the array API standard, and the engine
deliberately keeps its uniform streams on the host: every backend
consumes the **same** NumPy ``Generator`` draws, so campaigns with the
same seed agree across backends (both namespaces are NumPy-backed, so in
practice bitwise) and the scalar-oracle bitwise cross-validation is
preserved.

Selection
---------
Backends are selected by name only.  ``get_backend(None)`` resolves the
default: the ``REPRO_BACKEND`` environment variable if set, else NumPy.
Names are canonicalized (case-insensitive, ``_`` == ``-``), unknown
names raise :class:`~repro.exceptions.InvalidParameterError`, and a
known name whose namespace is not importable in this environment raises
:class:`~repro.exceptions.BackendUnavailableError`.  Because a name is
all a worker process needs, sharded campaigns re-resolve it there.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..exceptions import BackendUnavailableError, InvalidParameterError

__all__ = [
    "Backend",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "array_namespace",
    "canonical_name",
    "get_backend",
    "installed_backends",
]

#: Environment variable consulted by ``get_backend(None)``.
BACKEND_ENV_VAR = "REPRO_BACKEND"
#: Backend used when neither an argument nor the environment selects one.
DEFAULT_BACKEND = "numpy"


@dataclass(frozen=True)
class Backend:
    """An array-API namespace plus its host-boundary conversions."""

    name: str
    xp: Any

    def asarray(self, values: Any, dtype: Any = None) -> Any:
        """Host data -> backend array (no copy when already there)."""
        return self.xp.asarray(values, dtype=dtype)

    def zeros(self, n: int, dtype: Any = None) -> Any:
        return self.xp.zeros(n, dtype=dtype)

    def to_numpy(self, x: Any) -> np.ndarray:
        """Backend array -> host NumPy array (results boundary only)."""
        if isinstance(x, np.ndarray):
            return x
        if hasattr(x, "__dlpack__"):
            try:
                return np.from_dlpack(x)
            except (TypeError, ValueError, RuntimeError, BufferError):
                pass
        out = np.asarray(x)
        if out.dtype == object:  # np.asarray silently boxes unknown types
            raise InvalidParameterError(
                f"cannot convert {type(x).__name__!r} from backend "
                f"{self.name!r} to a NumPy array"
            )
        return out


def canonical_name(name: str) -> str:
    """Loader-table key for a user-supplied backend name (case/``_``
    folded); an unknown name raises
    :class:`~repro.exceptions.InvalidParameterError`."""
    key = name.strip().lower().replace("_", "-")
    if key not in _LOADERS:
        raise InvalidParameterError(
            f"unknown backend {name!r}; known backends: "
            f"{', '.join(sorted(_LOADERS))}"
        )
    return key


def array_namespace(x: Any) -> Any:
    """The array-API namespace an array belongs to: its
    ``__array_namespace__`` protocol, else NumPy."""
    if hasattr(x, "__array_namespace__"):
        return x.__array_namespace__()
    return np


def _load_numpy() -> Backend:
    # NumPy >= 2.0 *is* an array-API namespace; no shim needed.
    return Backend("numpy", np)


def _load_array_api_strict() -> Backend:
    xp = importlib.import_module("array_api_strict")
    return Backend("array-api-strict", xp)


#: Canonical name -> zero-argument loader.  A loader raises
#: ``ImportError`` when its namespace is not installed.
_LOADERS: dict[str, Callable[[], Backend]] = {
    "numpy": _load_numpy,
    "array-api-strict": _load_array_api_strict,
}


def installed_backends() -> tuple[str, ...]:
    """The known backends that actually load in this environment."""
    names = []
    for name in sorted(_LOADERS):
        try:
            _LOADERS[name]()
        except ImportError:
            continue
        names.append(name)
    return tuple(names)


def get_backend(name: str | None = None) -> Backend:
    """Resolve a backend name to a live :class:`Backend`.

    ``None`` consults ``REPRO_BACKEND`` then falls back to NumPy.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    key = canonical_name(name)
    try:
        return _LOADERS[key]()
    except ImportError as exc:
        raise BackendUnavailableError(
            f"backend {key!r} is known but not installed here "
            f"({exc}); installed backends: "
            f"{', '.join(installed_backends())}"
        ) from exc
