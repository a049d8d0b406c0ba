"""The evictable response-body pool of the service engine.

:class:`ContentCache` is a thread-safe LRU over content-addressed keys
(the :func:`repro.api.canonical_hash` digests of normalized requests).
One engine-owned pool holds the rendered response bodies every request
and job shares; it survives between them and evicts oldest-touched
entries under a budget instead of growing without bound.  Nothing but
bodies enters it (the engine's spelling memo is a second instance): a
search's memos live and die with the search, so a body never depends on
what the pool held when it was computed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Hashable
from typing import Any

__all__ = ["ContentCache"]


class ContentCache:
    """Thread-safe LRU keyed on content addresses.

    ``get``/``put`` count hits, misses, and evictions; ``stats()``
    exposes them for ``/metrics`` and ``/cache``.  ``max_entries <= 0``
    disables caching entirely (every ``get`` misses, ``put`` drops).
    """

    def __init__(self, max_entries: int = 256) -> None:
        self.max_entries = int(max_entries)
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        if self.max_entries <= 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)
                self.evictions += 1

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._lock:
            n = len(self._data)
            self._data.clear()
            return n

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._data),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
