"""Resilience-as-a-service: the persistent ``repro serve`` engine.

The package splits into four layers, each usable on its own:

- :mod:`.cache` — :class:`ContentCache`, the thread-safe LRU the
  rendered response bodies live in, keyed by
  :func:`repro.api.canonical_hash` content addresses.
- :mod:`.engine` — :class:`Engine`, the session-spanning implementation
  of the ``solve`` / ``simulate`` / ``dag/optimize`` endpoints with
  per-request thread-local instrumentation and a cumulative mergeable
  metrics pool.
- :mod:`.jobs` — :class:`JobQueue`, worker threads draining queued
  campaigns with a queued/running/done/failed/cancelled lifecycle.
- :mod:`.http` — the stdlib ``asyncio`` HTTP/1.1 front-end
  (:func:`make_server` / :func:`serve`), wired to ``repro serve``: warm
  requests are answered on the event loop, everything that computes
  runs in a bounded pool of worker threads.
"""

from .cache import ContentCache
from .engine import ENDPOINTS, Engine, EngineResponse
from .http import ReproServer, make_server, serve
from .jobs import Job, JobQueue

__all__ = [
    "ContentCache",
    "Engine",
    "EngineResponse",
    "ENDPOINTS",
    "Job",
    "JobQueue",
    "ReproServer",
    "make_server",
    "serve",
]
