"""``repro.serve`` — mining as a service.

A long-lived asyncio daemon over the execution substrate: the
:class:`~repro.graph.store.GraphStore` becomes a registry endpoint,
the CG6xx static cost model becomes the admission gate, the schedulers
run queries off the event loop under bounded worker slots, and valid
matches stream back incrementally as newline-delimited JSON.

See ``docs/serving.md`` for the endpoint reference, the tenancy model
(token buckets + priorities), and the admission/streaming semantics.
"""

from __future__ import annotations

from .client import ServeClient, ServeError
from .config import ServeConfig, TenantConfig
from .daemon import DaemonHandle, MiningDaemon, serve_in_thread
from .ratelimit import TokenBucket

__all__ = [
    "DaemonHandle",
    "MiningDaemon",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "TenantConfig",
    "TokenBucket",
    "serve_in_thread",
]
