"""The multi-tenant graph registry: named stores, refcounts, quotas.

A registry roots a directory of :class:`~repro.storage.PersistentGraph`
stores — one subdirectory per graph name::

    root/
      social/   manifest.json, snapshot-*.rcsr, segments/
      citations/ ...

and hands out ref-counted :class:`GraphHandle`\\ s, each binding the store
to one :class:`~repro.engine.engine.Engine` (result-cached) wrapped in one
:class:`~repro.service.async_engine.AsyncEngine`.  All handles share a
single worker executor and a single version+token-keyed
:class:`~repro.engine.cache.QueryCache`, so N graphs cost one thread pool
and one cache budget, not N.

Tenancy
-------
Callers are **tenants** (the HTTP tier maps auth tokens to tenant names).
:meth:`GraphRegistry.admit` is the per-tenant admission gate: each tenant
gets at most ``quota`` queries in flight at once; beyond it the request is
shed with a retriable :class:`~repro.errors.QuotaExceededError` (429) —
one tenant's burst cannot monopolize the shared slots.  Global queue-depth
shedding lives in the :class:`AsyncEngine` underneath; both errors carry
``retry_after`` backoff guidance.

Lifecycle
---------
``acquire`` opens a store on first use — lazily: the engine reads the
mapped snapshot and log overlay, ``/mutate`` writes through them, and
no read materializes the dict graph — and bumps the
handle's refcount;
``release`` drops it.  Handles at refcount 0 stay warm for the next caller
until ``max_open`` forces the least-recently-used idle one closed, or
:meth:`GraphRegistry.close` tears everything down (engine pools drained
gracefully, WALs flushed).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from repro.concurrency import (
    ordered_rlock,
    release_resource,
    track_resource,
)
from repro.engine.cache import QueryCache
from repro.engine.engine import Engine
from repro.errors import (
    QuotaExceededError,
    ServiceError,
    StorageError,
    UnknownGraphError,
)
from repro.service.async_engine import AsyncEngine
from repro.storage.persistent import MANIFEST_NAME, PersistentGraph

__all__ = ["GraphRegistry", "GraphHandle"]

#: Per-tenant concurrent-query quota applied when none is configured.
DEFAULT_TENANT_QUOTA = 8


class GraphHandle:
    """One open graph: store + engine + async facade, ref-counted."""

    def __init__(self, name: str, store: PersistentGraph,
                 engine: Engine, async_engine: AsyncEngine):
        self.name = name
        self.store = store
        self.engine = engine
        self.async_engine = async_engine
        self.refcount = 0
        self._sequence = 0  # registry LRU clock value, maintained there

    async def checkpoint(self, deadline: Optional[float] = None) -> Dict:
        """Checkpoint the store with queries drained (writer slot)."""
        return await self.async_engine.mutate(
            lambda graph: self.store.checkpoint(), deadline=deadline)

    def info(self) -> Dict[str, Any]:
        """Store manifest/WAL state + service counters, JSON-ready."""
        info = self.store.info()
        info["refcount"] = self.refcount
        info["service"] = self.async_engine.stats()
        return info

    def __repr__(self) -> str:
        return "GraphHandle<{!r}, refcount={}>".format(self.name,
                                                       self.refcount)


class _Admission:
    """The released-exactly-once token :meth:`GraphRegistry.admit` returns."""

    def __init__(self, registry: "GraphRegistry", tenant: str):
        self._registry = registry
        self._tenant = tenant
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._registry._release_tenant(self._tenant)

    def __enter__(self) -> "_Admission":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class GraphRegistry:
    """Open graphs by name with shared executor, cache, and quotas."""

    def __init__(self, root: str,
                 max_workers: int = 4,
                 max_concurrency: Optional[int] = None,
                 max_queue_depth: Optional[int] = 32,
                 default_deadline: Optional[float] = None,
                 cache_capacity: int = 256,
                 max_open: int = 16,
                 quotas: Optional[Dict[str, int]] = None,
                 default_quota: int = DEFAULT_TENANT_QUOTA,
                 replicate: bool = False):
        self.root = os.path.abspath(root)
        if not os.path.isdir(self.root):
            raise StorageError(
                "registry root {} is not a directory".format(self.root))
        self.max_workers = max_workers
        self.max_concurrency = max_concurrency
        self.max_queue_depth = max_queue_depth
        self.default_deadline = default_deadline
        self.max_open = max(1, max_open)
        self.default_quota = default_quota
        #: Open every store with a shippable segment log, so this server
        #: can serve replica bootstrap/tail reads (``--replicate``).
        self.replicate = replicate
        self._quotas = dict(quotas or {})
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-registry")
        self._leak_token = track_resource("registry-executor", self.root)
        # capacity <= 0 disables result caching entirely (repro serve
        # --cache 0): every query then recomputes at the current version.
        self._cache: Optional[QueryCache] = \
            QueryCache(capacity=cache_capacity) if cache_capacity > 0 \
            else None
        self._handles: Dict[str, GraphHandle] = {}
        self._sequence = 0
        self._tenant_inflight: Dict[str, int] = {}
        self._closed = False
        # acquire/release may be driven from the event loop and from
        # synchronous admin code; one lock keeps the handle table sane.
        # Witness-ordered at the top of the hierarchy: eviction closes
        # stores (storage.store) while this is held.
        self._lock = ordered_rlock("service.registry")

    # -- naming --------------------------------------------------------

    def _directory(self, name: str) -> str:
        # Graph names come off the wire: refuse anything that could
        # escape the root (path separators, traversal, hidden files).
        if not name or name != os.path.basename(name) \
                or name.startswith(".") or "/" in name or "\\" in name:
            raise UnknownGraphError(name)
        return os.path.join(self.root, name)

    def list_graphs(self) -> List[str]:
        """Names of the stores under the root (open or not), sorted."""
        names = []
        for entry in sorted(os.listdir(self.root)):
            if os.path.exists(os.path.join(self.root, entry, MANIFEST_NAME)):
                names.append(entry)
        return names

    # -- handle lifecycle ----------------------------------------------

    def acquire(self, name: str) -> GraphHandle:
        """The (possibly fresh) handle for ``name``; refcount += 1."""
        with self._lock:
            self._check_open()
            handle = self._handles.get(name)
            if handle is None:
                handle = self._open(name)
                self._handles[name] = handle
            handle.refcount += 1
            self._sequence += 1
            handle._sequence = self._sequence
            return handle

    def release(self, name: str) -> None:
        """Drop one reference; idle handles stay warm until evicted."""
        with self._lock:
            handle = self._handles.get(name)
            if handle is not None and handle.refcount > 0:
                handle.refcount -= 1

    def _open(self, name: str) -> GraphHandle:
        directory = self._directory(name)
        if not os.path.exists(os.path.join(directory, MANIFEST_NAME)):
            raise UnknownGraphError(name)
        self._evict_idle()
        store = PersistentGraph.open(directory, replicate=self.replicate)
        engine = Engine(store, cache=self._cache)
        async_engine = AsyncEngine(
            engine,
            max_concurrency=self.max_concurrency
            if self.max_concurrency is not None else self.max_workers,
            max_queue_depth=self.max_queue_depth,
            default_deadline=self.default_deadline,
            executor=self._executor)
        return GraphHandle(name, store, engine, async_engine)

    def _evict_idle(self) -> None:  # guarded-by: _lock
        """Close least-recently-used idle handles past ``max_open``.

        A handle is evictable only when *both* its refcount is 0 (no
        caller holds it) and its async engine is idle (no admitted query
        is still running or queued) — an in-flight query keeps its graph
        alive even if the HTTP tier already released the handle.
        """
        while len(self._handles) >= self.max_open:
            idle = [h for h in self._handles.values()
                    if h.refcount == 0 and h.async_engine.idle]
            if not idle:
                raise ServiceError(
                    "registry holds {} busy graphs (max_open={}); "
                    "release one before opening another".format(
                        len(self._handles), self.max_open))
            victim = min(idle, key=lambda h: h._sequence)
            self._close_handle(self._handles.pop(victim.name))

    @staticmethod
    def _close_handle(handle: GraphHandle) -> None:
        handle.async_engine.close()
        handle.store.close()

    # -- tenancy -------------------------------------------------------

    def quota(self, tenant: str) -> int:
        return self._quotas.get(tenant, self.default_quota)

    def admit(self, tenant: str) -> _Admission:
        """Admission gate: raises :class:`QuotaExceededError` at quota.

        Returns a context-manager token whose ``release()`` (or ``with``
        exit) returns the tenant's slot exactly once.
        """
        with self._lock:
            self._check_open()
            quota = self.quota(tenant)
            inflight = self._tenant_inflight.get(tenant, 0)
            if inflight >= quota:
                raise QuotaExceededError(tenant, quota, retry_after=1.0)
            self._tenant_inflight[tenant] = inflight + 1
        return _Admission(self, tenant)

    def _release_tenant(self, tenant: str) -> None:
        with self._lock:
            count = self._tenant_inflight.get(tenant, 0)
            if count <= 1:
                self._tenant_inflight.pop(tenant, None)
            else:
                self._tenant_inflight[tenant] = count - 1

    def tenants(self) -> Dict[str, int]:
        """Current per-tenant in-flight counts (a snapshot)."""
        with self._lock:
            return dict(self._tenant_inflight)

    # -- teardown / introspection --------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("registry is closed")

    async def aclose(self, deadline: Optional[float] = 30.0) -> None:
        """Drain every graph's in-flight queries, then close everything."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles.values())
            self._handles.clear()
        for handle in handles:
            await handle.async_engine.aclose(deadline=deadline)
            handle.store.close()
        self._executor.shutdown(wait=True)
        release_resource(self._leak_token)

    def close(self) -> None:
        """Synchronous teardown (idempotent): handles, executor, cache."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles.values())
            self._handles.clear()
        for handle in handles:
            self._close_handle(handle)
        self._executor.shutdown(wait=True)
        release_resource(self._leak_token)

    def __enter__(self) -> "GraphRegistry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def readiness(self) -> "Tuple[bool, Dict[str, Any]]":
        """``(ready, detail)`` for the ``/readyz`` probe.

        Ready means the registry can serve *and mutate*: it is open,
        no open store is in read-only degraded mode, and no engine's
        parallel pool has dead workers awaiting respawn.  A process can
        be live (``/healthz`` 200) while unready — e.g. every query
        still serves but the WAL rejected a write and mutations 503.
        """
        with self._lock:
            if self._closed:
                return False, {"reason": "registry is closed"}
            degraded = sorted(
                name for name, handle in self._handles.items()
                if handle.store.degraded)
            unhealthy = sorted(
                name for name, handle in self._handles.items()
                if not handle.engine.pool_healthy())
            detail: Dict[str, Any] = {
                "open_graphs": sorted(self._handles),
                "degraded": degraded,
                "pool_unhealthy": unhealthy,
            }
            return (not degraded and not unhealthy), detail

    def stats(self) -> Dict[str, Any]:
        """Registry-level summary: open graphs, tenants, shared cache."""
        with self._lock:
            return {
                "root": self.root,
                "open_graphs": sorted(self._handles),
                "refcounts": {name: handle.refcount
                              for name, handle in self._handles.items()},
                "tenants_inflight": dict(self._tenant_inflight),
                "result_cache": None if self._cache is None
                else self._cache.stats(),
            }

    def __repr__(self) -> str:
        return "GraphRegistry<{}, {} open{}>".format(
            self.root, len(self._handles), ", closed" if self._closed else "")
