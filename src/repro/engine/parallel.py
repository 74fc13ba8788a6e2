"""The parallel fan-out/merge query executor: RPQ seeds split by range.

One :class:`ParallelExecutor` binds a graph to a persistent
``multiprocessing`` worker pool and does one job: it splits one RPQ
sweep's seeds (:meth:`ParallelExecutor.rpq_pairs`) into degree-balanced
ranges (:func:`repro.graph.sharding.shard_ranges`), one range per
worker unless the call asks for another count.  Each worker runs the
product-BFS kernel for the sources its range owns, batch-shared like
any many-seed call, over the one shared CSR snapshot (a sweep's cone
crosses range boundaries, its *seeds* do not) and returns the answer's
blocks (:class:`~repro.graph.pairs.PairBlocks`); disjoint seeds make
disjoint blocks, so the merge is their concatenation — deterministic,
no pair pickled or hashed.

Worker state and fork safety
----------------------------
Workers never pickle a graph.  The pool is forked *after* the parent
stages the snapshot payload in a module-level registry, so children
inherit the CSR arrays copy-on-write (zero copy, and mmap-backed arrays
stay shared through the page cache); every task carries the executor's
registry token, so a pool repopulated after another executor forked
cannot adopt the wrong payload.  Mutating the graph invalidates stale
state by ``version()``: the pool is re-forked over a fresh payload.

Serial fallback
---------------
``processes=1``, a tiny graph (below ``min_edges``), a single range, or a
platform without ``fork`` all run the *same* per-range tasks in-process
through the same merge — the parallel path can never change an answer,
only its wall-clock.  The planner's
:meth:`~repro.engine.planner.Planner.choose_parallelism` decides when the
fan-out is worth it; see ``docs/sharding.md``.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Tuple

from repro.concurrency import ordered_lock, release_resource, track_resource
from repro.errors import ExecutionError, WorkerPoolError
from repro.faults import worker_fault_point
from repro.graph.compact import (
    _call_view,
    adjacency_snapshot,
    rpq_pairs_on_snapshot,
)
from repro.graph.pairs import PairBlocks
from repro.graph.sharding import live_ids_in_range, row_degrees, shard_ranges

__all__ = ["ParallelExecutor", "PARALLEL_MIN_EDGES", "MAX_WORKERS",
           "fork_available"]

#: Below this many edges the fan-out's fixed costs (task pickling, pool
#: scheduling) outweigh any parallel win and every call runs serially.
PARALLEL_MIN_EDGES = 512

#: Worker cap: query fan-out past this sees diminishing returns against
#: merge and pickling costs.  Bounds the default and the planner's auto
#: worker count, and the largest ``processes`` the HTTP tier accepts.
MAX_WORKERS = 8

#: Registry of live executors' fork payloads, keyed by executor token.
#: Children inherit the whole dict at fork time; tasks resolve their own
#: token, so concurrent executors (and late pool repopulation) stay safe.
_FORK_PAYLOADS: Dict[int, Dict[str, object]] = {}

_EXECUTOR_TOKENS = itertools.count(1)


def fork_available() -> bool:
    """True when workers can inherit the snapshot by fork."""
    import multiprocessing
    return "fork" in multiprocessing.get_all_start_methods()


# ----------------------------------------------------------------------
# Worker side (top-level so the pool pickles tasks by name)
# ----------------------------------------------------------------------

def _resolve_payload(ctx: Dict) -> Dict[str, object]:
    payload = _FORK_PAYLOADS.get(ctx["token"])
    if payload is None or payload["version"] != ctx["version"]:
        raise ExecutionError(
            "worker holds no payload for executor token {} at version {} "
            "(stale pool?)".format(ctx["token"], ctx["version"]))
    return payload


def _run_task(task):
    """Execute one fan-out task; runs identically in-pool and in-process.

    The ``pool.task`` fault site fires only inside a forked worker (the
    plan pins the arming pid), so the serial fallback re-running these
    very tasks in the parent cannot be killed by the fault it is healing.
    """
    worker_fault_point("pool.task")
    ctx, dfa, source_spec, targets = task
    snapshot = _resolve_payload(ctx)["snapshot"]
    if source_spec[0] == "range":
        source_ids = live_ids_in_range(snapshot, source_spec[1],
                                       source_spec[2])
    else:
        source_ids = source_spec[1]
    return rpq_pairs_on_snapshot(snapshot, dfa, source_ids=source_ids,
                                 targets=targets)


# ----------------------------------------------------------------------
# Master side
# ----------------------------------------------------------------------

def _chunks(items: List, parts: int) -> List[List]:
    """Split ``items`` into up to ``parts`` contiguous near-equal chunks."""
    parts = max(1, min(parts, len(items)))
    size, extra = divmod(len(items), parts)
    out = []
    cursor = 0
    for index in range(parts):
        step = size + (1 if index < extra else 0)
        if step:
            out.append(items[cursor:cursor + step])
        cursor += step
    return out


class ParallelExecutor:
    """A persistent fan-out/merge pool bound to one graph.

    Parameters
    ----------
    graph:
        The graph, store or replica to sweep (an engine's source).
    processes:
        Worker count, and so the number of seed ranges a sweep splits
        into unless :meth:`rpq_pairs` names ``parts``; ``None`` uses
        ``os.cpu_count()`` (capped at :data:`MAX_WORKERS`), ``1`` forces
        the serial fallback.
    min_edges:
        Graphs below this edge count always run serially.
    max_task_retries:
        How many times a fan-out whose worker died (or stalled past
        ``stall_timeout``) is retried on a freshly respawned pool before
        the executor gives up on parallelism and runs the same tasks
        in-process.  Every fan-out is a pure function of its task list
        and the merge is deterministic, so a retry — parallel or serial —
        can only change wall-clock, never the answer.
    stall_timeout:
        Seconds a fan-out may make no progress before it is declared
        wedged (a worker hung in a kernel).  ``None`` disables the watch
        (then only worker *death* triggers self-healing).
    """

    def __init__(self, graph, processes: Optional[int] = None,
                 min_edges: int = PARALLEL_MIN_EDGES,
                 max_task_retries: int = 2,
                 stall_timeout: Optional[float] = 60.0):
        cpu = os.cpu_count() or 1
        self.graph = graph
        self.processes = max(1, processes if processes is not None
                             else min(cpu, MAX_WORKERS))
        self.min_edges = min_edges
        self.max_task_retries = max(0, max_task_retries)
        self.stall_timeout = stall_timeout
        # Self-healing telemetry (see stats()): how often workers died
        # and were respawned, fan-outs were retried, and the serial
        # fallback had to finish a fan-out.
        self.workers_respawned = 0
        self.tasks_retried = 0
        self.serial_fallbacks = 0
        self._token = next(_EXECUTOR_TOKENS)
        self._pool = None
        self._pool_key: Optional[int] = None
        self._pool_pids: FrozenSet[int] = frozenset()
        self._pool_leak_token: Optional[int] = None
        # Guards pool spawn/teardown: the service tier can drive a close
        # (shutdown) while a fan-out respawns the pool.  Witness-ordered
        # below engine.parallel (the Engine's executor lock).
        self._pool_lock = ordered_lock("engine.pool")
        # version -> row degrees of the live snapshot view: the
        # O(labels*V) degree pass only re-runs after mutations, whatever
        # range count a call asks for.
        self._degree_cache: Optional[Tuple] = None

    # -- lifecycle -----------------------------------------------------

    @property
    def mode(self) -> str:
        """``inline`` (forked workers) or ``serial`` (no fork)."""
        return "inline" if fork_available() else "serial"

    def describe(self) -> str:
        """One line for EXPLAIN output."""
        return "{} process(es), {} mode".format(self.processes, self.mode)

    #: How long a graceful shutdown waits for in-flight tasks before
    #: falling back to ``terminate()``.
    SHUTDOWN_TIMEOUT = 5.0

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain the pool and drop the staged fork payload (idempotent).

        Workers are asked to finish their current task (``Pool.close`` +
        ``join``); only when the join has not completed after ``timeout``
        seconds (default :data:`SHUTDOWN_TIMEOUT`) are they terminated.
        Going straight to ``terminate()`` used to kill workers mid-task,
        which under heavy load leaked semaphores and left zombie
        processes behind a server shutdown.
        """
        self._teardown_pool(timeout=timeout)
        _FORK_PAYLOADS.pop(self._token, None)

    def healthy(self) -> bool:
        """True when the executor can serve: no live pool, or an intact one.

        An executor with no pool is healthy by definition — the next
        fan-out forks a fresh one (and the serial fallback needs no pool
        at all).
        """
        pool = self._pool
        return pool is None or not self._pool_damaged(pool)

    def stats(self) -> Dict[str, object]:
        """Self-healing telemetry, JSON-ready (surfaced via ``/stats``)."""
        return {
            "mode": self.mode,
            "processes": self.processes,
            "pool_live": self._pool is not None,
            "healthy": self.healthy(),
            "workers_respawned": self.workers_respawned,
            "tasks_retried": self.tasks_retried,
            "serial_fallbacks": self.serial_fallbacks,
        }

    def _teardown_pool(self, timeout: Optional[float] = None) -> None:
        with self._pool_lock:
            self._teardown_pool_locked(timeout)

    def _teardown_pool_locked(self, timeout: Optional[float] = None) -> None:  # guarded-by: _pool_lock
        pool, self._pool, self._pool_key = self._pool, None, None
        self._pool_pids = frozenset()
        release_resource(self._pool_leak_token)
        self._pool_leak_token = None
        if pool is None:
            return
        timeout = self.SHUTDOWN_TIMEOUT if timeout is None else timeout
        pool.close()
        # Pool.join has no timeout parameter: join from a helper thread
        # and escalate to terminate() only if the drain outlives the
        # budget (a worker wedged in a kernel, or an abandoned map).
        joiner = threading.Thread(target=pool.join, daemon=True)
        joiner.start()
        joiner.join(timeout)
        if joiner.is_alive():
            pool.terminate()
            joiner.join(self.SHUTDOWN_TIMEOUT)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown guard
        try:
            self.close()
        except Exception:
            pass

    # -- state staging -------------------------------------------------

    def _context(self, version: int) -> Dict:
        """Stage the snapshot at ``version`` as the fork payload and
        return the context every task carries."""
        payload = _FORK_PAYLOADS.get(self._token)
        if payload is None or payload["version"] != version:
            _FORK_PAYLOADS[self._token] = {
                "version": version,
                "snapshot": adjacency_snapshot(self.graph)}
        return {"token": self._token, "version": version}

    #: How often the self-healing poll wakes to look for dead workers.
    _POLL_INTERVAL = 0.05

    def _map(self, ctx: Dict, tasks: List, num_edges: int) -> List:
        """Run tasks through the pool, or in-process when serial is right.

        The parallel path self-heals: a fan-out whose worker died (or
        that stalled past ``stall_timeout``) tears the pool down,
        respawns it, and retries the *whole* task list up to
        ``max_task_retries`` times; when even that fails, the same tasks
        run in-process through the same deterministic merge.  Lost work
        is therefore only ever wall-clock — a fan-out either returns the
        exact same result as the serial path or keeps failing loudly.
        """
        if not (self.processes > 1 and len(tasks) > 1
                and num_edges >= self.min_edges and fork_available()):
            return [_run_task(task) for task in tasks]
        for attempt in range(self.max_task_retries + 1):
            self._ensure_pool(ctx)
            try:
                return self._map_once(tasks)
            except WorkerPoolError:
                self.workers_respawned += 1
                if attempt < self.max_task_retries:
                    self.tasks_retried += len(tasks)
                # A dead or wedged pool drains slowly at best: give the
                # close a short grace, then terminate.
                self._teardown_pool(timeout=self._POLL_INTERVAL * 4)
        self.serial_fallbacks += 1
        return [_run_task(task) for task in tasks]

    def _map_once(self, tasks: List) -> List:
        """One pool fan-out, watched for worker death and stalls."""
        import multiprocessing
        pool = self._pool
        result = pool.map_async(_run_task, tasks)
        deadline = (None if self.stall_timeout is None
                    else time.monotonic() + self.stall_timeout)
        while True:
            try:
                return result.get(self._POLL_INTERVAL)
            except multiprocessing.TimeoutError:
                pass
            if self._pool_damaged(pool):
                raise WorkerPoolError(
                    "a pool worker died mid-task (fan-out of {} task(s) "
                    "lost)".format(len(tasks)))
            if deadline is not None and time.monotonic() > deadline:
                raise WorkerPoolError(
                    "pool fan-out of {} task(s) stalled past {:.1f}s"
                    .format(len(tasks), self.stall_timeout))

    def _pool_damaged(self, pool) -> bool:
        """True when any worker died since this pool was forked.

        ``Pool`` quietly repopulates dead workers (fresh pids, exitcode
        None again) but the task the dead worker held is lost forever,
        so both signals matter: an exitcode catches a death before
        repopulation, a pid-set change catches it after.
        """
        workers = list(pool._pool)
        if any(worker.exitcode is not None for worker in workers):
            return True
        return {worker.pid for worker in workers} != self._pool_pids

    def _ensure_pool(self, ctx: Dict) -> None:
        """Fork (or keep) the worker pool matching ``ctx``.

        The pool is re-forked whenever the staged snapshot's version
        changes, because children hold a copy-on-write image frozen at
        fork time.
        """
        import multiprocessing
        key = ctx["version"]
        with self._pool_lock:
            if self._pool is not None and self._pool_key == key:
                return
            self._teardown_pool_locked()
            self._pool = multiprocessing.get_context("fork").Pool(
                self.processes)
            self._pool_leak_token = track_resource(
                "worker-pool", "{} process(es)".format(self.processes))
            self._pool_key = key
            self._pool_pids = frozenset(
                worker.pid for worker in self._pool._pool)

    def _source_ranges(self, snapshot, version: int, parts: int):
        """``parts`` out-degree-balanced source ranges over the live
        snapshot view; its degrees are memoized per version."""
        cached = self._degree_cache
        if cached is None or cached[0] != version:
            cached = self._degree_cache = (version, row_degrees(snapshot))
        return shard_ranges(cached[1], parts)

    # -- kernels -------------------------------------------------------

    def rpq_pairs(self, dfa, sources: Optional[Iterable[Hashable]] = None,
                  targets: Optional[Iterable[Hashable]] = None,
                  parts: Optional[int] = None) -> PairBlocks:
        """All-sources (or batch-source) RPQ pairs, fanned out and merged.

        The seeds split into ``parts`` ranges (default: one per worker),
        which the pool's workers take in turn.  Ranges own disjoint
        sources, so the answer is their blocks side by side: workers
        pickle blocks (kilobytes), and the merge hashes no pair.
        """
        parts = self.processes if parts is None else max(1, parts)
        version = self.graph.version()
        ctx = self._context(version)
        snapshot = _FORK_PAYLOADS[self._token]["snapshot"]
        # A vertex only a literal names is seeded by its call-local id.
        view, sources = _call_view(snapshot, dfa, sources)
        vertex_ids = view.vertex_ids
        if sources is None:
            specs = [("range", lo, hi)
                     for lo, hi in self._source_ranges(snapshot, version,
                                                       parts)
                     if hi > lo]
        else:
            ids = sorted({vertex_ids[v] for v in sources if v in vertex_ids})
            specs = [("ids", chunk) for chunk in _chunks(ids, parts)]
        if targets is not None:
            targets = frozenset(targets)
        tasks = [(ctx, dfa, spec, targets) for spec in specs]
        results = self._map(ctx, tasks, snapshot.num_edges)
        return PairBlocks(itertools.chain.from_iterable(
            part.blocks for part in results))

    def __repr__(self) -> str:
        return "ParallelExecutor<{}, pool={}>".format(
            self.describe(), "live" if self._pool is not None else "idle")
