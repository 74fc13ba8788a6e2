"""The parallel fan-out/merge query executor over vertex-range shards.

One :class:`ParallelExecutor` binds a graph to a persistent
``multiprocessing`` worker pool and fans the embarrassingly parallel
all-sources / batch kernels out over the vertex-range partition of
:mod:`repro.graph.sharding`:

* **RPQ sweeps** (:meth:`ParallelExecutor.rpq_pairs`) — each worker runs
  the product-BFS kernel for the sources its shard owns, batch-shared like
  any many-seed call (over the shared full CSR; a sweep's cone crosses
  shard boundaries, its *seeds* do not) and returns the answer's blocks
  (:class:`~repro.graph.pairs.PairBlocks`); disjoint seeds make disjoint
  blocks, so the merge is their concatenation — deterministic, no pair
  pickled or hashed.
* **BFS batches** (:meth:`ParallelExecutor.bfs_distances`) — the source
  batch splits evenly, each worker runs the vectorized per-source kernel,
  distance maps merge disjointly.
* **Pagerank power iteration** (:meth:`ParallelExecutor.pagerank`) — the
  one *scatter-style* kernel: each worker reads **only its own shard's
  rows** (cross-shard edges live on the source side), returning a partial
  rank-mass vector per iteration; the master sums partials in shard order,
  so the merged floats are bit-for-bit identical to the serial fallback.

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
``processes=1``, a tiny graph (below ``min_edges``), a single shard, or a
platform without ``fork`` all run the *same* per-shard tasks in-process
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
from array import array
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Tuple

from repro.concurrency import ordered_lock, release_resource, track_resource
from repro.errors import (
    AlgorithmError,
    ConvergenceError,
    ExecutionError,
    WorkerPoolError,
)
from repro.faults import worker_fault_point
from repro.graph.compact import (
    HAVE_NUMPY,
    adjacency_snapshot,
    digraph_snapshot,
    rpq_pairs_on_snapshot,
)
from repro.graph.pairs import PairBlocks
from repro.graph.sharding import (
    live_ids_in_range,
    row_degrees,
    scatter_rank_mass,
    shard_ranges,
    sharded_snapshot,
)

try:
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image ships numpy
    _np = None

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
    ctx, kind, args = task
    payload = _resolve_payload(ctx)
    if kind == "rpq":
        dfa, source_spec, targets = args
        snapshot = payload["snapshot"]
        if source_spec[0] == "range":
            source_ids = live_ids_in_range(snapshot, source_spec[1],
                                           source_spec[2])
        else:
            source_ids = source_spec[1]
        return rpq_pairs_on_snapshot(snapshot, dfa, source_ids=source_ids,
                                     targets=targets)
    if kind == "scatter":
        index, lo, hi, coefficients = args
        shard = payload["sharded"].shards[index]
        return scatter_rank_mass(shard, lo, hi, coefficients)
    if kind == "bfs":
        sources = args
        dsnap = payload["digraph"]
        return {source: dsnap.bfs_distances(source) for source in sources}
    if kind == "paths":
        expression, max_length, tails = args
        from repro.automata.generator import generate_paths
        graph = payload["graph"]
        return generate_paths(graph, expression, max_length,
                              first_edge_tails=tails)
    raise ExecutionError("unknown parallel task kind {!r}".format(kind))


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
        A :class:`~repro.graph.graph.MultiRelationalGraph` (RPQ sweeps,
        pagerank) or :class:`~repro.algorithms.digraph.DiGraph` (BFS
        batches).
    processes:
        Worker count; ``None`` uses ``os.cpu_count()`` (capped at
        :data:`MAX_WORKERS`), ``1`` forces the serial fallback.
    num_shards:
        Vertex-range shard count (defaults to ``processes``).
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
                 num_shards: Optional[int] = None,
                 min_edges: int = PARALLEL_MIN_EDGES,
                 max_task_retries: int = 2,
                 stall_timeout: Optional[float] = 60.0):
        cpu = os.cpu_count() or 1
        self.graph = graph
        self.processes = max(1, processes if processes is not None
                             else min(cpu, MAX_WORKERS))
        self.num_shards = max(1, num_shards if num_shards is not None
                              else self.processes)
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
        self._pool_key: Optional[Tuple] = None
        self._pool_pids: FrozenSet[int] = frozenset()
        self._pool_leak_token: Optional[int] = None
        # Guards pool spawn/teardown: the service tier can drive a close
        # (engine swap or shutdown) while a fan-out respawns the pool.
        # Witness-ordered below engine.parallel (the Engine's swap lock).
        self._pool_lock = ordered_lock("engine.pool")
        # (version, num_shards) -> source ranges over the live snapshot
        # view: the O(labels*V) degree pass only re-runs after mutations.
        self._range_cache: Optional[Tuple] = None

    # -- lifecycle -----------------------------------------------------

    @property
    def mode(self) -> str:
        """``inline`` (forked workers) or ``serial`` (no fork)."""
        return "inline" if fork_available() else "serial"

    def describe(self) -> str:
        """One line for EXPLAIN output."""
        return "{} process(es) x {} shard(s), {} mode".format(
            self.processes, self.num_shards, self.mode)

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

    def _context(self, need: str, version: int) -> Dict:
        """Stage the fork payload for ``need`` at ``version`` and return
        the context every task carries.

        The payload accumulates what past calls needed, so a pool rebuilt
        for pagerank still serves RPQ tasks without another rebuild.
        """
        payload = _FORK_PAYLOADS.get(self._token)
        if payload is None or payload["version"] != version:
            payload = {"version": version}
        if need == "rpq" and "snapshot" not in payload:
            payload["snapshot"] = adjacency_snapshot(self.graph)
        if need == "scatter" and "sharded" not in payload:
            payload["sharded"] = sharded_snapshot(self.graph, self.num_shards)
        if need == "bfs" and "digraph" not in payload:
            payload["digraph"] = digraph_snapshot(self.graph)
        if need == "paths" and "graph" not in payload:
            payload["graph"] = self.graph
        _FORK_PAYLOADS[self._token] = payload
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

        The pool is re-forked whenever the staged payload changes, because
        children hold a copy-on-write image frozen at fork time.
        """
        import multiprocessing
        key = (ctx["version"], frozenset(_FORK_PAYLOADS[self._token]))
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

    def _source_ranges(self, snapshot, version: int):
        """Out-degree-balanced source ranges over the live snapshot view,
        memoized per (version, shard count)."""
        key = (version, self.num_shards)
        if self._range_cache is not None and self._range_cache[0] == key:
            return self._range_cache[1]
        ranges = shard_ranges(row_degrees(snapshot), self.num_shards)
        self._range_cache = (key, ranges)
        return ranges

    # -- kernels -------------------------------------------------------

    def rpq_pairs(self, dfa, sources: Optional[Iterable[Hashable]] = None,
                  targets: Optional[Iterable[Hashable]] = None
                  ) -> PairBlocks:
        """All-sources (or batch-source) RPQ pairs, fanned out and merged."""
        return self.rpq_pairs_batch([dfa], sources=sources,
                                    targets=targets)[0]

    def rpq_pairs_batch(self, dfas: List,
                        sources: Optional[Iterable[Hashable]] = None,
                        targets: Optional[Iterable[Hashable]] = None
                        ) -> List[PairBlocks]:
        """One fan-out for many compiled queries over one snapshot.

        The batch amortizes pool setup and snapshot staging: every
        (query, shard) pair becomes one task in a single ``pool.map``, so
        a dashboard's expression batch keeps all workers busy even when
        individual queries are small.  Results keep the input order.

        Shards own disjoint sources, so a query's answer is its shards'
        blocks side by side: workers pickle blocks (kilobytes), and the
        merge hashes no pair.
        """
        version = self.graph.version()
        ctx = self._context("rpq", version)
        snapshot = _FORK_PAYLOADS[self._token]["snapshot"]
        vertex_ids = snapshot.vertex_ids
        if sources is None:
            specs = [("range", lo, hi)
                     for lo, hi in self._source_ranges(snapshot, version)
                     if hi > lo]
        else:
            ids = sorted({vertex_ids[v] for v in sources if v in vertex_ids})
            specs = [("ids", chunk) for chunk in _chunks(ids, self.num_shards)]
        if targets is not None:
            targets = frozenset(targets)
        if not specs:
            return [PairBlocks(()) for _ in dfas]
        tasks = [(ctx, "rpq", (dfa, spec, targets))
                 for dfa in dfas for spec in specs]
        results = self._map(ctx, tasks, snapshot.num_edges)
        merged = []
        per_query = len(specs)
        for index in range(len(dfas)):
            shards = results[index * per_query:(index + 1) * per_query]
            merged.append(PairBlocks(itertools.chain.from_iterable(
                shard.blocks for shard in shards)))
        return merged

    def bfs_distances(self, sources: Iterable[Hashable]
                      ) -> Dict[Hashable, Dict[Hashable, int]]:
        """``{source: {vertex: hops}}`` for a batch of BFS sources.

        The executor must be bound to a :class:`DiGraph`; sources split
        evenly across workers (each BFS costs the whole graph, so balance
        is by count) and the per-source maps merge disjointly.  Unknown
        source vertices raise exactly as ``DiGraph.bfs_distances`` would —
        a batch wrapper must not silently shrink its result.  Without
        numpy the batch runs serially through the graph's own kernel.
        """
        from repro.errors import VertexNotFoundError
        source_list = list(sources)
        for source in source_list:
            if not self.graph.has_vertex(source):
                raise VertexNotFoundError(source)
        if not HAVE_NUMPY:
            return {s: self.graph.bfs_distances(s) for s in source_list}
        version = self.graph.version()
        ctx = self._context("bfs", version)
        tasks = [(ctx, "bfs", chunk)
                 for chunk in _chunks(source_list, self.processes)]
        if not tasks:
            return {}
        results = self._map(ctx, tasks, self.graph.size())
        merged: Dict[Hashable, Dict[Hashable, int]] = {}
        for block in results:
            merged.update(block)
        return merged

    def generate_paths(self, expression, max_length: int):
        """The ``automaton`` strategy fanned out over first-edge tails.

        Every accepted path has a unique first edge, so partitioning the
        *initial* expansion by the first edge's tail partitions the result
        set; workers run the unrestricted product BFS from there and the
        path sets merge by union.  Serial fallback returns the plain
        single-process evaluation (identical by construction).
        """
        from repro.automata.generator import generate_paths
        from repro.core.pathset import PathSet
        version = self.graph.version()
        ctx = self._context("paths", version)
        vertices = sorted(self.graph.vertices(), key=repr)
        chunks = [frozenset(chunk)
                  for chunk in _chunks(vertices, self.processes)]
        if len(chunks) <= 1:
            return generate_paths(self.graph, expression, max_length)
        tasks = [(ctx, "paths", (expression, max_length, chunk))
                 for chunk in chunks]
        results = self._map(ctx, tasks, self.graph.size())
        merged = frozenset().union(*(r.paths for r in results))
        return PathSet(merged)

    def pagerank(self, damping: float = 0.85,
                 personalization: Optional[Dict[Hashable, float]] = None,
                 max_iterations: int = 200,
                 tolerance: float = 1.0e-10) -> Dict[Hashable, float]:
        """Label-blind pagerank over the multi-relational graph's shards.

        Same semantics as :func:`repro.algorithms.pagerank.pagerank` with
        every edge (any label) weighted 1: damped walk, dangling-mass
        redistribution, optional personalization, L1 convergence scaled by
        n, :class:`ConvergenceError` at the iteration cap.  Each iteration
        fans one scatter task per shard (workers read only their own rows)
        and sums the partial mass vectors in shard order — serial and
        parallel runs produce bit-identical ranks.
        """
        if not 0.0 <= damping <= 1.0:
            raise AlgorithmError("damping must be within [0, 1]")
        version = self.graph.version()
        ctx = self._context("scatter", version)
        sharded = sharded_snapshot(self.graph, self.num_shards)
        n = sharded.num_vertices
        if n == 0:
            return {}
        vertex_of = sharded.vertex_of
        if personalization is None:
            teleport = [1.0 / n] * n
        else:
            total = float(sum(personalization.values()))
            if total <= 0.0:
                raise AlgorithmError(
                    "personalization must have positive total mass")
            teleport = [personalization.get(v, 0.0) / total
                        for v in vertex_of]
        degrees = sharded.degrees
        ranges = sharded.ranges
        num_edges = sharded.num_edges
        ranks = list(teleport)
        for _ in range(max_iterations):
            previous = ranks
            coefficients = [
                damping * previous[v] / degrees[v] if degrees[v] else 0.0
                for v in range(n)]
            dangling_mass = sum(previous[v] for v in range(n)
                                if not degrees[v])
            # array('d') slices pickle as flat buffers — the per-iteration
            # task payloads stay a fraction of the scatter work they buy.
            tasks = [(ctx, "scatter",
                      (index, lo, hi, array("d", coefficients[lo:hi])))
                     for index, (lo, hi) in enumerate(ranges)]
            partials = self._map(ctx, tasks, num_edges)
            base = damping * dangling_mass + (1.0 - damping)
            ranks = self._merge_mass(partials, teleport, base, n)
            if self._l1_delta(ranks, previous, n) < n * tolerance:
                return dict(zip(vertex_of, ranks))
        raise ConvergenceError("pagerank", max_iterations, tolerance)

    @staticmethod
    def _merge_mass(partials: List[List[float]], teleport: List[float],
                    base: float, n: int) -> List[float]:
        """Sum shard partials in shard order, then add the teleport term.

        numpy only accelerates the element-wise adds; the addition order is
        the same as the scalar fallback's, so both produce identical bits.
        """
        if _np is not None:
            accumulated = _np.asarray(partials[0], dtype=_np.float64)
            for partial in partials[1:]:
                accumulated = accumulated + _np.asarray(partial,
                                                        dtype=_np.float64)
            accumulated = accumulated + base * _np.asarray(
                teleport, dtype=_np.float64)
            return accumulated.tolist()
        ranks = list(partials[0])
        for partial in partials[1:]:
            for v in range(n):
                ranks[v] += partial[v]
        for v in range(n):
            ranks[v] += base * teleport[v]
        return ranks

    @staticmethod
    def _l1_delta(ranks: List[float], previous: List[float], n: int) -> float:
        if _np is not None:
            return float(_np.abs(_np.asarray(ranks)
                                 - _np.asarray(previous)).sum())
        return sum(abs(ranks[v] - previous[v]) for v in range(n))

    def __repr__(self) -> str:
        return "ParallelExecutor<{}, pool={}>".format(
            self.describe(), "live" if self._pool is not None else "idle")
