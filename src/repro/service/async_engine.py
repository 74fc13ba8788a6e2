"""An awaitable facade over :class:`~repro.engine.engine.Engine`.

:class:`AsyncEngine` is the concurrency shell the serving tier runs on.
The blocking kernels stay exactly what they are — the facade moves them
into a **bounded** ``ThreadPoolExecutor`` and adds the machinery a shared
engine needs once multiple callers hit it at once:

* **Bounded concurrency** — at most ``max_concurrency`` queries run at a
  time; the rest wait in a FIFO.  One heavy sweep occupies one slot, so it
  cannot starve point queries out of the pool (they drain through the
  remaining slots while it runs).
* **Per-query deadlines** — a ``deadline`` budget in seconds covers the
  whole trip (queue wait included).  When it expires the awaiting caller
  gets :class:`~repro.errors.DeadlineExceededError` immediately; the
  budget is also visible to the worker side (see below), so abandoned
  work stops at the next cooperative checkpoint instead of burning a
  slot to completion.
* **Cooperative cancellation** — cancelling the awaiting task (or an
  expired deadline) flips the query's :class:`Deadline`; worker code
  checks it *before* the kernel starts and between batch items.  A kernel
  already inside its product BFS finishes that one dispatch — its slot is
  released the moment the thread returns, never earlier, so abandonment
  can neither over-commit the executor nor poison it.
* **Reader/writer exclusivity** — queries share slots; :meth:`mutate`
  (and a registry checkpoint) waits for in-flight queries to drain and
  runs alone.  Every query therefore sees a graph frozen at one version,
  and every cached result is keyed by the version it was computed at.
* **Admission control** — when the FIFO is already ``max_queue_depth``
  deep, new work is shed with a retriable
  :class:`~repro.errors.OverloadedError` instead of queuing into an
  ever-growing tail (the HTTP tier turns it into a 429 + ``Retry-After``).
* **Result-cache fast path** — when the engine carries a
  :class:`~repro.engine.cache.QueryCache`, a repeated ``pairs`` query is
  answered straight from the event loop (O(lookup), no executor round
  trip, no slot).  Invalidation is by mutation version, which the cache
  key embeds.  :meth:`AsyncEngine.served_pairs` — the HTTP tier's read —
  also hands back the answer's wire bytes: encoded once, in the worker
  thread that computed the answer, and kept in the cached answer's memo
  slot (:mod:`repro.service.wire`), so a hit never sorts or encodes.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple, Union

from repro.concurrency import ordered_lock, release_resource, track_resource
from repro.engine.engine import Engine
from repro.errors import DeadlineExceededError, OverloadedError, ServiceError
from repro.graph.pairs import PairBlocks
from repro.regex.ast import RegexExpr
from repro.service.wire import ServedPairs, serve_pairs

__all__ = ["AsyncEngine", "Deadline"]

#: Default worker-thread count for a standalone AsyncEngine.
DEFAULT_WORKERS = 4

#: Compiled-query LRU capacity (PathQL text -> normalized AST).
_COMPILE_CACHE_CAP = 256


class Deadline:
    """A monotonic per-query budget doubling as a cooperative cancel flag.

    ``seconds=None`` means unbounded (never expires, still cancellable).
    Worker threads call :meth:`check` at cooperative checkpoints; the
    event loop calls :meth:`cancel` when the awaiting side gives up, so
    in-flight work notices without any cross-thread signalling beyond one
    boolean read.
    """

    def __init__(self, seconds: Optional[float] = None):
        if seconds is not None and seconds <= 0:
            raise ServiceError(
                "deadline must be positive, got {!r}".format(seconds))
        self.seconds = seconds
        self._expires = None if seconds is None \
            else time.monotonic() + seconds
        self._cancelled = False

    def remaining(self) -> Optional[float]:
        """Seconds left (never negative), or ``None`` when unbounded."""
        if self._expires is None:
            return None
        return max(0.0, self._expires - time.monotonic())

    def expired(self) -> bool:
        return self._expires is not None \
            and time.monotonic() >= self._expires

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Flip the cooperative flag; worker checkpoints raise from now on."""
        self._cancelled = True

    def check(self, phase: str = "running") -> None:
        """Raise :class:`DeadlineExceededError` when cancelled or expired."""
        if self._cancelled:
            raise DeadlineExceededError(self.seconds, phase="cancelled")
        if self.expired():
            raise DeadlineExceededError(self.seconds, phase=phase)

    def __repr__(self) -> str:
        return "Deadline<{}, {}>".format(
            "unbounded" if self.seconds is None
            else "{:.3f}s".format(self.seconds),
            "cancelled" if self._cancelled else "live")


class AsyncEngine:
    """The awaitable engine facade (see module docstring).

    Parameters
    ----------
    engine:
        The blocking :class:`Engine` to front.  Give it a
        :class:`~repro.engine.cache.QueryCache` to unlock the loop-side
        result fast path.
    max_workers:
        Executor thread count (ignored when ``executor`` is passed).
    max_concurrency:
        Query slots; defaults to the worker count.  Keeping it at or
        below ``max_workers`` means an admitted query never waits for a
        thread.
    max_queue_depth:
        Waiting-query bound for admission control; ``None`` disables
        shedding (unbounded FIFO).
    default_deadline:
        Budget applied when a call passes ``deadline=None``.
    executor:
        An externally owned ``ThreadPoolExecutor`` to share (the registry
        pools one across graphs); the facade then never shuts it down.
    """

    def __init__(self, engine: Engine,
                 max_workers: int = DEFAULT_WORKERS,
                 max_concurrency: Optional[int] = None,
                 max_queue_depth: Optional[int] = None,
                 default_deadline: Optional[float] = None,
                 executor: Optional[ThreadPoolExecutor] = None):
        self.engine = engine
        self._owns_executor = executor is None
        self._executor = executor if executor is not None else \
            ThreadPoolExecutor(max_workers=max_workers,
                               thread_name_prefix="repro-query")
        self._leak_token = track_resource(
            "query-executor", repr(engine.graph)) \
            if self._owns_executor else None
        self.max_concurrency = max(1, max_concurrency
                                   if max_concurrency is not None
                                   else max_workers)
        self.max_queue_depth = max_queue_depth
        self.default_deadline = default_deadline
        # Reader/writer slot state; every transition happens in the event
        # loop thread, so plain counters + a FIFO of futures suffice (no
        # locks, no Condition).  FIFO order is the fairness story: a
        # waiting writer blocks later readers, so it cannot starve.
        self._active_readers = 0
        self._writer_active = False
        self._waiters: Deque[Tuple[str, "asyncio.Future"]] = deque()
        self._compiled: "OrderedDict[str, RegexExpr]" = OrderedDict()
        self._closed = False
        # Guards only the close() idempotency flip: slot state stays
        # loop-confined, but teardown can race between the event loop and
        # the registry's synchronous eviction/close paths.
        self._state_lock = ordered_lock("service.async_engine")
        self.counters: Dict[str, int] = {
            "submitted": 0, "completed": 0, "failed": 0,
            "deadline_exceeded": 0, "shed": 0, "cache_fast_hits": 0,
            "mutations": 0,
        }

    # -- compilation (loop side, cached) -------------------------------

    def _compile(self, query: Union[str, RegexExpr]) -> RegexExpr:
        """Parse+normalize via a small LRU so the loop never re-parses a
        hot query string (ASTs pass straight through)."""
        if not isinstance(query, str):
            return query
        expression = self._compiled.get(query)
        if expression is None:
            expression = self.engine.compile(query)
            self._compiled[query] = expression
            if len(self._compiled) > _COMPILE_CACHE_CAP:
                self._compiled.popitem(last=False)
        else:
            self._compiled.move_to_end(query)
        return expression

    # -- slot management (loop side) -----------------------------------

    def _grantable(self, kind: str) -> bool:
        if self._writer_active:
            return False
        if kind == "write":
            return self._active_readers == 0
        return self._active_readers < self.max_concurrency

    def _grant(self, kind: str) -> None:
        if kind == "write":
            self._writer_active = True
        else:
            self._active_readers += 1

    def _release(self, kind: str) -> None:
        if kind == "write":
            self._writer_active = False
        else:
            self._active_readers -= 1
        self._wake()

    def _wake(self) -> None:
        """Grant queued slots head-first; a blocked head blocks the queue
        (FIFO fairness — this is what gives writers priority over later
        readers without starving either side)."""
        while self._waiters:
            kind, waiter = self._waiters[0]
            if waiter.done():
                self._waiters.popleft()
                continue
            if not self._grantable(kind):
                break
            self._grant(kind)
            waiter.set_result(None)
            self._waiters.popleft()

    async def _acquire(self, kind: str, deadline: Deadline) -> None:
        self._check_open()
        deadline.check(phase="queued")
        if not self._waiters and self._grantable(kind):
            self._grant(kind)
            return
        if self.max_queue_depth is not None \
                and len(self._waiters) >= self.max_queue_depth:
            self.counters["shed"] += 1
            raise OverloadedError(
                "admission queue is full ({} waiting, {} running); "
                "retry with backoff".format(
                    len(self._waiters), self._active_readers),
                retry_after=1.0)
        waiter = asyncio.get_running_loop().create_future()
        self._waiters.append((kind, waiter))
        try:
            remaining = deadline.remaining()
            if remaining is None:
                await waiter
            else:
                await asyncio.wait_for(waiter, remaining)
        except asyncio.TimeoutError:
            self._withdraw(kind, waiter)
            raise DeadlineExceededError(deadline.seconds, phase="queued") \
                from None
        except asyncio.CancelledError:
            self._withdraw(kind, waiter)
            raise

    def _withdraw(self, kind: str, waiter: "asyncio.Future") -> None:
        """Back out of the queue; if the slot raced in, give it back."""
        if waiter.done() and not waiter.cancelled():
            self._release(kind)
        else:
            waiter.cancel()
            self._wake()

    # -- execution -----------------------------------------------------

    def _deadline(self, deadline: Optional[float]) -> Deadline:
        if isinstance(deadline, Deadline):
            return deadline
        return Deadline(self.default_deadline if deadline is None
                        else deadline)

    async def _run(self, kind: str, work: Callable[[Deadline], Any],
                   deadline: Deadline) -> Any:
        """Admit, dispatch to the executor, await under the deadline.

        The slot is released when the worker *thread* finishes — not when
        the awaiting side gives up — so an abandoned kernel can never
        over-commit the pool; and the executor future is shielded, so a
        ``wait_for`` timeout abandons it instead of leaving a half-run
        kernel believing it was cancelled.
        """
        await self._acquire(kind, deadline)
        self.counters["submitted"] += 1
        loop = asyncio.get_running_loop()

        def guarded() -> Any:
            # Cooperative checkpoint: work that sat queued in the
            # executor past its budget (or was cancelled while queued)
            # never starts its kernel.
            deadline.check(phase="queued")
            return work(deadline)

        future = loop.run_in_executor(self._executor, guarded)

        def on_done(f: "asyncio.Future") -> None:
            self._release(kind)
            if f.cancelled():
                return
            if f.exception() is not None:
                self.counters["failed"] += 1
            else:
                self.counters["completed"] += 1

        future.add_done_callback(on_done)
        try:
            remaining = deadline.remaining()
            if remaining is None:
                return await asyncio.shield(future)
            return await asyncio.wait_for(asyncio.shield(future), remaining)
        except asyncio.TimeoutError:
            deadline.cancel()
            self.counters["deadline_exceeded"] += 1
            raise DeadlineExceededError(deadline.seconds) from None
        except DeadlineExceededError:
            self.counters["deadline_exceeded"] += 1
            raise
        except asyncio.CancelledError:
            deadline.cancel()
            raise

    # -- public query surface ------------------------------------------

    async def _read_pairs(self, query: Union[str, RegexExpr],
                          sources: Optional[Iterable],
                          targets: Optional[Iterable],
                          max_length: Optional[int],
                          processes: Optional[int],
                          deadline: Optional[float],
                          finish: Callable[[PairBlocks, bool], Any]) -> Any:
        """One ``pairs`` read: ``finish(answer, cached)`` of a loop-side
        cache hit, else of the executor's evaluation — run in the worker
        thread that produced the answer, under the same deadline."""
        budget = self._deadline(deadline)
        expression = self._compile(query)
        hit = self.engine._cached_pairs(expression, sources, targets,
                                        max_length)
        if hit is not None:
            self.counters["cache_fast_hits"] += 1
            return finish(hit, True)
        return await self._run(
            "read",
            lambda d: finish(self.engine.pairs(
                expression, sources=sources, targets=targets,
                max_length=max_length, processes=processes), False),
            budget)

    async def pairs(self, query: Union[str, RegexExpr],
                    sources: Optional[Iterable] = None,
                    targets: Optional[Iterable] = None,
                    max_length: Optional[int] = None,
                    processes: Optional[int] = None,
                    deadline: Optional[float] = None) -> PairBlocks:
        """Awaitable :meth:`Engine.pairs` with deadline + fast cache path."""
        return await self._read_pairs(
            query, sources, targets, max_length, processes, deadline,
            lambda answer, cached: answer)

    async def served_pairs(self, query: Union[str, RegexExpr],
                           sources: Optional[Iterable] = None,
                           targets: Optional[Iterable] = None,
                           max_length: Optional[int] = None,
                           processes: Optional[int] = None,
                           deadline: Optional[float] = None) -> ServedPairs:
        """:meth:`pairs` for a caller that writes the answer out.

        Returns the answer with its wire bytes and whether it was a
        loop-side cache hit — reported with the answer, so concurrent
        requests cannot be mistaken for one another.  A miss is encoded
        in the worker thread that computed it (inside the deadline) and
        the bytes stay in the cached answer's memo; a hit reads them back.
        """
        return await self._read_pairs(
            query, sources, targets, max_length, processes, deadline,
            serve_pairs)

    async def _read_batch(self, queries: Iterable[Union[str, RegexExpr]],
                          sources: Optional[Iterable],
                          targets: Optional[Iterable],
                          max_length: Optional[int],
                          processes: Optional[int],
                          deadline: Optional[float],
                          finish: Callable[[PairBlocks], Any]) -> List[Any]:
        """``finish`` of every answer of a batch, in the worker thread."""
        budget = self._deadline(deadline)
        expressions = [self._compile(query) for query in queries]
        if budget.seconds is None:
            work = lambda d: [finish(answer) for answer in
                              self.engine.pairs_batch(
                                  expressions, sources=sources,
                                  targets=targets, max_length=max_length,
                                  processes=processes)]
        else:
            def work(d: Deadline) -> List[Any]:
                out = []
                for expression in expressions:
                    d.check()
                    out.append(finish(self.engine.pairs(
                        expression, sources=sources, targets=targets,
                        max_length=max_length, processes=processes)))
                return out
        return await self._run("read", work, budget)

    async def pairs_batch(self, queries: Iterable[Union[str, RegexExpr]],
                          sources: Optional[Iterable] = None,
                          targets: Optional[Iterable] = None,
                          max_length: Optional[int] = None,
                          processes: Optional[int] = None,
                          deadline: Optional[float] = None
                          ) -> List[PairBlocks]:
        """Awaitable :meth:`Engine.pairs_batch`.

        Without a deadline the whole batch goes down as one engine call
        (one pool fan-out).  Under a deadline the batch runs query by
        query with a cooperative check between items, so an expired
        budget stops after the current item instead of finishing the
        whole batch in a doomed thread.
        """
        return await self._read_batch(
            queries, sources, targets, max_length, processes, deadline,
            lambda answer: answer)

    async def served_pairs_batch(
            self, queries: Iterable[Union[str, RegexExpr]],
            sources: Optional[Iterable] = None,
            targets: Optional[Iterable] = None,
            max_length: Optional[int] = None,
            processes: Optional[int] = None,
            deadline: Optional[float] = None) -> List[ServedPairs]:
        """:meth:`pairs_batch` with every answer's wire bytes (see
        :meth:`served_pairs`; a batch does not report cache hits)."""
        return await self._read_batch(
            queries, sources, targets, max_length, processes, deadline,
            serve_pairs)

    async def query(self, query: Union[str, RegexExpr],
                    strategy: str = "materialized",
                    max_length: Optional[int] = None,
                    limit: Optional[int] = None,
                    processes: Optional[int] = None,
                    deadline: Optional[float] = None) -> Any:
        """Awaitable :meth:`Engine.query` (path-materializing strategies)."""
        budget = self._deadline(deadline)
        expression = self._compile(query)
        return await self._run(
            "read",
            lambda d: self.engine.query(expression, strategy=strategy,
                                        max_length=max_length, limit=limit,
                                        processes=processes),
            budget)

    async def explain(self, query: Union[str, RegexExpr],
                      deadline: Optional[float] = None, **options: Any) -> str:
        """Awaitable :meth:`Engine.explain` (its keywords pass through)."""
        budget = self._deadline(deadline)
        expression = self._compile(query)
        return await self._run(
            "read", lambda d: self.engine.explain(expression, **options),
            budget)

    async def mutate(self, mutator: Callable[..., Any],
                     deadline: Optional[float] = None) -> Any:
        """Run ``mutator(graph)`` **exclusively**: queries drain first.

        Readers admitted before the mutation see the old version; readers
        arriving behind it in the FIFO see the new one — every result is
        consistent with exactly one version, and the version-keyed caches
        invalidate themselves.
        """
        budget = self._deadline(deadline)
        result = await self._run(
            "write", lambda d: mutator(self.engine.graph), budget)
        self.counters["mutations"] += 1
        return result

    # -- lifecycle / introspection -------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("AsyncEngine is closed")

    async def drain(self, deadline: Optional[float] = None) -> None:
        """Wait until no queries are in flight (a writer slot round trip)."""
        budget = self._deadline(deadline)
        await self._acquire("write", budget)
        self._release("write")

    async def aclose(self, deadline: Optional[float] = 30.0) -> None:
        """Drain in-flight queries, then release every resource.

        New work is refused immediately; queries already holding a slot
        get up to ``deadline`` seconds to finish before the executor is
        shut down without waiting.
        """
        if self._closed:
            return
        try:
            await self.drain(deadline=deadline)
        except DeadlineExceededError:
            pass
        self.close(wait=False)

    def close(self, wait: bool = True) -> None:
        """Synchronous teardown (idempotent): executor + engine pool.

        The closed flip happens under ``_state_lock`` so exactly one of
        two racing closers (the event loop's ``aclose`` vs the registry's
        synchronous eviction) runs the teardown body; everything after
        the flip is executed by that single winner.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        for _, waiter in list(self._waiters):
            if not waiter.done():
                waiter.cancel()
        self._waiters.clear()
        if self._owns_executor:
            self._executor.shutdown(wait=wait)
        self.engine.close()
        release_resource(self._leak_token)

    @property
    def idle(self) -> bool:
        """True when no query is active or queued on this engine.

        The registry's eviction pass consults this so a handle is never
        torn down underneath an in-flight query: refcounts cover callers
        that went through :meth:`GraphRegistry.acquire`, while ``idle``
        covers work already admitted into the engine itself.
        """
        return (self._active_readers == 0 and not self._writer_active
                and not self._waiters)

    def stats(self) -> Dict[str, Any]:
        """Concurrency + cache counters, JSON-ready."""
        return {
            "max_concurrency": self.max_concurrency,
            "max_queue_depth": self.max_queue_depth,
            "active": self._active_readers,
            "writer_active": self._writer_active,
            "waiting": len(self._waiters),
            "counters": dict(self.counters),
            "engine_caches": self.engine.cache_stats(),
            "parallel": self.engine.parallel_stats(),
        }

    async def __aenter__(self) -> "AsyncEngine":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    def __repr__(self) -> str:
        return "AsyncEngine<{!r}, {} slot(s), {} active, {} waiting{}>".format(
            self.engine.graph, self.max_concurrency, self._active_readers,
            len(self._waiters), ", closed" if self._closed else "")
