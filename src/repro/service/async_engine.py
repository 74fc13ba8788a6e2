"""An awaitable facade over :class:`~repro.engine.engine.Engine`.

:class:`AsyncEngine` is the concurrency shell the serving tier runs on.
The blocking kernels stay exactly what they are — the facade moves them
into a **bounded** ``ThreadPoolExecutor`` and adds the machinery a shared
engine needs once multiple callers hit it at once:

* **Bounded concurrency** — at most ``max_concurrency`` queries run at a
  time; the rest wait in a FIFO.  One heavy sweep occupies one slot, so it
  cannot starve point queries out of the pool (they drain through the
  remaining slots while it runs).
* **Per-query deadlines and cancellation** — a ``deadline`` budget in
  seconds bounds the caller's *wait* for the whole trip, queue wait
  included: on expiry (or when the awaiting task is cancelled) the caller
  gets :class:`~repro.errors.DeadlineExceededError` immediately and the
  query's :class:`Deadline` flips.  Worker code checks it only *before*
  the kernel starts and between batch items, so it skips work not yet
  started but does not stop a running kernel: that kernel finishes its
  dispatch and holds its slot until its thread returns.  So abandonment
  can neither over-commit the executor nor poison it, but two abandoned
  long reads can wedge a two-worker engine (``ROADMAP.md``, item 2).
* **Reader/writer exclusivity** — queries share slots; :meth:`mutate`
  (and a registry checkpoint) waits for in-flight queries to drain and
  runs alone.  Every query therefore sees a graph frozen at one version,
  and every cached result is keyed by the version it was computed at.
  A source with its own writer (a replica's tailer) is held ``pinned()``.
* **Admission control** — when the FIFO is already ``max_queue_depth``
  deep, new work is shed with a retriable
  :class:`~repro.errors.OverloadedError` instead of queuing into an
  ever-growing tail (the HTTP tier turns it into a 429 + ``Retry-After``).
* **Result-cache fast path** — when the engine carries a
  :class:`~repro.engine.cache.QueryCache`, a repeated ``pairs`` query is
  answered straight from the event loop (O(lookup), no executor round
  trip, no slot).  Invalidation is by mutation version, which the cache
  key embeds.  :meth:`AsyncEngine.served_pairs` — the HTTP tier's read —
  also hands back the answer's wire bytes in the form the request asked
  for (a sorted pair list, or the blocks as they are): encoded once per
  form, in the worker thread that computed the answer, and kept in the
  cached answer's memo slot (:mod:`repro.service.wire`), so a hit never
  sorts or encodes — and the graph version the answer is exact at.

The facade passes PathQL text through; :meth:`Engine.compile` memoises it.
Text compiles on the loop first, so a syntax error takes no slot.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from typing import (Any, Callable, Deque, Dict, Iterable, Iterator, List,
                    Optional, Tuple, Union)

from repro.concurrency import ordered_lock, release_resource, track_resource
from repro.engine.engine import Engine
from repro.errors import DeadlineExceededError, OverloadedError, ServiceError
from repro.graph.pairs import PairBlocks
from repro.regex.ast import RegexExpr
from repro.service.wire import ServedPairs, serve_pairs

__all__ = ["AsyncEngine", "Deadline"]

#: Default worker-thread count for a standalone AsyncEngine.
DEFAULT_WORKERS = 4


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

    @contextmanager
    def _held(self) -> Iterator[int]:
        """The version a worker-side read answers at, held for the block
        (by the reader slot, and a source's own ``pinned()`` if it has
        one)."""
        graph = self.engine.graph
        pinned = getattr(graph, "pinned", None)
        with pinned() if pinned is not None else nullcontext():
            yield graph.version()

    async def _read_pairs(self, query: Union[str, RegexExpr],
                          sources: Optional[Iterable],
                          targets: Optional[Iterable],
                          max_length: Optional[int],
                          processes: Optional[int],
                          deadline: Optional[float],
                          finish: Callable[[PairBlocks, Optional[bool], int],
                                           Any]) -> Any:
        """One ``pairs`` read: ``finish(answer, cached, version)`` of a
        loop-side cache hit, else of a batch of one.  ``version`` is the
        one the answer is exact at: a hit counts only when the graph kept
        one version across the probe (the loop holds no slot, so a write
        may commit meanwhile)."""
        graph = self.engine.graph
        version = graph.version()
        hit = self.engine.cached_pairs(query, sources, targets, max_length)
        if hit is not None and graph.version() == version:
            self.counters["cache_fast_hits"] += 1
            return finish(hit, True, version)
        return (await self._read_batch(
            [query], sources, targets, max_length, processes, deadline,
            lambda answer, cached, version: finish(answer, False, version)
        ))[0]

    async def pairs(self, query: Union[str, RegexExpr],
                    sources: Optional[Iterable] = None,
                    targets: Optional[Iterable] = None,
                    max_length: Optional[int] = None,
                    processes: Optional[int] = None,
                    deadline: Optional[float] = None) -> PairBlocks:
        """Awaitable :meth:`Engine.pairs` with deadline + fast cache path."""
        return await self._read_pairs(
            query, sources, targets, max_length, processes, deadline,
            lambda answer, cached, version: answer)

    async def served_pairs(self, query: Union[str, RegexExpr],
                           sources: Optional[Iterable] = None,
                           targets: Optional[Iterable] = None,
                           max_length: Optional[int] = None,
                           processes: Optional[int] = None,
                           deadline: Optional[float] = None,
                           blocks: bool = False) -> ServedPairs:
        """:meth:`pairs` for a caller that writes the answer out.

        Returns the answer with its wire bytes — as blocks when
        ``blocks`` asks and the answer allows it, else the sorted pair
        list (:func:`~repro.service.wire.serve_pairs`) — whether it was a
        loop-side cache hit and the graph version it is exact at, both
        reported with the answer so concurrent requests cannot be
        mistaken for one another.  A miss encodes the
        asked-for form only, in the worker thread that computed it
        (inside the deadline), and the bytes stay in the cached answer's
        memo; a hit reads them back.
        """
        return await self._read_pairs(
            query, sources, targets, max_length, processes, deadline,
            lambda answer, cached, version: serve_pairs(
                answer, cached, blocks, version))

    async def _read_batch(self, queries: Iterable[Union[str, RegexExpr]],
                          sources: Optional[Iterable],
                          targets: Optional[Iterable],
                          max_length: Optional[int],
                          processes: Optional[int],
                          deadline: Optional[float],
                          finish: Callable[[PairBlocks, Optional[bool], int],
                                           Any]) -> List[Any]:
        """``finish(answer, None, version)`` of every answer of a batch,
        in one executor hop, all at one held version: each member is its
        own :meth:`Engine.pairs` read, after a cooperative budget check
        (a no-op for an unbounded budget)."""
        budget = self._deadline(deadline)
        queries = list(queries)
        for query in queries:
            self.engine.compile(query)  # a syntax error takes no slot

        def work(d: Deadline) -> List[Any]:
            answers = []
            with self._held() as version:
                for query in queries:
                    d.check()
                    answers.append(self.engine.pairs(
                        query, sources=sources, targets=targets,
                        max_length=max_length, processes=processes))
            # Encoding needs the answers only: the source is let go first.
            return [finish(answer, None, version) for answer in answers]
        return await self._run("read", work, budget)

    async def pairs_batch(self, queries: Iterable[Union[str, RegexExpr]],
                          sources: Optional[Iterable] = None,
                          targets: Optional[Iterable] = None,
                          max_length: Optional[int] = None,
                          processes: Optional[int] = None,
                          deadline: Optional[float] = None
                          ) -> List[PairBlocks]:
        """Awaitable :meth:`Engine.pairs_batch`.

        The batch runs query by query with a cooperative check between
        items, so an expired or cancelled budget stops after the current
        item instead of finishing the whole batch in a doomed thread.
        """
        return await self._read_batch(
            queries, sources, targets, max_length, processes, deadline,
            lambda answer, cached, version: answer)

    async def served_pairs_batch(
            self, queries: Iterable[Union[str, RegexExpr]],
            sources: Optional[Iterable] = None,
            targets: Optional[Iterable] = None,
            max_length: Optional[int] = None,
            processes: Optional[int] = None,
            deadline: Optional[float] = None,
            blocks: bool = False) -> List[ServedPairs]:
        """:meth:`pairs_batch` with every answer's wire bytes and their
        one version (see :meth:`served_pairs`; a batch does not report
        cache hits)."""
        return await self._read_batch(
            queries, sources, targets, max_length, processes, deadline,
            lambda answer, cached, version: serve_pairs(
                answer, cached, blocks, version))

    async def explain(self, query: Union[str, RegexExpr],
                      deadline: Optional[float] = None, **options: Any) -> str:
        """Awaitable :meth:`Engine.explain` (its keywords pass through)."""
        budget = self._deadline(deadline)
        self.engine.compile(query)  # a syntax error takes no slot
        return await self._run(
            "read", lambda d: self.engine.explain(query, **options), budget)

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
