"""The runtime lock-order witness and resource-leak registry.

The static half of the concurrency story lives in
:mod:`repro.analysis.concurrency` (reprorace): it proves lock discipline
on the AST.  This module is the dynamic half — the part only a real
schedule can exercise:

* :class:`OrderedLock` — the wrapper every lock-holding subsystem
  (:mod:`repro.storage`, :mod:`repro.service`, :mod:`repro.engine`,
  :mod:`repro.faults`) constructs through :func:`ordered_lock` /
  :func:`ordered_rlock`.  Disarmed — the production default — an
  acquisition is one module-global load plus an ``is None`` test on top
  of the raw :class:`threading.Lock`, the same bargain the fault hooks
  struck in :mod:`repro.faults` (and held the same way, by count:
  ``tests/test_storage.py::test_hot_append_and_query_step_takes_three_ordered_locks``
  pins a hot WAL-append + cached-query step at three such crossings,
  ~90 ns each against the observatory's ``wal.append_us``).
* :class:`LockWitness` — armed (``REPRO_LOCK_WITNESS=1`` or
  :func:`arm_witness`), every acquisition records per-thread *order
  edges* ``held-lock-name -> acquired-lock-name`` into one global graph
  and **fail-stops on the first cycle**: the
  :class:`~repro.errors.LockOrderViolation` is raised *before* the
  offending acquire blocks, so a potential deadlock surfaces as a typed
  error with the cycle spelled out instead of a wedged process.  Edges
  are keyed by lock *name*, not instance — two WAL handles share the
  slot ``storage.wal``, which is exactly what a class-level lock
  hierarchy promises.  Re-entrant re-acquisition of the *same*
  :func:`ordered_rlock` object records nothing (that is what reentrancy
  is for); nesting two *different* same-named locks is a violation.
* :class:`LeakRegistry` — armed (``REPRO_LEAK_TRACKING=1`` or
  :func:`arm_tracking`), lifecycle-owning constructors call
  :func:`track_resource` and their ``close`` paths
  :func:`release_resource`; the service and chaos suites assert the
  registry empty at teardown, turning "we probably closed everything"
  into a checked invariant.

The chaos suite (``tests/test_chaos.py``) runs its whole 240-step fault
schedule with both armed: every injected fault also proves the lock
order stayed acyclic and every handle was released.
"""

from __future__ import annotations

import itertools
import os
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import LockOrderViolation, ResourceLeakError

__all__ = [
    "WITNESS_ENV",
    "TRACKING_ENV",
    "OrderedLock",
    "ordered_lock",
    "ordered_rlock",
    "LockWitness",
    "arm_witness",
    "disarm_witness",
    "installed_witness",
    "witness_scope",
    "LeakRegistry",
    "arm_tracking",
    "disarm_tracking",
    "installed_tracker",
    "tracking_scope",
    "track_resource",
    "release_resource",
]

#: Environment variables arming the witness / the leak registry at import
#: (the subprocess story, mirroring ``REPRO_FAULTS``); in-process tests
#: use :func:`witness_scope` / :func:`tracking_scope` instead.
WITNESS_ENV = "REPRO_LOCK_WITNESS"
TRACKING_ENV = "REPRO_LEAK_TRACKING"


class LockWitness:
    """A global lock-order graph fed by armed :class:`OrderedLock`\\ s.

    Per-thread held stacks live in a :class:`threading.local`; the graph
    itself is guarded by one *raw* :class:`threading.Lock` (the witness
    cannot witness itself).  ``acquisitions`` counts armed crossings —
    the chaos suite asserts the witness actually saw traffic, so an
    accidentally disarmed run cannot pass vacuously.
    """

    def __init__(self) -> None:
        #: lock name -> names acquired while it was held.
        self._edges: Dict[str, Set[str]] = {}
        self._graph_lock = threading.Lock()
        self._held = threading.local()
        self.acquisitions = 0
        self.edges_recorded = 0

    # -- per-thread state ----------------------------------------------

    def _stack(self) -> List["OrderedLock"]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    # -- acquisition protocol ------------------------------------------

    def before_acquire(self, lock: "OrderedLock") -> None:
        """Record order edges and fail-stop on a cycle — *before* blocking."""
        stack = self._stack()
        if lock.reentrant and any(entry is lock for entry in stack):
            return  # re-entrant re-acquire of the same object: no edge
        if not stack:
            with self._graph_lock:
                self.acquisitions += 1
            return
        held_names = list(dict.fromkeys(entry.name for entry in stack))
        with self._graph_lock:
            self.acquisitions += 1
            for held in held_names:
                if held == lock.name:
                    # A second, *different* object under the same name:
                    # the class-level hierarchy gives these no order.
                    raise LockOrderViolation((held, lock.name),
                                            holding=held_names)
                targets = self._edges.setdefault(held, set())
                if lock.name in targets:
                    continue
                path = self._path(lock.name, held)
                if path is not None:
                    raise LockOrderViolation([held] + path,
                                            holding=held_names)
                targets.add(lock.name)
                self.edges_recorded += 1

    def note_acquired(self, lock: "OrderedLock") -> None:
        self._stack().append(lock)

    def after_release(self, lock: "OrderedLock") -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is lock:
                del stack[index]
                return

    def _path(self, source: str, target: str) -> Optional[List[str]]:
        """A lock-name path ``source -> ... -> target``, or None.

        Caller holds ``_graph_lock``.  Used to detect (and spell out)
        the cycle a candidate edge ``target -> source`` would close.
        """
        if source == target:
            return [source]
        parents: Dict[str, str] = {source: source}
        frontier = [source]
        while frontier:
            node = frontier.pop()
            for successor in self._edges.get(node, ()):
                if successor in parents:
                    continue
                parents[successor] = node
                if successor == target:
                    path = [successor]
                    while path[-1] != source:
                        path.append(parents[path[-1]])
                    path.reverse()
                    return path
                frontier.append(successor)
        return None

    # -- introspection -------------------------------------------------

    def edges(self) -> Dict[str, Tuple[str, ...]]:
        """A snapshot of the order graph: ``{held: (acquired, ...)}``."""
        with self._graph_lock:
            return {name: tuple(sorted(targets))
                    for name, targets in self._edges.items() if targets}

    def held_names(self) -> Tuple[str, ...]:
        """Names the *current thread* holds, innermost last."""
        return tuple(entry.name for entry in self._stack())

    def assert_acyclic(self) -> None:
        """Full-graph check; a belt for the fail-stop suspenders.

        Every edge was cycle-checked at insertion, so this can only fire
        if the graph was mutated behind the witness's back — but the
        chaos suite calls it anyway: a vacuous invariant is no invariant.
        """
        edges = self.edges()
        state: Dict[str, int] = {}

        def visit(node: str, path: List[str]) -> None:
            state[node] = 1
            path.append(node)
            for successor in edges.get(node, ()):
                if state.get(successor) == 1:
                    cycle = path[path.index(successor):] + [successor]
                    raise LockOrderViolation(cycle)
                if successor not in state:
                    visit(successor, path)
            path.pop()
            state[node] = 2

        for name in list(edges):
            if name not in state:
                visit(name, [])

    def __repr__(self) -> str:
        edges = self.edges()
        return "LockWitness<{} acquisition(s), {} edge(s)>".format(
            self.acquisitions, sum(len(v) for v in edges.values()))


class OrderedLock:
    """A named lock whose acquisitions feed the armed witness.

    Disarmed, :meth:`acquire`/:meth:`release` (and the ``with`` protocol)
    are the raw lock plus one module-global load and an ``is None`` test
    — the same zero-overhead bargain as the disarmed fault hooks, held
    by ``tests/test_concurrency_analysis.py::test_disarmed_lock_is_a_plain_lock``.
    ``reentrant=True``
    wraps an :class:`threading.RLock` and exempts same-object
    re-acquisition from order edges.
    """

    __slots__ = ("name", "reentrant", "_inner")

    def __init__(self, name: str, reentrant: bool = False) -> None:
        self.name = name
        self.reentrant = reentrant
        self._inner = threading.RLock() if reentrant else threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        witness = _WITNESS
        if witness is not None:
            witness.before_acquire(self)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired and witness is not None:
            witness.note_acquired(self)
        return acquired

    def release(self) -> None:
        self._inner.release()
        witness = _WITNESS
        if witness is not None:
            witness.after_release(self)

    def __enter__(self) -> "OrderedLock":
        witness = _WITNESS
        if witness is None:
            self._inner.acquire()
            return self
        witness.before_acquire(self)
        self._inner.acquire()
        witness.note_acquired(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._inner.release()
        witness = _WITNESS
        if witness is not None:
            witness.after_release(self)

    def __repr__(self) -> str:
        return "OrderedLock<{}{}>".format(
            self.name, ", reentrant" if self.reentrant else "")


def ordered_lock(name: str) -> OrderedLock:
    """A witness-aware mutex (the :class:`threading.Lock` shape)."""
    return OrderedLock(name)


def ordered_rlock(name: str) -> OrderedLock:
    """A witness-aware re-entrant lock (the :class:`threading.RLock` shape)."""
    return OrderedLock(name, reentrant=True)


class LeakRegistry:
    """Live tracked resources; asserted empty at suite teardown."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._live: Dict[int, Tuple[str, str]] = {}
        self._tokens = itertools.count(1)
        self.tracked = 0
        self.released = 0

    def track(self, kind: str, detail: str) -> int:
        with self._lock:
            token = next(self._tokens)
            self._live[token] = (kind, detail)
            self.tracked += 1
            return token

    def untrack(self, token: int) -> None:
        with self._lock:
            if self._live.pop(token, None) is not None:
                self.released += 1

    def live(self) -> List[Tuple[str, str]]:
        with self._lock:
            return sorted(self._live.values())

    def assert_empty(self) -> None:
        leaks = self.live()
        if leaks:
            raise ResourceLeakError(leaks)

    def __repr__(self) -> str:
        return "LeakRegistry<{} live, {} tracked, {} released>".format(
            len(self._live), self.tracked, self.released)


#: The armed witness / tracker.  ``None`` in production: every hook below
#: reduces to one global load plus an ``is None`` test.
_WITNESS: Optional[LockWitness] = None
_TRACKER: Optional[LeakRegistry] = None


def arm_witness() -> LockWitness:
    """Install (and return) a fresh process-wide lock-order witness."""
    global _WITNESS
    _WITNESS = LockWitness()
    return _WITNESS


def disarm_witness() -> Optional[LockWitness]:
    """Disarm; returns the witness that was armed (for final asserts)."""
    global _WITNESS
    witness, _WITNESS = _WITNESS, None
    return witness


def installed_witness() -> Optional[LockWitness]:
    return _WITNESS


@contextmanager
def witness_scope() -> Iterator[LockWitness]:
    """Arm a fresh witness for a ``with`` block, restoring the previous.

    Locks acquired (but not yet released) *before* arming are invisible
    to the fresh witness — arm before building the objects under test.
    """
    global _WITNESS
    previous = _WITNESS
    _WITNESS = witness = LockWitness()
    try:
        yield witness
    finally:
        _WITNESS = previous


def arm_tracking() -> LeakRegistry:
    """Install (and return) a fresh process-wide leak registry."""
    global _TRACKER
    _TRACKER = LeakRegistry()
    return _TRACKER


def disarm_tracking() -> Optional[LeakRegistry]:
    global _TRACKER
    tracker, _TRACKER = _TRACKER, None
    return tracker


def installed_tracker() -> Optional[LeakRegistry]:
    return _TRACKER


@contextmanager
def tracking_scope() -> Iterator[LeakRegistry]:
    """Arm a fresh leak registry for a ``with`` block.

    Does **not** assert on exit — teardown code should close everything
    first and then call :meth:`LeakRegistry.assert_empty` explicitly, so
    the assertion error points at the leak, not at the scope exit.
    """
    global _TRACKER
    previous = _TRACKER
    _TRACKER = tracker = LeakRegistry()
    try:
        yield tracker
    finally:
        _TRACKER = previous


def track_resource(kind: str, detail: str = "") -> Optional[int]:
    """Register a lifecycle-owning resource with the armed registry.

    Returns the token ``release_resource`` takes, or ``None`` while
    disarmed — callers store it unconditionally and release it
    unconditionally; both directions are no-ops when tracking is off.
    """
    tracker = _TRACKER
    if tracker is None:
        return None
    return tracker.track(kind, detail)


def release_resource(token: Optional[int]) -> None:
    """Mark a tracked resource closed (no-op for ``None`` tokens)."""
    if token is None:
        return
    tracker = _TRACKER
    if tracker is not None:
        tracker.untrack(token)


# Subprocess arming, mirroring REPRO_FAULTS: a `repro serve` child (or a
# chaos CI step) arms by environment because no test code runs inside it.
if os.environ.get(WITNESS_ENV, "") not in ("", "0"):
    arm_witness()
if os.environ.get(TRACKING_ENV, "") not in ("", "0"):
    arm_tracking()
