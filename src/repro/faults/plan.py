"""Deterministic, seed-driven fault injection for robustness testing.

The production contract is **fail-stop-or-correct**: under any injected
fault the system either raises a typed error / degrades explicitly, or
returns exactly what the dict reference returns — never a silently wrong
answer.  This module supplies the injection half of that bargain: named
*sites* compiled into the hot paths of the storage, pool and service
tiers, armed by a :class:`FaultPlan`, and **zero-overhead when disarmed**
(the hook is one module-global load and an ``is None`` test, and
``tests/test_faults.py::test_hot_read_crosses_the_one_fault_site_it_names``
pins a hot query at one crossing — ~45 ns against the observatory's
``rung.engine_us``).

Sites and kinds
---------------
A site is a dotted name at one failure point (``"wal.fsync"``,
``"pool.task"``, ``"http.connection_drop"``; see ``docs/robustness.md``
for the full inventory).  A :class:`Fault` armed at a site has a *kind*
that the site interprets:

``eio`` / ``enospc``
    The hook raises the matching :class:`OSError` (``enospc`` with
    ``fraction`` set models a short write: the site writes that fraction
    of its buffer first, then raises — a torn frame on disk).
``kill`` / ``hang``
    Worker-process faults: ``kill`` hard-exits the process
    (``os._exit``), ``hang`` sleeps ``seconds``.  They only ever fire in
    a *forked child* (the plan records the arming pid), so a serial
    fallback re-running the same task in the parent is safe by
    construction.
``drop`` / ``delay``
    Service faults: the HTTP tier aborts the connection mid-response, or
    stalls ``seconds`` before reading/writing (a slow client).
``torn`` / ``dup``
    Replication-ship faults: ``torn`` truncates a shipped byte run to
    ``fraction`` of its length (a segment cut mid-frame, or a snapshot
    fetch interrupted by primary death); ``dup`` re-serves an
    already-shipped batch (the feed hands back the *request* cursor as
    the next cursor, so the replica fetches the same run twice —
    duplicate/reordered delivery the apply path must absorb).

Determinism
-----------
Nothing here is time- or randomness-dependent: a fault fires on exact
call counts (``after`` skips the first N hits, ``times`` bounds how often
it fires), so a chaos schedule derived from a seeded RNG replays
identically.  For fire-*once-across-processes* semantics (kill exactly
one pool worker no matter which one gets the task first) a fault can
carry a ``token`` file path: firing requires atomically unlinking the
file, which exactly one process can win.

Arming
------
:func:`install_plan` / :func:`fault_scope` arm a plan in-process;
``REPRO_FAULTS`` (parsed by :meth:`FaultPlan.from_spec`, e.g.
``"wal.fsync:eio:times=1;http.connection_drop:drop"``) arms one inside a
``repro serve`` subprocess.  Plans are inherited through ``fork`` — that
is how pool-worker faults reach the workers.
"""

from __future__ import annotations

import errno
import os
import time
from typing import Callable, Dict, Iterator, List, Optional

from contextlib import contextmanager

from repro.concurrency import ordered_lock
from repro.errors import StorageError

__all__ = [
    "Fault",
    "FaultPlan",
    "fault_hook",
    "fault_point",
    "worker_fault_point",
    "install_plan",
    "clear_plan",
    "fault_scope",
    "installed_plan",
]

#: Fault kinds -> the errno a raise-style site surfaces.
_ERRNO_OF_KIND = {"eio": errno.EIO, "enospc": errno.ENOSPC}

_KINDS = ("eio", "enospc", "kill", "hang", "drop", "delay", "torn", "dup")

#: Exit status a ``kill`` fault dies with — distinguishable from a real
#: segfault (negative signal) and from a clean exit in pool post-mortems.
KILL_EXIT_CODE = 17


class Fault:
    """One armed fault: a site name, a kind, and firing bounds.

    ``after`` hits at the site pass through before the fault starts
    firing; it then fires ``times`` times (``None`` = every hit).  A
    ``token`` path makes firing conditional on atomically unlinking that
    file — fire-once semantics that hold across forked processes, where
    plain counters are per-process copies.
    """

    __slots__ = ("site", "kind", "after", "times", "seconds", "fraction",
                 "token", "calls", "fired")

    def __init__(self, site: str, kind: str, after: int = 0,
                 times: Optional[int] = 1, seconds: float = 0.05,
                 fraction: float = 0.5, token: Optional[str] = None):
        if kind not in _KINDS:
            raise ValueError("unknown fault kind {!r}; expected one of {}"
                             .format(kind, ", ".join(_KINDS)))
        self.site = site
        self.kind = kind
        self.after = after
        self.times = times
        self.seconds = seconds
        self.fraction = fraction
        self.token = token
        self.calls = 0
        self.fired = 0

    def _take(self) -> bool:
        """Consume one hit; True when this hit fires the fault."""
        self.calls += 1
        if self.calls <= self.after:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        if self.token is not None:
            try:
                os.unlink(self.token)
            except OSError:
                return False  # another process won the token
        self.fired += 1
        return True

    def to_error(self) -> OSError:
        """The :class:`OSError` an ``eio``/``enospc`` site raises."""
        code = _ERRNO_OF_KIND.get(self.kind, errno.EIO)
        return OSError(code, "injected fault at {} ({})".format(
            self.site, self.kind))

    def __repr__(self) -> str:
        return "Fault<{} {} after={} times={} fired={}>".format(
            self.site, self.kind, self.after, self.times, self.fired)


class FaultPlan:
    """A deterministic schedule of faults, armed per site name.

    ``hits`` counts every hook crossing while the plan is installed
    (armed or not) — ``tests/test_faults.py`` installs an *empty* plan
    to count the crossings of one hot query.  The plan records the pid
    that armed it; :func:`worker_fault_point` only fires process-lethal
    kinds in a *different* pid (a forked worker), never in the arming
    process itself.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.hits = 0
        self._faults: Dict[str, List[Fault]] = {}
        self._pid = os.getpid()
        # A leaf under storage.wal: WAL flushes cross fault hooks while
        # holding the WAL lock, so this must never acquire anything.
        self._lock = ordered_lock("faults.plan")

    def arm(self, site: str, kind: str, **options: object) -> Fault:
        """Arm one fault at ``site``; returns it for later inspection."""
        fault = Fault(site, kind, **options)  # type: ignore[arg-type]
        self._faults.setdefault(site, []).append(fault)
        return fault

    def check(self, site: str) -> Optional[Fault]:
        """One hook crossing: the firing fault for this hit, or None."""
        with self._lock:
            self.hits += 1
            for fault in self._faults.get(site, ()):
                if fault._take():
                    return fault
        return None

    def fired(self, site: Optional[str] = None) -> int:
        """Total fires, at one site or across the plan."""
        faults: Iterator[Fault] = (
            iter(self._faults.get(site, ())) if site is not None
            else (f for group in self._faults.values() for f in group))
        return sum(fault.fired for fault in faults)

    def sites(self) -> List[str]:
        return sorted(self._faults)

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse ``"site:kind[:key=val]*;..."`` (the ``REPRO_FAULTS`` form).

        Example: ``"wal.fsync:eio:times=1;http.connection_drop:drop:after=2"``.
        Numeric values are parsed (``times=none`` arms an unbounded
        fault); ``token`` stays a path string.  A malformed spec raises
        :class:`StorageError` naming the bad clause — a typo in a chaos
        schedule must fail loudly, not silently arm nothing.
        """
        plan = cls(seed=seed)
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            parts = clause.split(":")
            if len(parts) < 2:
                raise StorageError(
                    "bad REPRO_FAULTS clause {!r}: expected "
                    "site:kind[:key=val]*".format(clause))
            site, kind = parts[0], parts[1]
            options: Dict[str, object] = {}
            for item in parts[2:]:
                key, _, value = item.partition("=")
                if not _ or key not in ("after", "times", "seconds",
                                        "fraction", "token"):
                    raise StorageError(
                        "bad REPRO_FAULTS option {!r} in clause {!r}"
                        .format(item, clause))
                if key == "token":
                    options[key] = value
                elif key == "times" and value.lower() == "none":
                    options[key] = None
                elif key in ("after", "times"):
                    options[key] = int(value)
                else:
                    options[key] = float(value)
            try:
                plan.arm(site, kind, **options)  # type: ignore[arg-type]
            except ValueError as exc:
                raise StorageError(
                    "bad REPRO_FAULTS clause {!r}: {}".format(clause, exc)) \
                    from exc
        return plan

    def __repr__(self) -> str:
        return "FaultPlan<seed={} sites={} hits={} fired={}>".format(
            self.seed, self.sites(), self.hits, self.fired())


#: The installed plan.  ``None`` in production: the hooks below reduce to
#: one global load + identity test
#: (``tests/test_faults.py::test_disarmed_hooks_are_no_ops``).
_PLAN: Optional[FaultPlan] = None


def install_plan(plan: FaultPlan) -> None:
    """Arm ``plan`` process-wide (inherited by subsequently forked pools)."""
    global _PLAN
    _PLAN = plan


def clear_plan() -> None:
    """Disarm fault injection (back to the zero-overhead path)."""
    global _PLAN
    _PLAN = None


def installed_plan() -> Optional[FaultPlan]:
    """The currently armed plan, or None."""
    return _PLAN


@contextmanager
def fault_scope(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for a ``with`` block, restoring the previous plan."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    try:
        yield plan
    finally:
        _PLAN = previous


def fault_hook(site: str) -> Optional[Fault]:
    """The firing fault at ``site`` for this hit, or None.

    This is the raw hook for sites that interpret the fault themselves
    (short writes, connection drops).  The disarmed path is the
    production hot path: one global load, one ``is None`` test.
    """
    plan = _PLAN
    if plan is None:
        return None
    return plan.check(site)


def fault_point(site: str) -> None:
    """Raise-style site: surfaces ``eio``/``enospc`` faults as OSError."""
    plan = _PLAN
    if plan is None:
        return
    fault = plan.check(site)
    if fault is not None and fault.kind in _ERRNO_OF_KIND:
        raise fault.to_error()


def worker_fault_point(site: str,
                       _exit: Callable[[int], None] = os._exit) -> None:
    """Process-lethal site for pool workers: ``kill`` and ``hang`` kinds.

    Fires only when the current pid differs from the plan's arming pid —
    i.e. only inside a forked worker.  The serial fallback re-running the
    same task in the arming process therefore can never be killed or hung
    by the very fault it is recovering from.
    """
    plan = _PLAN
    if plan is None:
        return
    if os.getpid() == plan._pid:
        return
    fault = plan.check(site)
    if fault is None:
        return
    if fault.kind == "kill":
        _exit(KILL_EXIT_CODE)
    elif fault.kind == "hang":
        time.sleep(fault.seconds)
