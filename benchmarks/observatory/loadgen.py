"""The closed-loop load generator: client threads over ``ReproClient``.

Closed loop — every client waits for a reply before its next request —
from this single process, one keep-alive connection per client.  Each
client first runs a fixed number of *warm-up* ops (untimed), then meets
the others at a barrier whose release stamps the start of the timed
phase; ops are cut into windows afterwards, so the hot loop only appends
to per-thread lists.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import PathAlgebraError
from repro.service import ReproClient

from . import opstream, stats

READ, WRITE, CHECKPOINT = 0, 1, 2
KIND_OF = {"q": READ, "m": WRITE, "c": CHECKPOINT}

GRAPH_NAME = "g"


def execute(client: ReproClient, op: opstream.Op) -> Dict[str, Any]:
    """Send one generated op through the SDK; returns the decoded reply."""
    kind = op[0]
    if kind == "q":
        return client.query(GRAPH_NAME, opstream.TEMPLATES[op[1]],
                            sources=op[2], targets=op[3])
    if kind == "m":
        return client.mutate(GRAPH_NAME, add_edges=op[1],
                             remove_edges=op[2])
    return client.checkpoint(GRAPH_NAME)


class Phase:
    """Timing shared by the clients of one load phase."""

    def __init__(self, clients: int, seconds: float):
        self.seconds = seconds
        #: Windows to cut each client's ops into: about one per second (at
        #: least three, so quartiles exist).
        self.windows = max(3, int(round(seconds)))
        self.start = 0.0
        self.end = float("inf")
        self.stop = threading.Event()
        self.barrier = threading.Barrier(clients + 1, action=self._release)

    def _release(self) -> None:
        self.start = time.perf_counter()
        self.end = self.start + self.seconds


class Client(threading.Thread):
    """One closed-loop client: a slice of an op stream against one server."""

    def __init__(self, index: int, url: str, ops: Sequence[opstream.Op],
                 first: int, warmup: int, phase: Phase, seed: int,
                 sample_interval: float,
                 pretouch: Sequence[opstream.Op] = ()):
        super().__init__(name="observatory-client-{}".format(index),
                         daemon=True)
        self.index = index
        self.url = url
        self.ops = ops
        #: Stream position of the first op this client sends; the next
        #: ``warmup`` ops are untimed.
        self.first = first
        self.warmup = min(first + warmup, len(ops))
        #: Queries sent once before anything else (cache fill); untimed.
        self.pretouch = pretouch
        self.phase = phase
        self.seed = seed
        self.sample_interval = sample_interval
        # Parallel per-op columns, appended only by this thread.
        self.position: List[int] = []
        self.started: List[float] = []
        self.finished: List[float] = []
        self.pairs: List[int] = []
        self.cached: List[bool] = []
        self.failed_ops: List[Tuple[int, str]] = []
        #: stream position -> decoded answer payload, for verification.
        self.samples: Dict[int, Any] = {}
        #: stream position -> version acknowledged by a mutate.
        self.versions: Dict[int, int] = {}
        self.exhausted = False
        self.retries = 0
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        client = ReproClient(self.url, keep_alive=True,
                             jitter_seed=self.seed + self.index)
        try:
            self._drive(client)
        except BaseException as error:  # surfaced by the harness on join
            self.error = error
            self.phase.stop.set()
            raise
        finally:
            self.retries = client.retries_performed
            client.close()
            if not self.phase.barrier.broken and self.phase.start == 0.0:
                self.phase.barrier.abort()

    def _drive(self, client: ReproClient) -> None:
        phase = self.phase
        for op in self.pretouch:
            execute(client, op)
        for position in range(self.first, self.warmup):
            payload = execute(client, self.ops[position])
            if self.ops[position][0] == "m":
                self.versions[position] = payload.get("version", -1)
        phase.barrier.wait()
        next_sample = phase.start
        position = self.warmup
        total = len(self.ops)
        perf_counter = time.perf_counter
        while not phase.stop.is_set():
            if position >= total:
                self.exhausted = True
                break
            op = self.ops[position]
            started = perf_counter()
            if started >= phase.end:
                break
            try:
                payload = execute(client, op)
            except (PathAlgebraError, OSError) as error:
                finished = perf_counter()
                self.failed_ops.append((position, "{}: {}".format(
                    type(error).__name__, error)))
                payload = None
            else:
                finished = perf_counter()
            self.position.append(position)
            self.started.append(started)
            self.finished.append(finished)
            if payload is None:
                self.pairs.append(0)
                self.cached.append(False)
            elif op[0] == "q":
                self.pairs.append(payload.get("count", 0))
                self.cached.append(bool(payload.get("cached")))
                if finished >= next_sample:
                    self.samples[position] = payload
                    next_sample = finished + self.sample_interval
            else:
                self.pairs.append(0)
                self.cached.append(False)
                if op[0] == "m":
                    self.versions[position] = payload.get("version", -1)
            position += 1


def run_phase(clients: Sequence[Client], phase: Phase,
              servers: Sequence[Any], timeout: float) -> float:
    """Start the clients, release the barrier after warm-up, join them all.

    Returns the CPU seconds (``utime + stime``, from ``/proc``) the servers
    spent between the barrier's release and the last client's exit.
    Raises :class:`servers.BenchmarkError` on the hard timeout — the
    caller's ``Fleet`` then reaps the servers, which unblocks the sockets.
    """
    from .servers import BenchmarkError
    for client in clients:
        client.start()
    try:
        phase.barrier.wait(timeout=timeout)
    except threading.BrokenBarrierError:
        phase.stop.set()
        errors = [c.error for c in clients if c.error is not None]
        raise BenchmarkError("warm-up failed: {!r}".format(errors))
    cpu_begun = sum(s.cpu_seconds() for s in servers)
    deadline = time.monotonic() + phase.seconds + timeout
    for client in clients:
        client.join(max(0.0, deadline - time.monotonic()))
    cpu_spent = sum(s.cpu_seconds() for s in servers) - cpu_begun
    stuck = [c.name for c in clients if c.is_alive()]
    if stuck:
        phase.stop.set()
        raise BenchmarkError("hard timeout: clients still running: {}"
                             .format(stuck))
    for client in clients:
        if client.error is not None:
            raise BenchmarkError("client {} died: {!r}".format(
                client.index, client.error))
    return cpu_spent


#: The share of each client's windows, fastest first, that count as *quiet*
#: (see :func:`window_metrics`).
QUIET_SHARE = 0.25


def _windows_of(client: Client, block: int, target: int
                ) -> List[Dict[str, Any]]:
    """Cut one client's timed ops into ``~target`` consecutive windows, each
    a whole number of stratification blocks (so all have the same op mix)."""
    done = len(client.position)
    size = max(block, done // max(1, target) // block * block)
    windows = []
    for low in range(0, done - size + 1, size):
        high = low + size
        reads, writes = [], []
        for index in range(low, high):
            kind = KIND_OF[client.ops[client.position[index]][0]]
            latency_ms = (client.finished[index]
                          - client.started[index]) * 1000.0
            if kind == READ:
                reads.append(latency_ms)
            elif kind == WRITE:
                writes.append(latency_ms)
        windows.append({
            "ops": size,
            "seconds": client.finished[high - 1] - client.started[low],
            "pairs": sum(client.pairs[low:high]),
            "reads": reads, "writes": writes})
    return windows


def _pooled(groups: Sequence[Sequence[Dict[str, Any]]]) -> Dict[str, Any]:
    """Metrics over some windows of each client: rates add up across the
    clients (they run side by side), latencies pool."""
    groups = [group for group in groups if group]
    reads = [x for group in groups for w in group for x in w["reads"]]
    writes = [x for group in groups for w in group for x in w["writes"]]

    def rate(key: str) -> float:
        return sum(sum(w[key] for w in group)
                   / sum(w["seconds"] for w in group) for group in groups)

    return {
        "ops_per_s": rate("ops"), "pairs_per_s": rate("pairs"),
        "read_p50_ms": stats.percentile(reads, 50) if reads else None,
        "read_p95_ms": stats.percentile(reads, 95) if reads else None,
        "write_p50_ms": stats.percentile(writes, 50) if writes else None,
        "write_p95_ms": stats.percentile(writes, 95) if writes else None,
        "reads": len(reads), "writes": len(writes),
        "ops": sum(w["ops"] for group in groups for w in group),
    }


def window_metrics(clients: Sequence[Client], phase: Phase,
                   blocks: Sequence[int]) -> Dict[str, Any]:
    """End-to-end values of one timed phase, from its *quiet* windows.

    The reference box is a shared 2-vCPU microVM whose effective CPU speed
    steps between regimes 25-45 % apart, each lasting seconds to tens of
    seconds (a fixed pure-Python loop shows it), so a whole-run median
    lands in one regime or another.  Contention only ever makes a stretch
    of time worse, so the least-disturbed stretches are the fastest ones:
    each client's timed ops are cut into about one window per second, every
    window a whole number of stratification blocks of its stream
    (``blocks[i]`` ops for client ``i``) and therefore the same op mix;
    the fastest quarter of a client's windows are its quiet ones (a fixed
    count, so one freak window cannot stand alone); every metric is
    computed over the quiet windows.  The per-window series is returned
    too, so the report can print the median and quartiles of all windows
    beside each value.
    """
    per_client = [_windows_of(client, block, phase.windows)
                  for client, block in zip(clients, blocks)]
    quiet = []
    for windows in per_client:
        fastest = sorted(windows, key=lambda w: w["seconds"] / w["ops"])
        quiet.append(fastest[:max(1, round(len(windows) * QUIET_SHARE))])
    depth = min((len(windows) for windows in per_client), default=0)
    series = [_pooled([[windows[k]] for windows in per_client])
              for k in range(depth)]
    total = _pooled(per_client)
    checkpoints = [
        (client.finished[i] - client.started[i]) * 1000.0
        for client in clients for i, position in enumerate(client.position)
        if client.ops[position][0] == "c"]
    all_reads = [x for windows in per_client for w in windows
                 for x in w["reads"]]
    return {
        "quiet": _pooled(quiet),
        "quiet_windows": [len(group) for group in quiet],
        "windows": [len(windows) for windows in per_client],
        "per_window": {key: [w[key] for w in series if w[key] is not None]
                       for key in ("ops_per_s", "pairs_per_s", "read_p50_ms",
                                   "read_p95_ms")},
        "counts": {"ops": sum(len(c.position) for c in clients),
                   "reads": total["reads"], "writes": total["writes"],
                   "checkpoints": len(checkpoints)},
        "read_p99_ms": stats.percentile(all_reads, 99) if all_reads else None,
        "checkpoint_ms": checkpoints,
    }
