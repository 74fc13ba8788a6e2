"""The traced pass: spans around every layer call, the rung ladder, and the
per-layer metrics of ``BENCHMARK.json``.

Never mixed with the end-to-end numbers: a ``--trace 1`` run boots its
own deployment, runs two *short* load phases (two clients, then one — for
the counters, hit ratios and ``service.scaling_2v1``), then replays a
seeded sample of the workload's ops up the rung ladder:

    kernel call -> Engine.pairs (cache off) -> AsyncEngine.pairs -> HTTP

The in-process rungs run on a store opened exactly like the server opens
its own (``PersistentGraph.open(materialize=True)``, so the kernels read
the mmap'd snapshot), and the first rung is taken stage by stage —
``parse``, ``lower``, ``preflight``, ``plan``, ``snapshot``, ``kernel``,
``serialize`` — each inside a span ``{name, start, end, parent, op_id}``
recorded by this file around the call into the layer's public function.
Spans stay in memory and are written to ``trace-<workload>.json`` at the
end.  A layer's self time is its span minus its children; what a rung
spends outside the stages it contains is its unattributed remainder.

Every per-layer metric is emitted for every workload; one that the
workload never crosses (WAL on a read-only workload, HTTP on
``engine_sweep``) reads 0.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine import Engine
from repro.engine.cache import QueryCache
from repro.engine.planner import Planner
from repro.graph.compact import (
    CompactAdjacency,
    adjacency_snapshot,
    rpq_pairs_backward,
    rpq_pairs_bidirectional,
    rpq_pairs_on_snapshot,
)
from repro.replication import PrimaryFeed, ReplicaGraph
from repro.rpq import lower_to_constrained_query
from repro.service import AsyncEngine, ReproClient
from repro.storage import PersistentGraph

from . import loadgen, opstream, oracle, stats, workloads
from .loadgen import GRAPH_NAME

#: name -> unit of every per-layer metric, in report order.
PER_LAYER: Dict[str, str] = {
    # query front end
    "lang.parse_us": "us",
    "rpq.dfa_compile_us": "us",
    "engine.dfa_cache_hit_ratio": "ratio",
    "analysis.preflight_warm_us": "us",
    "planner.choose_us": "us",
    "planner.direction_share.forward": "ratio",
    "planner.direction_share.backward": "ratio",
    "planner.direction_share.bidirectional": "ratio",
    "planner.misdirection_ratio": "ratio",
    # snapshot + kernels
    "compact.snapshot_build_ms": "ms",
    "compact.kernel_point_heap_us": "us",
    "compact.kernel_point_mmap_us": "us",
    "compact.kernel_p2p_us": "us",
    "compact.kernel_backward_us": "us",
    "compact.kernel_sweep_pairs_per_s": "1/s",
    "compact.overlay_tax_ratio": "ratio",
    "compact.overlay_refresh_us": "us",
    "engine.stats_refresh_us": "us",
    "engine.pairs_glue_us": "us",
    # result cache
    "cache.hit_us": "us",
    "cache.hit_ratio": "ratio",
    "cache.write_invalidation_ratio": "ratio",
    # durability
    "wal.append_us": "us",
    "wal.flush_ms": "ms",
    "wal.bytes_per_mutation": "B",
    "segments.bytes_per_mutation": "B",
    "storage.checkpoint_ms": "ms",
    "storage.checkpoint_stall_ms": "ms",
    "storage.open_ms": "ms",
    "storage.open_lazy_ms": "ms",
    "storage.wal_replay_rec_per_s": "1/s",
    "storage.restart_first_answer_ms": "ms",
    "storage.disk_bytes_per_user_byte": "ratio",
    # replication
    "segments.read_mb_per_s": "MB/s",
    "replication.bootstrap_ms": "ms",
    "replication.apply_rec_per_s": "1/s",
    "replication.catchup_rec_per_s": "1/s",
    "replication.visible_lag_ms_p50": "ms",
    "replication.visible_lag_ms_p95": "ms",
    # service tier
    "async_engine.facade_us": "us",
    "http.floor_us": "us",
    "http.overhead_us": "us",
    "http.us_per_result_pair": "us",
    "service.scaling_2v1": "ratio",
    "service.cpu_ms_per_op": "ms",
    "service.write_p50_ms": "ms",
    "service.write_p95_ms": "ms",
    "service.shed": "count",
    "service.deadline_exceeded": "count",
    "service.failed": "count",
    "client.retries": "count",
    # the ladder itself
    "rung.kernel_us": "us",
    "rung.engine_us": "us",
    "rung.async_us": "us",
    "rung.http_us": "us",
    "rung.kernel_share_of_http": "ratio",
    "rung.engine_unattributed_us": "us",
    "stage.lower_us": "us",
    "stage.snapshot_us": "us",
    "stage.serialize_us": "us",
    "trace.sample_ops": "count",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}

#: Reads replayed up the ladder per workload (fewer if the time budget,
#: a share of ``--seconds``, runs out first).
SAMPLE_OPS = 200
LADDER_BUDGET_SHARE = 0.5

STAGES = ("parse", "lower", "preflight", "plan", "snapshot", "kernel",
          "serialize")


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: List[Any]):
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> int:
        self.tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return len(self.tracer.spans) - 1

    def __exit__(self, *exc_info: object) -> None:
        self.record[2] = time.perf_counter()


class Tracer:
    """In-memory span recorder: ``[name, start, end, parent, op_id]``."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []

    def span(self, name: str, op_id: int, parent: Optional[int]) -> _Span:
        return _Span(self, [name, 0.0, 0.0, parent, op_id])

    def self_times(self) -> List[Tuple[str, int, float]]:
        """``(name, op_id, self seconds)`` per span: duration minus the part
        of it covered by child spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [(name, op_id, (end - start) - covered[index])
                for index, (name, start, end, _, op_id)
                in enumerate(self.spans)]

    def durations(self) -> Dict[str, Dict[int, float]]:
        """``name -> {op_id: seconds}`` (each name occurs once per op)."""
        table: Dict[str, Dict[int, float]] = {}
        for name, start, end, _, op_id in self.spans:
            table.setdefault(name, {})[op_id] = end - start
        return table

    def write(self, path: str) -> None:
        spans = [{"name": n, "start": s, "end": e, "parent": p, "op_id": o}
                 for n, s, e, p, o in self.spans]
        tmp_path = path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as stream:
            json.dump(spans, stream)
        os.replace(tmp_path, path)


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _us(seconds: Sequence[float]) -> float:
    return _median(seconds) * 1e6


# ----------------------------------------------------------------------
# The in-process rungs
# ----------------------------------------------------------------------

class ReadEnv:
    """The layers of one served read, callable one at a time in process."""

    def __init__(self, store_dir: str, cache_capacity: int):
        self.store = PersistentGraph.open(store_dir, materialize=True)
        self.graph = self.store.graph()
        self.engine = Engine(self.graph)
        self.cached_engine = Engine(
            self.graph, cache=QueryCache(capacity=max(1, cache_capacity)))
        self.async_engine = AsyncEngine(Engine(self.graph), max_workers=2)
        self.loop = asyncio.new_event_loop()

    def close(self) -> None:
        self.async_engine.close()
        self.loop.close()
        self.store.close()

    def run_async(self, text: str, sources, targets):
        return self.loop.run_until_complete(
            self.async_engine.pairs(text, sources=sources, targets=targets))


def _endpoints(op: opstream.Op):
    sources = None if op[2] is None else frozenset(op[2])
    targets = None if op[3] is None else frozenset(op[3])
    return sources, targets


def _serialize(answer) -> int:
    """What the HTTP tier and the SDK do to an answer: sort, encode, decode."""
    body = json.dumps({"count": len(answer),
                       "pairs": sorted(map(list, answer), key=repr)})
    return len(json.loads(body)["pairs"])


def staged_read(engine: Engine, op: opstream.Op,
                span: Callable[[str], Any], serialize: bool = True
                ) -> Tuple[str, Any]:
    """One read, layer by layer through the public functions ``Engine.pairs``
    strings together; ``span(name)`` wraps each call.  Returns the planner's
    direction and the answer.  ``serialize=False`` leaves out the stage only
    a served answer goes through."""
    text = opstream.TEMPLATES[op[1]]
    sources, targets = _endpoints(op)
    with span("parse"):
        expression = engine.compile(text)
    with span("lower"):
        constrained = lower_to_constrained_query(expression)
    with span("preflight"):
        dfa = engine.preflight(constrained.label_expression).dfa
    with span("plan"):
        planner = Planner(engine.statistics(),
                          max_length=engine.default_max_length,
                          optimize_joins=engine.optimize)
        direction = planner.choose_rpq_direction(
            constrained.label_expression,
            None if sources is None else len(sources),
            None if targets is None else len(targets),
            states=dfa.num_states).direction
    with span("snapshot"):
        snapshot = adjacency_snapshot(engine.graph)
    with span("kernel"):
        answer = run_kernel(direction, engine.graph, snapshot, dfa, sources,
                            targets)
    if serialize:
        with span("serialize"):
            _serialize(answer)
    return direction, answer


def run_kernel(direction: str, graph, snapshot, dfa, sources, targets):
    if direction == "bidirectional":
        return rpq_pairs_bidirectional(graph, dfa, sources, targets)
    if direction == "backward":
        return rpq_pairs_backward(graph, dfa, targets, sources=sources)
    return rpq_pairs_on_snapshot(snapshot, dfa, sources=sources,
                                 targets=targets)


class _NoSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_NO_SPAN = _NoSpan()


def _untraced_seconds(engine: Engine, op: opstream.Op,
                      served: bool) -> float:
    started = time.perf_counter()
    staged_read(engine, op, lambda name: _NO_SPAN, serialize=served)
    return time.perf_counter() - started


def read_ladder(env: Optional[ReadEnv], engine_of: Callable[[Any], Engine],
                sample: Sequence[opstream.Op], tracer: Tracer,
                budget: float) -> List[Dict[str, Any]]:
    """Replay ``sample`` up the in-process rungs until ``budget`` seconds.

    Each op runs the staged rung twice — traced and untraced, in
    alternating order so neither always inherits the other's warm caches —
    which measures the cost of tracing on the very same work
    (``trace.overhead_pct``); then ``Engine.pairs``; and, when ``env``
    brings a service tier, ``AsyncEngine.pairs``, the result-cache hit path
    and the single-source kernel on a heap copy of the snapshot.  Without
    ``env`` (engine_sweep) nothing is serialised and the collector runs
    between the timed pieces, as in the untraced workload.
    """
    rows: List[Dict[str, Any]] = []
    served = env is not None
    heap: Optional[CompactAdjacency] = None
    begun = time.perf_counter()
    for op_id, op in enumerate(sample):
        if time.perf_counter() - begun > budget and op_id >= 10:
            break
        engine = engine_of(op)
        text = opstream.TEMPLATES[op[1]]
        sources, targets = _endpoints(op)
        if not served:
            gc.collect()
        untraced = 0.0
        if op_id % 2 == 0:
            untraced = _untraced_seconds(engine, op, served)
        with tracer.span("op", op_id, None) as root:
            with tracer.span("staged", op_id, root) as staged:
                direction, answer = staged_read(
                    engine, op,
                    lambda name: tracer.span(name, op_id, staged),
                    serialize=served)
            row = {"op": op, "direction": direction, "pairs": len(answer)}
            del answer
            if op_id % 2:
                with tracer.span("untraced", op_id, root):
                    untraced = _untraced_seconds(engine, op, served)
            row["untraced"] = untraced
            if not served:
                gc.collect()
            with tracer.span("engine", op_id, root):
                engine.pairs(text, sources=sources, targets=targets,
                             processes=1)
            if served:
                with tracer.span("async", op_id, root):
                    env.run_async(text, sources, targets)
                env.cached_engine.pairs(text, sources=sources,
                                        targets=targets)
                with tracer.span("cache_hit", op_id, root):
                    env.cached_engine.cached_pairs(text, sources=sources,
                                                   targets=targets)
        if served and direction == "forward" and targets is None \
                and sources is not None and len(sources) == 1:
            if heap is None:
                heap = CompactAdjacency.build(engine.graph)
            dfa = engine.preflight(lower_to_constrained_query(
                engine.compile(text)).label_expression).dfa
            started = time.perf_counter()
            rpq_pairs_on_snapshot(heap, dfa, sources=sources)
            row["heap_kernel"] = time.perf_counter() - started
        rows.append(row)
    return rows


def misdirection(engine: Engine, rows: Sequence[Dict[str, Any]],
                 limit: int = 30) -> float:
    """Chosen-direction kernel time / best feasible kernel, over the sampled
    ops that bind both endpoints (the only ones where all three kernels are
    cheap enough to run); 1.0 = the planner always picked the fastest."""
    chosen_total = best_total = 0.0
    done = 0
    for row in rows:
        op = row["op"]
        sources, targets = _endpoints(op)
        if sources is None or targets is None or done >= limit:
            continue
        dfa = engine.preflight(lower_to_constrained_query(
            engine.compile(opstream.TEMPLATES[op[1]])).label_expression).dfa
        snapshot = adjacency_snapshot(engine.graph)
        timings = {}
        for direction in ("forward", "backward", "bidirectional"):
            started = time.perf_counter()
            run_kernel(direction, engine.graph, snapshot, dfa, sources,
                       targets)
            timings[direction] = time.perf_counter() - started
        chosen_total += timings[row["direction"]]
        best_total += min(timings.values())
        done += 1
    return chosen_total / best_total if best_total else 1.0


def direction_shares(engine: Engine, sample: Sequence[opstream.Op]
                     ) -> Dict[str, float]:
    """What ``Engine.explain`` says the planner picks, over every distinct
    op of the sample (not only the ones the time budget let the ladder
    replay), so the shares are counts that repeat exactly."""
    counts = {d: 0 for d in ("forward", "backward", "bidirectional")}
    for op in dict.fromkeys(sample):
        sources, targets = _endpoints(op)
        text = engine.explain(opstream.TEMPLATES[op[1]], sources=sources,
                              targets=targets, processes=1)
        for direction in counts:
            if "pairs direction: direction={} ".format(direction) in text:
                counts[direction] += 1
    total = max(1, sum(counts.values()))
    return {"planner.direction_share." + direction: count / total
            for direction, count in counts.items()}


def ladder_metrics(tracer: Tracer, rows: Sequence[Dict[str, Any]],
                   dfa_hits: int, dfa_misses: int) -> Dict[str, float]:
    """Per-layer values from the in-process rungs' spans."""
    stage: Dict[str, List[float]] = {}
    for name, _, seconds in tracer.self_times():
        stage.setdefault(name, []).append(seconds)
    durations = tracer.durations()
    ids = range(len(rows))
    kernel = durations["kernel"]
    engine_rung = durations["engine"]
    async_rung = durations.get("async", {})
    traced = sum(durations["staged"].values())
    untraced = sum(row["untraced"] for row in rows)
    lookups = dfa_hits + dfa_misses
    pairs = sum(row["pairs"] for row in rows)
    metrics = {
        "lang.parse_us": _us(stage["parse"]),
        "analysis.preflight_warm_us": _us(stage["preflight"]),
        "planner.choose_us": _us(stage["plan"]),
        "stage.lower_us": _us(stage["lower"]),
        "stage.snapshot_us": _us(stage["snapshot"]),
        "stage.serialize_us": _us(stage.get("serialize", ())),
        "engine.dfa_cache_hit_ratio": dfa_hits / lookups if lookups else 0.0,
        "compact.kernel_point_mmap_us": _us(
            [kernel[i] for i in ids if "heap_kernel" in rows[i]]),
        "compact.kernel_point_heap_us": _us(
            [row["heap_kernel"] for row in rows if "heap_kernel" in row]),
        "compact.kernel_p2p_us": _us(
            [kernel[i] for i in ids
             if rows[i]["direction"] == "bidirectional"]),
        "compact.kernel_backward_us": _us(
            [kernel[i] for i in ids if rows[i]["direction"] == "backward"]),
        "engine.pairs_glue_us": _us(
            [engine_rung[i] - kernel[i] for i in ids]),
        "rung.kernel_us": _us(list(kernel.values())),
        "rung.engine_us": _us(list(engine_rung.values())),
        "rung.engine_unattributed_us": _us(
            [engine_rung[i] - sum(durations[s][i] for s in STAGES[:-1])
             for i in ids]),
        "trace.sample_ops": float(len(rows)),
        "trace.spans": float(len(tracer.spans)),
        "trace.overhead_pct":
            (traced - untraced) / untraced * 100.0 if untraced else 0.0,
    }
    if async_rung:
        metrics["rung.async_us"] = _us(list(async_rung.values()))
        metrics["async_engine.facade_us"] = _us(
            [async_rung[i] - engine_rung[i] for i in ids])
        metrics["cache.hit_us"] = _us(list(durations["cache_hit"].values()))
    else:
        # No service tier: these were engine_sweep's all-sources sweeps.
        metrics["compact.kernel_sweep_pairs_per_s"] = \
            pairs / sum(kernel.values())
    return metrics


def dfa_compile_us(graph, sample: Sequence[opstream.Op]) -> float:
    """``Engine.compiled_dfa`` on a DFA-cache miss: a fresh engine per
    distinct template of the sample."""
    seconds = []
    for template in dict.fromkeys(op[1] for op in sample):
        engine = Engine(graph)
        label = lower_to_constrained_query(
            engine.compile(opstream.TEMPLATES[template])).label_expression
        started = time.perf_counter()
        engine.compiled_dfa(label)
        seconds.append(time.perf_counter() - started)
    return _us(seconds)


def snapshot_build_ms(graph) -> float:
    seconds = []
    for _ in range(3):
        started = time.perf_counter()
        CompactAdjacency.build(graph)
        seconds.append(time.perf_counter() - started)
    return _median(seconds) * 1000.0


# ----------------------------------------------------------------------
# The HTTP rung
# ----------------------------------------------------------------------

def http_rung(url: str, sample: Sequence[opstream.Op], tracer: Tracer,
              budget: float) -> List[Dict[str, Any]]:
    """``ReproClient.query`` over the sample from one client, until
    ``budget`` seconds; op ids are sample indices, as on the other rungs."""
    rows = []
    client = ReproClient(url, keep_alive=True)
    begun = time.perf_counter()
    try:
        for op_id, op in enumerate(sample):
            if time.perf_counter() - begun > budget and op_id >= 10:
                break
            with tracer.span("http", op_id, None) as index:
                payload = loadgen.execute(client, op)
            _, start, end, _, _ = tracer.spans[index]
            rows.append({"seconds": end - start, "pairs": payload["count"],
                         "cached": bool(payload.get("cached"))})
    finally:
        client.close()
    return rows


def http_floor_us(url: str, calls: int = 300) -> float:
    client = ReproClient(url, keep_alive=True)
    seconds = []
    try:
        client.health()
        for _ in range(calls):
            started = time.perf_counter()
            client.health()
            seconds.append(time.perf_counter() - started)
    finally:
        client.close()
    return _us(seconds)


def http_metrics(http_rows: Sequence[Dict[str, Any]], tracer: Tracer
                 ) -> Dict[str, float]:
    """Served latency against the in-process time of the path the server
    actually took: the cache-hit lookup when it answered from its result
    cache, ``AsyncEngine.pairs`` when it computed."""
    durations = tracer.durations()
    overhead = []
    kernel_in_served = 0.0
    for op_id, row in enumerate(http_rows):
        if op_id not in durations.get("async", {}):
            continue
        inside = durations["cache_hit"][op_id] if row["cached"] \
            else durations["async"][op_id]
        overhead.append(row["seconds"] - inside)
        if not row["cached"]:
            kernel_in_served += durations["kernel"][op_id]
    served = sum(row["seconds"] for op_id, row in enumerate(http_rows)
                 if op_id in durations.get("async", {}))
    return {
        "rung.http_us": _us([row["seconds"] for row in http_rows]),
        "http.overhead_us": _us(overhead),
        "http.us_per_result_pair": stats.slope(
            [float(row["pairs"]) for row in http_rows],
            [row["seconds"] * 1e6 for row in http_rows]),
        "rung.kernel_share_of_http":
            kernel_in_served / served if served else 0.0,
    }


# ----------------------------------------------------------------------
# Storage and replication layers (serve_mixed_write)
# ----------------------------------------------------------------------

def storage_layers(ctx: workloads.Context,
                   primary_ops: Sequence[opstream.Op]) -> Dict[str, float]:
    """Time the durability and replication layers through their public
    functions, on a private replicating store (``sync="batch"``, batch 64)
    fed the workload's own mutation records."""
    records = [record for op in primary_ops if op[0] == "m"
               for record in opstream.edge_records(op)][:1024]
    base = ctx.scratch("layers")
    store_dir = os.path.join(base, "store")
    metrics: Dict[str, float] = {}
    appends: List[float] = []
    flushes: List[float] = []
    store = PersistentGraph.create(store_dir, oracle.serve_graph(ctx.seed),
                                   name=GRAPH_NAME, replicate=True)
    try:
        wal_before = store.info()["wal_bytes"]
        seg_before = workloads.tree_bytes(os.path.join(store_dir, "segments"))
        for index, (sign, tail, label, head) in enumerate(records):
            started = time.perf_counter()
            if sign == "+":
                store.add_edge(tail, label, head)
            else:
                store.remove_edge(tail, label, head)
            appends.append(time.perf_counter() - started)
            if index % 32 == 31:
                started = time.perf_counter()
                store.flush()
                flushes.append(time.perf_counter() - started)
        store.flush()
        metrics["wal.append_us"] = _us(appends)
        metrics["wal.flush_ms"] = _median(flushes) * 1000.0
        metrics["wal.bytes_per_mutation"] = \
            (store.info()["wal_bytes"] - wal_before) / len(records)
        metrics["segments.bytes_per_mutation"] = \
            (workloads.tree_bytes(os.path.join(store_dir, "segments")) - seg_before) \
            / len(records)
        feed = PrimaryFeed(store)
        started = time.perf_counter()
        replica = ReplicaGraph.bootstrap(os.path.join(base, "replica"), feed)
        metrics["replication.bootstrap_ms"] = \
            (time.perf_counter() - started) * 1000.0
        try:
            cursor = replica.cursor.token()
            reads = []
            shipped = 0
            for _ in range(5):
                started = time.perf_counter()
                data, _ = feed.wal(cursor, max_bytes=8 << 20)
                reads.append(time.perf_counter() - started)
                shipped = len(data)
            metrics["segments.read_mb_per_s"] = \
                shipped / 1e6 / _median(reads) if reads else 0.0
            started = time.perf_counter()
            applied = 0
            while True:
                report = replica.poll_once(feed)
                applied += report["applied"]
                if report["at_end"]:
                    break
            metrics["replication.apply_rec_per_s"] = \
                applied / (time.perf_counter() - started)
        finally:
            replica.close()
    finally:
        store.close()
    # Reopen with the records as a WAL suffix, then after a checkpoint.
    metrics["storage.wal_replay_rec_per_s"] = \
        len(records) / _open_seconds(store_dir, materialize=False)
    checkpoints = []
    with PersistentGraph.open(store_dir, materialize=True) as store:
        for _ in range(3):
            store.add_edge(0, "a", 0)
            store.remove_edge(0, "a", 0)
            started = time.perf_counter()
            store.checkpoint()
            checkpoints.append(time.perf_counter() - started)
    metrics["storage.checkpoint_ms"] = _median(checkpoints) * 1000.0
    metrics["storage.open_lazy_ms"] = \
        _open_seconds(store_dir, materialize=False) * 1000.0
    metrics["storage.open_ms"] = \
        _open_seconds(store_dir, materialize=True) * 1000.0
    return metrics


def _open_seconds(store_dir: str, materialize: bool) -> float:
    seconds = []
    for _ in range(3):
        started = time.perf_counter()
        with PersistentGraph.open(store_dir, materialize=materialize):
            seconds.append(time.perf_counter() - started)
    return _median(seconds)


def overlay_layers(ctx: workloads.Context,
                   primary_ops: Sequence[opstream.Op],
                   sample: Sequence[opstream.Op]) -> Dict[str, float]:
    """What a mutation costs the *next reads*: the delta overlay's tax on
    the kernel, and the snapshot / statistics refresh a version bump forces."""
    graph = oracle.serve_graph(ctx.seed)
    engine = Engine(graph)
    reads = [op for op in sample if op[0] == "q"][:30]
    for op in reads[:3]:
        staged_read(engine, op, lambda name: _NO_SPAN)
    records = [record for op in primary_ops if op[0] == "m"
               for record in opstream.edge_records(op)]
    model = oracle.Oracle(graph)
    refresh, stats_refresh, steady = [], [], []
    for record in records[:20]:
        model.apply_records([record])
        started = time.perf_counter()
        engine.statistics()
        stats_refresh.append(time.perf_counter() - started)
        started = time.perf_counter()
        adjacency_snapshot(graph)
        refresh.append(time.perf_counter() - started)
        started = time.perf_counter()
        adjacency_snapshot(graph)
        steady.append(time.perf_counter() - started)
    adjacency_snapshot(graph, incremental=False)
    model.apply_records(records[20:120])

    def kernel_seconds() -> float:
        total = 0.0
        for op in reads:
            tracer = Tracer()
            staged_read(engine, op, lambda name: tracer.span(name, 0, None))
            total += sum(end - start for name, start, end, _, _
                         in tracer.spans if name == "kernel")
        return total

    with_overlay = kernel_seconds()
    adjacency_snapshot(graph, incremental=False)
    compacted = kernel_seconds()
    return {
        "compact.overlay_tax_ratio":
            with_overlay / compacted if compacted else 0.0,
        "compact.overlay_refresh_us": (_median(refresh) - _median(steady))
        * 1e6,
        "engine.stats_refresh_us": _us(stats_refresh),
    }


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------

def _emit(values: Dict[str, float], laddered: Dict[str, float]
          ) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric, in table order; uncrossed layers read 0.
    The metrics that came off the ladder (``laddered``, the dict
    :func:`ladder_metrics` returned) carry its sample size as their ``n``."""
    sample_ops = int(laddered["trace.sample_ops"])
    return {name: workloads.scalar(
                float(values.get(name, 0.0)), unit,
                n=sample_ops if name in laddered else 1)
            for name, unit in PER_LAYER.items()}


def _ladder_sample(ctx: workloads.Context, name: str,
                   streams: Sequence[Sequence[opstream.Op]]
                   ) -> List[opstream.Op]:
    """The seeded read sample.  Cold ops come from the stream's unsent tail
    (a sent key may sit in the server's result cache, and this workload's
    point is that none ever does); the others from the whole stream."""
    if name == "serve_cold_selective":
        return list(streams[0][-SAMPLE_OPS:])
    rng = opstream.derive_rng(ctx.seed, name, "ladder-sample")
    reads = [op for op in streams[0] if op[0] == "q"]
    return rng.sample(reads, min(SAMPLE_OPS, len(reads)))


class LagProbe(threading.Thread):
    """Polls a replica's ``stats`` every 10 ms while a load phase runs."""

    def __init__(self, url: str, phase: loadgen.Phase):
        super().__init__(name="observatory-lag", daemon=True)
        self.url = url
        self.phase = phase
        #: ``(time, applied_version)`` per poll.
        self.seen: List[Tuple[float, int]] = []

    def run(self) -> None:
        client = ReproClient(self.url, keep_alive=True, max_retries=0)
        try:
            while not self.phase.stop.is_set() \
                    and time.perf_counter() < self.phase.end + 0.3:
                info = client.stats(GRAPH_NAME)["info"]
                self.seen.append((time.perf_counter(),
                                  int(info["applied_version"])))
                time.sleep(0.01)
        finally:
            client.close()

    def lags_ms(self, writer: loadgen.Client) -> List[float]:
        """Mutate ack -> first poll showing ``applied_version >= v``."""
        acks = sorted((finished, writer.versions[position])
                      for position, finished in zip(writer.position,
                                                    writer.finished)
                      if position in writer.versions)
        lags = []
        cursor = 0
        for finished, version in acks:
            while cursor < len(self.seen) and (
                    self.seen[cursor][0] < finished
                    or self.seen[cursor][1] < version):
                cursor += 1
            if cursor < len(self.seen):
                lags.append((self.seen[cursor][0] - finished) * 1000.0)
        return lags


def scaling_phase(ctx: workloads.Context, name: str, deployment,
                  inputs: workloads.Inputs,
                  clients: Sequence[loadgen.Client]
                  ) -> Tuple[List[loadgen.Client], Dict[str, Any],
                             Optional[LagProbe]]:
    """The second short load phase, with the *other* client count.

    A workload that ran two clients now runs client 0 alone (continuing
    its stream, so a writer's history stays one sequence); the one-client
    workload now runs two, on alternate ops of its unsent stream.  The
    ratio of the two phases' throughput is ``service.scaling_2v1``.  In
    serve_mixed_write a probe watches the replica during this phase for
    ``replication.visible_lag_ms_*``.
    """
    phase_seconds = ctx.seconds * 0.25
    resume = [c.position[-1] + 1 if c.position else c.warmup
              for c in clients]
    if len(clients) > 1:
        phase = loadgen.Phase(1, phase_seconds)
        again = workloads.make_clients(ctx, name, deployment, inputs, phase,
                                       resume, warm=False, only=0)
        blocks = inputs.blocks[:1]
    else:
        rest = inputs.streams[0][resume[0]:-SAMPLE_OPS]
        phase = loadgen.Phase(2, phase_seconds)
        again = workloads.make_clients(
            ctx, name, deployment, inputs, phase, [0, 0], warm=False,
            streams=[rest[0::2], rest[1::2]])
        blocks = inputs.blocks * 2
    probe = LagProbe(deployment.replica.url, phase) \
        if deployment.replica is not None else None
    if probe is not None:
        probe.start()
    loadgen.run_phase(again, phase, deployment.servers, ctx.timeout)
    if probe is not None:
        probe.join(timeout=10.0)
    return again, loadgen.window_metrics(again, phase, blocks), probe


class _History:
    """Client 0's two consecutive phases, seen as one op history."""

    def __init__(self, first: loadgen.Client, second: loadgen.Client):
        self.index = first.index
        self.ops = first.ops
        self.warmup = first.warmup
        self.position = first.position + second.position
        self.finished = first.finished + second.finished
        self.failed_ops = first.failed_ops + second.failed_ops
        self.samples = {**first.samples, **second.samples}
        self.versions = {**first.versions, **second.versions}


def trace_serve(ctx: workloads.Context, name: str, fleet, deployment,
                inputs: workloads.Inputs, clients: List[loadgen.Client],
                phase: loadgen.Phase, cpu_seconds: float) -> Dict[str, Any]:
    """The traced pass of one serve workload (its first phase already ran)."""
    values: Dict[str, float] = {}
    streams = inputs.streams
    failures = workloads.load_failures(clients)
    first = loadgen.window_metrics(clients, phase, inputs.blocks)
    again, second, probe = scaling_phase(ctx, name, deployment, inputs,
                                         clients)
    failures.extend(workloads.load_failures(again))
    # Whole-phase throughput, not quiet windows: a convoy is not a
    # disturbance to filter out, it is what this ratio is there to show.
    rate = {len(group): measured["counts"]["ops"] / group[0].phase.seconds
            for group, measured in ((clients, first), (again, second))}
    values["service.scaling_2v1"] = rate[2] / rate[1] if rate.get(1) else 0.0
    values["cache.hit_ratio"] = workloads.hit_ratio(clients, 0)
    values["service.cpu_ms_per_op"] = \
        cpu_seconds * 1000.0 / max(1, first["counts"]["ops"])
    values["client.retries"] = float(
        sum(c.retries for c in list(clients) + again))
    history: List[Any] = list(clients)
    if len(clients) > 1:
        history[0] = _History(clients[0], again[0])
    checked = workloads.verify_reads(ctx, name, history, failures)
    # The HTTP rung, while the server still runs: one served execution per
    # op against the four-odd in-process ones the budget must also cover.
    sample = _ladder_sample(ctx, name, streams)
    tracer = Tracer()
    budget = ctx.seconds * LADDER_BUDGET_SHARE
    values["http.floor_us"] = http_floor_us(deployment.primary.url)
    http_rows = http_rung(deployment.primary.url, sample, tracer,
                          budget / 5.0)
    counters = _service_counters(deployment.primary.url)
    for key in ("shed", "deadline_exceeded", "failed"):
        values["service." + key] = float(counters.get(key, 0))
    if name == "serve_mixed_write":
        values.update(mixed_values(ctx, fleet, deployment, inputs,
                                   history[0], first, second, probe,
                                   again[0], values["cache.hit_ratio"],
                                   failures))
    workloads.check_exits(fleet, failures)
    # The in-process rungs, on a store opened the way the server opens its.
    copy = ctx.scratch("ladder-store")
    PersistentGraph.create(copy, oracle.serve_graph(ctx.seed),
                           name=GRAPH_NAME).close()
    env = ReadEnv(copy, workloads.SERVE[name]["cache"])
    try:
        hits, misses, _ = env.engine.dfa_cache_info()
        rows = read_ladder(env, lambda op: env.engine,
                           sample[:len(http_rows)], tracer, budget)
        after = env.engine.dfa_cache_info()
        laddered = ladder_metrics(tracer, rows, after[0] - hits,
                                  after[1] - misses)
        values.update(laddered)
        values["planner.misdirection_ratio"] = misdirection(env.engine, rows)
        values.update(direction_shares(env.engine, sample))
        values.update(http_metrics(http_rows, tracer))
        values["rpq.dfa_compile_us"] = dfa_compile_us(env.graph, sample)
    finally:
        env.close()
    values["compact.snapshot_build_ms"] = snapshot_build_ms(
        oracle.serve_graph(ctx.seed))
    if name == "serve_mixed_write":
        values.update(storage_layers(ctx, streams[0]))
        values.update(overlay_layers(ctx, streams[0], sample))
    span_file = "trace-{}.json".format(name)
    tracer.write(os.path.join(ctx.out_dir, span_file))
    return workloads.make_result(
        name, ctx, _emit(values, laddered),
        first["counts"]["ops"] + second["counts"]["ops"] + checked
        + len(http_rows), failures, stream_sha256=inputs.sha256,
        server_flags=deployment.flags, clients=len(clients),
        diagnostics={"span_file": span_file,
                     "http_rung_ops": len(http_rows),
                     "in_process_ops": len(rows),
                     "verified_answers": checked,
                     "replica_poll_floor_ms":
                         workloads.REPLICA_POLL_INTERVAL * 1000.0},
        servers=fleet.report())


def mixed_values(ctx: workloads.Context, fleet, deployment,
                 inputs: workloads.Inputs, writer: Any,
                 first: Dict[str, Any], second: Dict[str, Any],
                 probe: Optional[LagProbe], solo_writer: loadgen.Client,
                 hit_ratio: float, failures: List[str]) -> Dict[str, float]:
    """serve_mixed_write's served write path, replication lag and the three
    post-run checks — the workload-specific numbers a user would see."""
    values = {
        "cache.write_invalidation_ratio": 1.0 - hit_ratio,
        "service.write_p50_ms": first["quiet"]["write_p50_ms"] or 0.0,
        "service.write_p95_ms": first["quiet"]["write_p95_ms"] or 0.0,
        "storage.checkpoint_stall_ms": _median(
            first["checkpoint_ms"] + second["checkpoint_ms"]),
    }
    lags = probe.lags_ms(solo_writer) if probe is not None else []
    if lags:
        values["replication.visible_lag_ms_p50"] = stats.percentile(lags, 50)
        values["replication.visible_lag_ms_p95"] = stats.percentile(lags, 95)
    user_bytes = sum(
        len(json.dumps({"add_edges": writer.ops[position][1],
                        "remove_edges": writer.ops[position][2]}))
        for position in writer.versions)
    initial = ctx.scratch("initial-store")
    PersistentGraph.create(initial, oracle.serve_graph(ctx.seed),
                           name=GRAPH_NAME, replicate=True).close()
    post = workloads.mixed_post_checks(ctx, fleet, deployment, inputs,
                                       writer, failures)
    if post:
        values["replication.catchup_rec_per_s"] = \
            post["catchup_records"] / post["catchup_seconds"]
        values["storage.restart_first_answer_ms"] = \
            post["restart_first_answer_ms"]
        values["storage.disk_bytes_per_user_byte"] = \
            (post["store_bytes_before_crash"]
             - workloads.tree_bytes(initial)) / max(1, user_bytes)
    return values


def _service_counters(url: str) -> Dict[str, int]:
    client = ReproClient(url, keep_alive=True)
    try:
        return client.stats(GRAPH_NAME)["info"]["service"]["counters"]
    finally:
        client.close()


def trace_sweep(ctx: workloads.Context) -> Dict[str, Any]:
    """The traced pass of ``engine_sweep``: the two in-process rungs over
    one pass of the sweep list."""
    ops = opstream.sweep_ops()
    engines, _ = workloads.sweep_setup(ctx)
    tracer = Tracer()
    before = [engine.dfa_cache_info() for engine in engines.values()]
    rows = read_ladder(None, lambda op: engines[op[4]], ops, tracer,
                       float("inf"))
    after = [engine.dfa_cache_info() for engine in engines.values()]
    laddered = ladder_metrics(
        tracer, rows,
        sum(b[0] - a[0] for a, b in zip(before, after)),
        sum(b[1] - a[1] for a, b in zip(before, after)))
    values = dict(laddered)
    values["planner.misdirection_ratio"] = 1.0
    for direction in ("forward", "backward", "bidirectional"):
        values["planner.direction_share." + direction] = \
            sum(row["direction"] == direction for row in rows) / len(rows)
    dense = engines["dense"].graph
    values["rpq.dfa_compile_us"] = dfa_compile_us(dense, ops)
    values["compact.snapshot_build_ms"] = snapshot_build_ms(dense)
    tracer.write(os.path.join(ctx.out_dir, "trace-engine_sweep.json"))
    return workloads.make_result(
        "engine_sweep", ctx, _emit(values, laddered), 2 * len(ops), [],
        stream_sha256=opstream.stream_sha256(ops), clients=0,
        server_flags=[],
        diagnostics={"span_file": "trace-engine_sweep.json"}, servers=[])
