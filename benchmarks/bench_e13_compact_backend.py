"""E13 — compact integer-indexed adjacency backend vs the seed hash indices.

Measures, on generated graphs of >= 10k edges across several label
distributions, the hot paths the compact backend rewrote:

* multi-source ``rpq_pairs``: frontier-set BFS over the (vertex, dfa-state)
  product on per-label CSR arrays vs the per-source product BFS over
  ``graph.match`` frozensets (``rpq_pairs_basic``),
* **selective RPQ scenarios** (point-to-point, vertex-bound prefix through
  the engine's constrained lowering, target-bound suffix): bidirectional /
  backward / constrained evaluation vs the all-sources forward sweep, each
  gated at >= 3x on a 12k-edge graph — sizes do not shrink under
  ``--quick``,
* ``DiGraph.bfs_distances``: vectorized level-synchronous BFS vs dict BFS,
* ``weakly_connected_components``: compact flood fill vs union-find,
* ``pagerank``: vectorized power iteration vs the dict loop,
* **mutation churn**: interleaved single-edge mutate-then-query loops with
  the incremental delta-overlay snapshots vs one full snapshot rebuild per
  mutation (the pre-incremental lifecycle, simulated by dropping the cache
  before each query).  The incremental mode is asserted faster — this is
  the regression gate for the snapshot/delta/compaction machinery,
* **pre-flight analysis**: the static query analysis layer
  (:mod:`repro.analysis.query`) wired into the engine — the warm
  pre-flight (diagnostics served from the DFA cache) must cost < 5% of a
  vertex-bound point query's end-to-end time, and a provably-empty query
  must short-circuit to the empty set **without dispatching any compact
  kernel** (proven by poisoning the kernels for the timed region, not
  inferred from timing) while clocking in far below the all-sources
  sweep it avoids,
* **persistence**: reopening a durable store (mmap'd CSR snapshot + WAL
  replay, :mod:`repro.storage`) vs rebuilding the same 12k-edge graph
  from its triple CSV, gated at >= 5x with identical query answers —
  the regression gate for the snapshot-store reopen path,
* **the async service tier** (:mod:`repro.service`): a warm result-cache
  hit through ``AsyncEngine.pairs`` must beat uncached evaluation >= 20x
  and a served hit must not pay for its answer's size again (deadline
  cancellation is a property, held by ``tests/test_service.py``: a timed
  contest cannot cut a sweep that runs in a few milliseconds),
* **fault-hook tax**: the disarmed fault-injection hooks compiled into
  the storage/pool/service hot paths (:mod:`repro.faults`) must cost
  <= 2% of a hot persistent query — measured structurally (crossings
  per query x priced per-crossing cost), so the "zero overhead in
  production" claim is a gate, not a comment,
* **lock-witness tax**: the disarmed :class:`~repro.concurrency.OrderedLock`
  wrapper adopted by every lock-holding subsystem must cost <= 2% of a
  hot WAL-append + cached-query loop, measured the same structural way
  (acquisitions per loop counted by a briefly armed witness x the priced
  per-acquisition delta of the disarmed wrapper over a raw
  ``threading.Lock``),
* **sharded parallelism**: the all-sources RPQ sweep and the sharded
  pagerank power iteration on a 50k-edge graph, 4 fan-out workers
  (:mod:`repro.engine.parallel`) vs the single-core compact kernels,
  each gated at >= 1.5x with identical (for pagerank: bit-identical)
  answers; skipped when the machine has fewer than 4 cores.  Sizes do
  not shrink under ``--quick``.

Every comparison first asserts the two implementations return **identical
answers** (same pair sets, same distance maps, same components, same ranks
to 1e-9) — the speedup is measured on verified-equivalent results, not
asserted blind.

Run standalone (not under pytest-benchmark, so CI can smoke it cheaply)::

    PYTHONPATH=src python benchmarks/bench_e13_compact_backend.py          # full
    PYTHONPATH=src python benchmarks/bench_e13_compact_backend.py --quick  # CI smoke

``--json PATH`` additionally writes the whole run as one machine-readable
trajectory record (scenario rows, sizes, timings, speedups, the parallel
gate's outcome) — CI uploads it as the ``BENCH_e13.json`` artifact so the
bench history is a queryable series instead of scrollback.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import time

from repro.algorithms.components import (
    _weakly_connected_components_unionfind,
    weakly_connected_components,
)
from repro.algorithms.digraph import DiGraph
from repro.algorithms.pagerank import pagerank
from repro.graph.compact import (
    _CACHE_ATTR,
    HAVE_NUMPY,
    CompactAdjacency,
    adjacency_snapshot,
    rpq_pairs_on_snapshot,
)
from repro.graph.generators import preferential_attachment, uniform_random
from repro.rpq import (
    compile_rpq,
    lconcat,
    lstar,
    lunion,
    rpq_pairs,
    rpq_pairs_basic,
    rpq_pairs_between,
    rpq_pairs_to_targets,
    sym,
)


def timed(function, repeat=1):
    """Best-of-N wall time; cheap workloads get extra runs to beat noise."""
    best = None
    result = None
    runs = 0
    while True:
        # Flush any pending cyclic-GC pass so no timed region absorbs a
        # collection scheduled by earlier allocations.
        gc.collect()
        started = time.perf_counter()
        result = function()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
        runs += 1
        if runs >= repeat and (best > 0.25 or runs >= max(repeat, 3)):
            return result, best


def report(rows):
    width = max(len(name) for name, _, _ in rows)
    print()
    print("{:<{w}}  {:>10}  {:>10}  {:>8}".format(
        "hot path", "seed (s)", "compact(s)", "speedup", w=width))
    for name, seed_s, compact_s in rows:
        print("{:<{w}}  {:>10.4f}  {:>10.4f}  {:>7.1f}x".format(
            name, seed_s, compact_s, seed_s / compact_s, w=width))
    print()


def random_digraph(num_vertices, num_edges, seed):
    rng = random.Random(seed)
    graph = DiGraph()
    for v in range(num_vertices):
        graph.add_vertex(v)
    while graph.size() < num_edges:
        graph.add_edge(rng.randrange(num_vertices), rng.randrange(num_vertices),
                       rng.choice((0.5, 1.0, 2.0)))
    return graph


def bench_rpq(graph, label, rows, quick):
    expressions = {
        "chain a.b": lconcat(sym("a"), sym("b")),
        "star a.b*": lconcat(sym("a"), lstar(sym("b"))),
        "union (a.b)|c*": lunion(lconcat(sym("a"), sym("b")), lstar(sym("c"))),
    }
    adjacency_snapshot(graph)  # build outside the timed region (cached after)
    warmup_sources = frozenset(list(graph.vertices())[:8])
    for name, expression in expressions.items():
        # Warm both code paths (bytecode + caches) on a tiny source set so
        # the timed region measures the traversal, not first-call overhead.
        rpq_pairs(graph, expression, sources=warmup_sources)
        rpq_pairs_basic(graph, expression, sources=warmup_sources)
        compact_answer, compact_s = timed(lambda: rpq_pairs(graph, expression))
        seed_answer, seed_s = timed(lambda: rpq_pairs_basic(graph, expression))
        assert compact_answer == seed_answer, \
            "rpq answer sets diverge on {} / {}".format(label, name)
        rows.append(("rpq_pairs[{}] {} ({} pairs)".format(
            label, name, len(compact_answer)), seed_s, compact_s))
        if quick:
            break


def bench_digraph(num_vertices, num_edges, rows, quick):
    graph = random_digraph(num_vertices, num_edges, seed=13)
    sources = list(range(0, num_vertices, max(1, num_vertices // (16 if quick else 64))))
    # Warm up outside the timed region: snapshot build + numpy one-time
    # machinery (np.unique's first call imports its hash-table backend).
    graph.bfs_distances(sources[0])
    weakly_connected_components(graph)

    def run_fast():
        return [graph.bfs_distances(s) for s in sources]

    def run_seed():
        return [graph._bfs_distances_dict(s) for s in sources]

    fast, compact_s = timed(run_fast)
    seed, seed_s = timed(run_seed)
    assert fast == seed, "bfs_distances diverge"
    rows.append(("bfs_distances x{} sources".format(len(sources)),
                 seed_s, compact_s))

    fast, compact_s = timed(lambda: weakly_connected_components(graph),
                            repeat=2 if quick else 3)
    seed, seed_s = timed(lambda: _weakly_connected_components_unionfind(graph),
                         repeat=2 if quick else 3)
    assert fast == seed, "components diverge"
    rows.append(("weakly_connected_components", seed_s, compact_s))

    fast, compact_s = timed(lambda: pagerank(graph))
    # Force the dict fallback by dropping below the compact threshold.
    original = DiGraph._COMPACT_MIN_ORDER
    DiGraph._COMPACT_MIN_ORDER = num_vertices + 1
    try:
        seed, seed_s = timed(lambda: pagerank(graph))
    finally:
        DiGraph._COMPACT_MIN_ORDER = original
    assert set(fast) == set(seed)
    assert max(abs(fast[v] - seed[v]) for v in fast) < 1.0e-9, \
        "pagerank ranks diverge"
    rows.append(("pagerank (power iteration)", seed_s, compact_s))


#: Selective RPQ scenarios must beat the all-sources forward sweep by at
#: least this factor — the acceptance gate for the directional kernels.
SELECTIVE_SPEEDUP_FLOOR = 3.0

#: Reopening a persistent store (mmap'd CSR snapshot + WAL replay) must
#: beat rebuilding the same graph from its triple CSV — parse, dict
#: indices, CSR build — by at least this factor, answering identically.
PERSISTENCE_SPEEDUP_FLOOR = 5.0

#: The single-source kernel on a reopened (mapped) snapshot may cost at
#: most this multiple of the same kernel on the heap-list CSR built from
#: the same graph: every served query traverses the mapped view, and a
#: view that yields boxed scalars instead of Python ints (a numpy view
#: costs ~5x) taxes all of them.
MAPPED_KERNEL_TAX_CEILING = 1.3


def bench_persistence(rows, quick):
    """Durable-store reopen vs rebuild-from-triples at >= 10k edges.

    One string-keyed 12k-edge graph is (a) written as triple CSV and (b)
    checkpointed into a persistent store.  The contest: answer a fixed
    selective RPQ batch starting from cold, either by re-parsing the CSV
    (dict store + CSR snapshot rebuilt from scratch) or by
    ``PersistentGraph.open`` (header read + ``mmap`` of the CSR arrays +
    empty-WAL replay).  Answers are asserted identical; the reopen must
    win by >= ``PERSISTENCE_SPEEDUP_FLOOR``x.  Then the traversal itself:
    a batch of single-source sweeps on the reopened store's mapped view
    must cost <= ``MAPPED_KERNEL_TAX_CEILING``x the same batch on
    ``CompactAdjacency.build`` of the same graph.  Sizes do not shrink
    under ``--quick`` — the gates are only meaningful at 10k+ edges.
    """
    import shutil
    import tempfile

    from repro.graph.graph import MultiRelationalGraph
    from repro.graph.io import read_triples, write_triples
    from repro.storage import PersistentGraph

    num_vertices, num_edges = 1500, 12000
    rng = random.Random(53)
    graph = MultiRelationalGraph(name="persist")
    for v in range(num_vertices):
        graph.add_vertex("v{}".format(v))
    while graph.size() < num_edges:
        graph.add_edge("v{}".format(rng.randrange(num_vertices)),
                       rng.choice("abc"),
                       "v{}".format(rng.randrange(num_vertices)))
    # A selective probe (few sources, bounded chain) keeps query time tiny
    # on both sides, so the timed contest measures cold-start cost — parse
    # + index + CSR build vs header read + mmap — not traversal time.
    expression = lconcat(sym("a"), sym("b"))
    sources = frozenset("v{}".format(rng.randrange(num_vertices))
                        for _ in range(4))

    workdir = tempfile.mkdtemp(prefix="bench-e13-persistence-")
    try:
        csv_path = workdir + "/graph.csv"
        write_triples(graph, csv_path)
        store_dir = workdir + "/store"
        PersistentGraph.create(store_dir, graph=graph).close()

        def run_rebuild():
            rebuilt = read_triples(csv_path)
            return rpq_pairs(rebuilt, expression, sources=sources)

        def run_reopen():
            with PersistentGraph.open(store_dir) as store:
                return store.pairs(expression, sources=sources)

        rebuild_answer, rebuild_s = timed(run_rebuild)
        reopen_answer, reopen_s = timed(run_reopen)
        assert reopen_answer == rebuild_answer, \
            "mmap reopen answers diverge from the rebuilt graph's"
        assert rebuild_s / reopen_s >= PERSISTENCE_SPEEDUP_FLOOR, \
            "mmap reopen ({:.4f}s) must beat rebuild-from-triples " \
            "({:.4f}s) by >= {}x on a {}-edge graph".format(
                reopen_s, rebuild_s, PERSISTENCE_SPEEDUP_FLOOR, num_edges)
        rows.append(("persistent reopen vs csv rebuild ({} edges)".format(
            num_edges), rebuild_s, reopen_s))

        dfa = compile_rpq(lconcat(sym("a"), lstar(sym("b"))), graph)
        probes = ["v{}".format(rng.randrange(num_vertices))
                  for _ in range(40)]

        def sweep(snapshot):
            return [rpq_pairs_on_snapshot(snapshot, dfa, sources=(v,))
                    for v in probes]

        heap = CompactAdjacency.build(graph)
        heap_answers, heap_s = timed(lambda: sweep(heap), repeat=5)
        with PersistentGraph.open(store_dir) as store:
            mapped = store.view()
            mapped_answers, mapped_s = timed(lambda: sweep(mapped), repeat=5)
        assert mapped_answers == heap_answers, \
            "mapped-snapshot kernel answers diverge from the heap build's"
        assert mapped_s / heap_s <= MAPPED_KERNEL_TAX_CEILING, \
            "single-source kernel on the mapped snapshot ({:.4f}s) must " \
            "stay within {}x of the heap build ({:.4f}s)".format(
                mapped_s, MAPPED_KERNEL_TAX_CEILING, heap_s)
        rows.append(("single-source kernel x{}: heap build vs mapped "
                     "snapshot".format(len(probes)), heap_s, mapped_s))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench_rpq_selective(rows, quick):
    """Point-to-point and vertex-bound RPQ scenarios at >= 10k edges.

    The regression gate for the direction-selecting evaluation path: on a
    12k-edge graph, a batch of bidirectional point-to-point probes, an
    engine-lowered vertex-bound prefix query (``[i, a, _] · R``), and a
    backward target-bound sweep must each beat the all-sources forward
    product BFS — what these queries cost before vertex-bound lowering and
    direction selection — by >= ``SELECTIVE_SPEEDUP_FLOOR``x, with every
    answer set first verified pair-for-pair against the full sweep.
    Sizes do **not** shrink under ``--quick``: the gate is only meaningful
    at 10k+ edges.
    """
    from repro.engine import Engine

    num_vertices, num_edges = 1500, 12000
    graph = uniform_random(num_vertices, num_edges, labels=("a", "b", "c"),
                           seed=43)
    expression = lconcat(sym("a"), lstar(sym("b")))
    adjacency_snapshot(graph)  # build outside every timed region
    vertices = sorted(graph.vertices())
    rng = random.Random(47)
    probes = [(rng.choice(vertices), rng.choice(vertices))
              for _ in range(4 if quick else 8)]

    full = rpq_pairs(graph, expression)  # warm + ground truth
    _, sweep_s = timed(lambda: rpq_pairs(graph, expression))

    def gate(name, selective_s):
        assert sweep_s / selective_s >= SELECTIVE_SPEEDUP_FLOOR, \
            "{} ({:.4f}s) must beat the all-sources forward sweep " \
            "({:.4f}s) by >= {}x on a {}-edge graph".format(
                name, selective_s, sweep_s, SELECTIVE_SPEEDUP_FLOOR,
                num_edges)
        rows.append((name, sweep_s, selective_s))

    # Meet-in-the-middle point-to-point: the whole probe batch together
    # must still clear the floor against one sweep.
    def run_bidirectional():
        return [rpq_pairs_between(graph, expression, {s}, {t})
                for s, t in probes]

    answers, bidirectional_s = timed(run_bidirectional)
    for (s, t), answer in zip(probes, answers):
        assert answer == frozenset(p for p in full if p == (s, t)), \
            "bidirectional answer diverges on probe ({!r}, {!r})".format(s, t)
    gate("rpq point-to-point x{} (bidirectional)".format(len(probes)),
         bidirectional_s)

    # Vertex-bound prefix through the engine: constrained lowering + DFA
    # cache + direction model, not just the raw kernel.
    engine = Engine(graph)
    source = probes[0][0]
    query = "[{}, a, _] . [_, b, _]*".format(source)
    engine.pairs(query)  # warm parse/stats/DFA caches
    answer, engine_s = timed(lambda: engine.pairs(query))
    assert answer == frozenset(p for p in full if p[0] == source), \
        "engine vertex-bound answer diverges from the full sweep"
    gate("rpq vertex-bound prefix (engine lowering)", engine_s)

    # Target-bound suffix: backward product BFS over the reverse CSR.
    target = probes[1][1]
    answer, backward_s = timed(
        lambda: rpq_pairs_to_targets(graph, expression, targets={target}))
    assert answer == frozenset(p for p in full if p[1] == target), \
        "backward answer diverges from the full sweep"
    gate("rpq target-bound suffix (backward)", backward_s)


#: Warm pre-flight analysis (diagnostics served from the engine's DFA
#: cache) must cost less than this fraction of a vertex-bound point
#: query's end-to-end time — the acceptance ceiling for wiring static
#: analysis into every ``Engine.pairs`` call.
PREFLIGHT_OVERHEAD_CEILING = 0.05


def bench_preflight(rows, quick):
    """Pre-flight query analysis: overhead ceiling + empty short-circuit.

    Two gates for the static-analysis layer on a 12k-edge graph:

    * the warm pre-flight (diagnostics out of the engine's DFA cache, the
      cost every repeated ``Engine.pairs`` call now pays) must stay under
      ``PREFLIGHT_OVERHEAD_CEILING`` of a vertex-bound point query's
      end-to-end time, and
    * a provably-empty query (a label that never occurs in the graph)
      must return the empty set **without any kernel dispatch** — proven
      by poisoning the compact kernels for the timed region, with a
      satisfiable probe first tripping the poison so the proof cannot be
      vacuous — while clocking in far below the all-sources sweep the
      short-circuit avoids.

    Sizes do not shrink under ``--quick``.
    """
    from repro.engine import Engine
    from repro.graph import compact as compact_module

    num_vertices, num_edges = 1500, 12000
    graph = uniform_random(num_vertices, num_edges, labels=("a", "b", "c"),
                           seed=59)
    expression = lconcat(sym("a"), lstar(sym("b")))
    adjacency_snapshot(graph)  # base CSR built outside every timed region
    engine = Engine(graph)
    source = sorted(graph.vertices())[0]
    point_query = "[{}, a, _] . [_, b, _]*".format(source)

    engine.pairs(point_query)  # warm parse/stats/DFA/diagnostics caches
    _, query_s = timed(lambda: engine.pairs(point_query), repeat=3)
    # One warm pre-flight is microseconds; time a batch and amortize so
    # the measurement rises above timer noise.
    batch = 1000
    _, batch_s = timed(
        lambda: [engine.preflight(expression) for _ in range(batch)],
        repeat=3)
    preflight_s = batch_s / batch
    assert preflight_s / query_s < PREFLIGHT_OVERHEAD_CEILING, \
        "warm pre-flight ({:.6f}s) must stay under {:.0%} of a point " \
        "query ({:.6f}s) on a {}-edge graph".format(
            preflight_s, PREFLIGHT_OVERHEAD_CEILING, query_s, num_edges)
    rows.append(("preflight (warm, amortized x{}) vs point query".format(
        batch), query_s, preflight_s))

    # Empty short-circuit: the sweep this query would have cost...
    _, sweep_s = timed(lambda: rpq_pairs(graph, expression))
    # ...versus the short-circuit, with both product-BFS cores poisoned
    # (every kernel entry, rpq_pairs_on_snapshot included, runs one) so a
    # single dispatch fails loudly instead of skewing the timing.
    kernel_names = ("_propagate", "_sweep")
    saved = {name: getattr(compact_module, name) for name in kernel_names}

    def poisoned(*_args, **_kwargs):
        raise AssertionError("kernel dispatched for a provably-empty query")

    empty_engine = Engine(graph)
    try:
        for name in kernel_names:
            setattr(compact_module, name, poisoned)
            if HAVE_NUMPY:
                # Prove the poison is live: a satisfiable query must trip
                # it — an all-sources one, so that with _propagate alone
                # poisoned it is the shared many-seed sweep that dies.
                try:
                    empty_engine.pairs("[_, a, _]")
                except AssertionError:
                    pass
                else:
                    raise AssertionError(
                        "kernel poison is not live; the short-circuit "
                        "proof would be vacuous")
        empty_answer, empty_s = timed(
            lambda: empty_engine.pairs("[_, a, _] . [_, zz, _]"), repeat=3)
    finally:
        for name, original in saved.items():
            setattr(compact_module, name, original)
    assert empty_answer == frozenset(), \
        "provably-empty query must answer with the empty set"
    rows.append(("rpq provably-empty short-circuit vs sweep", sweep_s,
                 empty_s))


#: Sharded fan-out must beat the single-core compact kernels by at least
#: this factor on the all-sources sweep and the pagerank iteration — the
#: acceptance gate for the parallel executor.
PARALLEL_SPEEDUP_FLOOR = 1.5

#: Worker count the parallel gate is measured at; machines with fewer
#: cores skip the scenario (a fan-out cannot beat one core on one core).
PARALLEL_WORKERS = 4


#: Disarmed fault hooks may tax a hot persistent query by at most this
#: fraction — the "zero-overhead in production" claim of repro.faults.
FAULT_HOOK_OVERHEAD_CEILING = 0.02

#: The disarmed OrderedLock wrapper may tax a hot WAL-append +
#: cached-query loop by at most this fraction — the same bargain the
#: fault hooks struck, gated for the lock-order witness of
#: repro.concurrency.
LOCK_WITNESS_OVERHEAD_CEILING = 0.02


def bench_faults(rows, quick):
    """Disarmed fault-injection hooks must stay under 2% of a hot query.

    Measured structurally, not by differencing two noisy end-to-end
    timings (a 2% delta drowns in run-to-run variance): an installed but
    *empty* :class:`~repro.faults.FaultPlan` counts how many hook
    crossings one hot ``PersistentGraph.pairs`` query performs, a tight
    loop prices a single disarmed crossing (the production path is one
    module-global load plus an ``is None`` test — the plan check only
    runs while chaos tests arm one), and the product of the two is gated
    against the measured query time.
    """
    import shutil
    import tempfile

    from repro.faults import FaultPlan, clear_plan, fault_hook, install_plan
    from repro.storage import PersistentGraph

    num_vertices, num_edges = (300, 2500) if quick else (600, 6000)
    graph = uniform_random(num_vertices, num_edges, labels=("a", "b", "c"),
                           seed=3)
    expression = lconcat(sym("a"), lstar(sym("b")))
    directory = tempfile.mkdtemp(prefix="bench-e13-faults-")
    try:
        store = PersistentGraph.create(os.path.join(directory, "g"), graph,
                                       name="bench")
        store.pairs(expression)  # warm snapshot/DFA caches
        # Crossings per query, counted by an installed-but-empty plan.
        probe = FaultPlan()
        install_plan(probe)
        try:
            store.pairs(expression)
            crossings = probe.hits
        finally:
            clear_plan()
        _, query_s = timed(lambda: store.pairs(expression), repeat=3)
        calls = 200_000
        def hook_loop():
            for _ in range(calls):
                fault_hook("wal.fsync")
        _, loop_s = timed(hook_loop, repeat=3)
        store.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    per_crossing = loop_s / calls
    hook_tax = crossings * per_crossing
    budget = query_s * FAULT_HOOK_OVERHEAD_CEILING
    print("faults: {} hook crossing(s) per hot query, {:.1f} ns each; "
          "tax {:.2e}s vs {:.2e}s budget".format(
              crossings, per_crossing * 1e9, hook_tax, budget))
    assert crossings >= 1, "the hot query crossed no fault site"
    assert hook_tax <= budget, \
        "disarmed fault hooks cost {:.3%} of a hot query (ceiling " \
        "{:.0%})".format(hook_tax / query_s, FAULT_HOOK_OVERHEAD_CEILING)
    rows.append(("faults: disarmed hook tax vs 2% budget", budget,
                 hook_tax))


def bench_locks(rows, quick):
    """Disarmed OrderedLocks must stay under 2% of a hot mutate+query loop.

    The witness wrapper promises the fault hooks' bargain: armed it
    records order edges, disarmed an acquisition is the raw lock plus
    one module-global load and an ``is None`` test.  Measured
    structurally like :func:`bench_faults` — differencing two noisy
    end-to-end timings would drown a 2% delta: a briefly armed witness
    counts acquisitions across a WAL-append + cached-query loop, a tight
    loop prices the *disarmed* wrapper's per-acquisition delta over a
    raw :class:`threading.Lock`, and the product is gated against the
    measured (disarmed) loop time.
    """
    import shutil
    import tempfile
    import threading

    from repro.concurrency import OrderedLock, installed_witness, \
        witness_scope
    from repro.storage import PersistentGraph

    num_vertices, num_edges = (300, 2500) if quick else (600, 6000)
    graph = uniform_random(num_vertices, num_edges, labels=("a", "b", "c"),
                           seed=3)
    expression = lconcat(sym("a"), lstar(sym("b")))
    directory = tempfile.mkdtemp(prefix="bench-e13-locks-")
    try:
        store = PersistentGraph.create(os.path.join(directory, "g"), graph,
                                       name="bench", sync="batch",
                                       batch_size=64)
        steps = 20 if quick else 40

        def hot_loop():
            for step in range(steps):
                store.add_edge(step % num_vertices, "a",
                               (step * 7) % num_vertices)
                store.pairs(expression)

        hot_loop()  # warm snapshot/DFA caches outside every measured run
        # Acquisitions per loop, counted by a briefly armed witness.
        # (Re-entrant re-acquires are exempt from the count, which only
        # makes the gate stricter: they still pay the disarmed wrapper.)
        with witness_scope() as witness:
            hot_loop()
            crossings = witness.acquisitions
        assert installed_witness() is None, \
            "the timed loop must run disarmed"
        _, loop_s = timed(hot_loop, repeat=3)
        calls = 200_000
        wrapped = OrderedLock("bench.locks")
        raw = threading.Lock()

        def wrapped_loop():
            for _ in range(calls):
                with wrapped:
                    pass

        def raw_loop():
            for _ in range(calls):
                with raw:
                    pass

        _, wrapped_s = timed(wrapped_loop, repeat=3)
        _, raw_s = timed(raw_loop, repeat=3)
        store.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    per_crossing = max(0.0, (wrapped_s - raw_s) / calls)
    lock_tax = crossings * per_crossing
    budget = loop_s * LOCK_WITNESS_OVERHEAD_CEILING
    print("locks: {} acquisition(s) per hot loop, {:+.1f} ns wrapper "
          "delta each; tax {:.2e}s vs {:.2e}s budget".format(
              crossings, per_crossing * 1e9, lock_tax, budget))
    assert crossings >= steps, \
        "the witnessed loop crossed suspiciously few ordered locks"
    assert lock_tax <= budget, \
        "disarmed OrderedLocks cost {:.3%} of a hot mutate+query loop " \
        "(ceiling {:.0%})".format(lock_tax / loop_s,
                                  LOCK_WITNESS_OVERHEAD_CEILING)
    rows.append(("locks: disarmed witness tax vs 2% budget", budget,
                 lock_tax))


#: A caught-up replica must replay the shipped log >= this many times
#: faster than the primary originally wrote it — catch-up after a
#: restart or re-bootstrap converges instead of chasing a moving tail.
REPLICA_APPLY_SPEEDUP_FLOOR = 5.0


def bench_replication(rows, quick):
    """WAL shipping (:mod:`repro.replication`): the catch-up apply rate.

    One gate for the replication tier on a 10k-edge churn workload (the
    size does not shrink under ``--quick``): a replica bootstrapping from
    the snapshot and replaying the shipped segment log must apply records
    >= ``REPLICA_APPLY_SPEEDUP_FLOOR``x faster than the primary's original
    mutation rate — the condition for a lagging replica to converge at
    all, and the headroom that keeps steady-state lag at one poll
    interval.  Answers are verified identical before timing counts.
    """
    import tempfile

    from repro.replication import PrimaryFeed, ReplicaGraph
    from repro.storage import PersistentGraph

    churn = 10_000
    with tempfile.TemporaryDirectory(prefix="bench-repl-") as scratch:
        store = PersistentGraph.create(
            os.path.join(scratch, "primary"), name="bench",
            replicate=True, sync="batch")
        rng = random.Random(13)
        edges = [(rng.randrange(1500), rng.choice(("a", "b", "c")),
                  rng.randrange(1500)) for _ in range(churn)]
        gc.collect()
        started = time.perf_counter()
        for tail, label, head in edges:
            store.add_edge(tail, label, head)
        store.flush()
        primary_s = time.perf_counter() - started
        feed = PrimaryFeed(store)
        records = store.segments.last_version

        def catch_up():
            replica = ReplicaGraph.bootstrap(
                os.path.join(scratch, "replica-timed"), feed)
            try:
                started = time.perf_counter()
                while True:
                    report = replica.poll_once(feed, max_bytes=1 << 22)
                    if report["at_end"] and report["lag_records"] == 0:
                        break
                elapsed = time.perf_counter() - started
                expression = lconcat(sym("a"), lstar(sym("b")))
                assert replica.pairs(expression) == \
                    rpq_pairs(store.graph(), expression), \
                    "replica answers diverged from the primary's"
                return elapsed
            finally:
                replica.close()

        # The bootstrap snapshot for an all-churn store is tiny (the
        # create-time snapshot is empty): the timed region is the log
        # replay itself.  Best of three to shake scheduler noise.
        replica_s = min(catch_up() for _ in range(3))
        assert primary_s / replica_s >= REPLICA_APPLY_SPEEDUP_FLOOR, \
            "replica applied {} records in {:.3f}s — only {:.1f}x the " \
            "primary's {:.3f}s mutation run (floor {:.0f}x)".format(
                records, replica_s, primary_s / replica_s, primary_s,
                REPLICA_APPLY_SPEEDUP_FLOOR)
        rows.append(("replication: {}-record catch-up vs primary "
                     "write run".format(records), primary_s, replica_s))
        store.close()


def bench_parallel(rows, quick, record):
    """All-sources RPQ + sharded pagerank, 4 workers vs one core, 50k edges.

    The regression gate for the vertex-range sharding + fan-out/merge
    executor: on a 50k-edge generated graph the parallel all-sources
    product-BFS sweep and the shard-scattered pagerank power iteration
    must each beat their single-core compact kernels by >=
    ``PARALLEL_SPEEDUP_FLOOR``x with 4 workers.  Answers are verified
    first — the RPQ pair sets must be equal, the pagerank ranks
    bit-identical (the shard-ordered merge makes parallel float sums
    reproduce the serial ones exactly).  Sizes do **not** shrink under
    ``--quick``; the scenario is skipped (gate intact) when the machine
    has fewer than ``PARALLEL_WORKERS`` cores.
    """
    from repro.engine.parallel import ParallelExecutor
    from repro.rpq.evaluation import compile_rpq

    num_vertices, num_edges = 12000, 50000
    cpu = os.cpu_count() or 1
    record.update({"vertices": num_vertices, "edges": num_edges,
                   "workers": PARALLEL_WORKERS, "cpu_count": cpu,
                   "floor": PARALLEL_SPEEDUP_FLOOR, "skipped": None})
    if cpu < PARALLEL_WORKERS:
        record["skipped"] = "cpu_count {} < {} workers".format(
            cpu, PARALLEL_WORKERS)
        print("parallel scenario skipped: {}".format(record["skipped"]))
        return

    # The label mix and expression are tuned for compute-heavy sweeps:
    # the ``b`` sub-graph sits near the percolation threshold (deep but
    # bounded cones), while the rare trailing ``x`` keeps the answer set —
    # which the workers must pickle back — a small fraction of the
    # traversal work.  An answer-dominated query (``a.b*``) would measure
    # result serialization, not the fan-out.
    graph = uniform_random(num_vertices, num_edges,
                           labels=("a",) * 5 + ("b",) * 5 + ("c",) * 5
                           + ("d",) * 4 + ("x",), seed=61)
    expression = lconcat(sym("a"), lstar(sym("b")), sym("a"),
                         lstar(sym("b")), sym("x"))
    dfa = compile_rpq(expression, graph)
    adjacency_snapshot(graph)  # base CSR built outside every timed region

    single_answer, single_s = timed(lambda: rpq_pairs(graph, expression))
    serial = ParallelExecutor(graph, processes=1,
                              num_shards=PARALLEL_WORKERS)
    parallel = ParallelExecutor(graph, processes=PARALLEL_WORKERS)
    try:
        # Warm the pool (fork + snapshot staging) on a small-source probe
        # so the timed region measures the fan-out, not process startup.
        parallel.rpq_pairs(dfa, sources=frozenset(range(8)))
        parallel_answer, parallel_s = timed(lambda: parallel.rpq_pairs(dfa))
        assert parallel_answer == single_answer, \
            "parallel rpq pair set diverges from the single-core sweep"
        assert single_s / parallel_s >= PARALLEL_SPEEDUP_FLOOR, \
            "parallel all-sources rpq ({:.4f}s) must beat single-core " \
            "({:.4f}s) by >= {}x with {} workers on a {}-edge graph".format(
                parallel_s, single_s, PARALLEL_SPEEDUP_FLOOR,
                PARALLEL_WORKERS, num_edges)
        rows.append(("parallel rpq all-sources x{} workers ({} edges)".format(
            PARALLEL_WORKERS, num_edges), single_s, parallel_s))
        record["rpq_single_s"] = single_s
        record["rpq_parallel_s"] = parallel_s
        record["rpq_speedup"] = single_s / parallel_s

        pagerank_kwargs = {"tolerance": 1.0e-12}
        # Warm outside the timed region: the first parallel call re-forks
        # the pool with the sharded payload staged alongside the snapshot.
        parallel.pagerank(**pagerank_kwargs)
        serial_ranks, serial_s = timed(
            lambda: serial.pagerank(**pagerank_kwargs))
        parallel_ranks, parallel_pr_s = timed(
            lambda: parallel.pagerank(**pagerank_kwargs))
        assert parallel_ranks == serial_ranks, \
            "parallel pagerank ranks must be bit-identical to serial"
        assert serial_s / parallel_pr_s >= PARALLEL_SPEEDUP_FLOOR, \
            "parallel pagerank ({:.4f}s) must beat single-core " \
            "({:.4f}s) by >= {}x with {} workers on a {}-edge graph".format(
                parallel_pr_s, serial_s, PARALLEL_SPEEDUP_FLOOR,
                PARALLEL_WORKERS, num_edges)
        rows.append(("parallel pagerank x{} workers ({} edges)".format(
            PARALLEL_WORKERS, num_edges), serial_s, parallel_pr_s))
        record["pagerank_single_s"] = serial_s
        record["pagerank_parallel_s"] = parallel_pr_s
        record["pagerank_speedup"] = serial_s / parallel_pr_s
    finally:
        serial.close()
        parallel.close()


def _drop_snapshot_cache(graph):
    """Simulate the pre-incremental lifecycle: mutation == full invalidation."""
    if hasattr(graph, _CACHE_ATTR):
        delattr(graph, _CACHE_ATTR)


def bench_rpq_churn(rows, quick):
    """Interleaved single-edge mutations and rpq queries on the MRG.

    Same deterministic mutation walk in both modes; the only difference is
    whether the snapshot is patched from the journal (incremental) or
    rebuilt from scratch before every query (rebuild).  Answers are
    asserted identical, and incremental is asserted faster — at full size
    the graph carries >= 10k edges, the acceptance bar for the delta
    machinery.
    """
    num_vertices, num_edges = (600, 2500) if quick else (1200, 12000)
    steps = 12 if quick else 40
    expression = lconcat(sym("a"), lstar(sym("b")))

    def run(mode):
        graph = uniform_random(num_vertices, num_edges,
                               labels=("a", "b", "c"), seed=17)
        vertices = sorted(graph.vertices(), key=repr)
        sources = frozenset(random.Random(23).sample(vertices, 16))
        rpq_pairs(graph, expression, sources=sources)  # warm base snapshot
        answers = []
        gc.collect()
        started = time.perf_counter()
        for step in range(steps):
            tail = vertices[(step * 37) % len(vertices)]
            head = vertices[(step * 61 + 13) % len(vertices)]
            if graph.has_edge(tail, "a", head):
                graph.remove_edge(tail, "a", head)
            else:
                graph.add_edge(tail, "a", head)
            if mode == "rebuild":
                _drop_snapshot_cache(graph)
            answers.append(rpq_pairs(graph, expression, sources=sources))
        return answers, time.perf_counter() - started

    incremental_answers, incremental_s = run("incremental")
    rebuild_answers, rebuild_s = run("rebuild")
    assert incremental_answers == rebuild_answers, \
        "rpq churn answers diverge between incremental and rebuild modes"
    assert incremental_s < rebuild_s, \
        "incremental snapshots ({:.4f}s) must beat {} full rebuilds " \
        "({:.4f}s) on a {}-edge graph".format(
            incremental_s, steps, rebuild_s, num_edges)
    rows.append(("rpq churn x{} mutate+query ({} edges)".format(
        steps, num_edges), rebuild_s, incremental_s))


def bench_digraph_churn(rows, quick):
    """Interleaved single-edge mutations and BFS queries on the DiGraph."""
    num_vertices, num_edges = (800, 5000) if quick else (1500, 15000)
    steps = 12 if quick else 40

    def run(mode):
        graph = random_digraph(num_vertices, num_edges, seed=29)
        rng = random.Random(31)
        graph.bfs_distances(0)  # warm base snapshot
        answers = []
        gc.collect()
        started = time.perf_counter()
        for step in range(steps):
            tail = rng.randrange(num_vertices)
            head = rng.randrange(num_vertices)
            if graph.has_edge(tail, head):
                graph.remove_edge(tail, head)
            else:
                graph.add_edge(tail, head)
            if mode == "rebuild":
                _drop_snapshot_cache(graph)
            answers.append(graph.bfs_distances(step % num_vertices))
        return answers, time.perf_counter() - started

    incremental_answers, incremental_s = run("incremental")
    rebuild_answers, rebuild_s = run("rebuild")
    assert incremental_answers == rebuild_answers, \
        "digraph churn answers diverge between incremental and rebuild modes"
    assert incremental_s < rebuild_s, \
        "incremental digraph snapshots ({:.4f}s) must beat {} full " \
        "rebuilds ({:.4f}s)".format(incremental_s, steps, rebuild_s)
    rows.append(("digraph churn x{} mutate+bfs ({} edges)".format(
        steps, num_edges), rebuild_s, incremental_s))


#: A warm result-cache hit served through the async service tier must
#: beat recomputing the same query uncached by at least this factor.
SERVICE_CACHE_SPEEDUP_FLOOR = 20.0

#: A warm hit served end to end (``HttpServer._dispatch`` + ``_respond``)
#: on a ~1400-pair answer may cost at most this multiple of a warm hit on
#: a <= 4-pair answer: a cached answer's wire bytes are encoded once, so
#: what is left per hit is the envelope and a bytes concat.  Sorting and
#: encoding the pairs on every response measured 23-25x here (1.0x now).
SERVED_HIT_SIZE_TAX_CEILING = 2.0


def bench_service(rows, quick):
    """The async service tier: cache wins, at any answer size.

    Two gates for :mod:`repro.service` on the 12k-edge graph:

    * a warm result-cache hit through ``AsyncEngine.pairs`` (the loop-side
      fast path — no executor round trip, no slot) must beat the uncached
      evaluation by >= ``SERVICE_CACHE_SPEEDUP_FLOOR``x,
    * the hit gate above stops at ``AsyncEngine.pairs``; the *served* hit
      — ``HttpServer._dispatch`` + ``_respond`` into a null writer — on a
      ~1400-pair answer must cost <= ``SERVED_HIT_SIZE_TAX_CEILING``x the
      same on a <= 4-pair answer (the answer's size is paid once, at the
      miss that encodes it, not on every response).

    Sizes do not shrink under ``--quick``: dispatch overhead is only
    meaningful against a realistically sized kernel.
    """
    import asyncio

    from repro.engine import Engine, QueryCache
    from repro.service import AsyncEngine

    num_vertices, num_edges = 1500, 12000
    graph = uniform_random(num_vertices, num_edges, labels=("a", "b", "c"),
                           seed=67)
    adjacency_snapshot(graph)  # base CSR built outside every timed region
    vertices = sorted(graph.vertices())
    query = "[_, a, _] . [_, b, _]*"
    miss_sources = vertices[:16]

    # -- the uncached evaluation the hit gate is measured against.
    uncached = Engine(graph)
    uncached.pairs(query, sources=miss_sources)  # warm parse/DFA caches
    calls = 3 if quick else 6

    def run_direct():
        for _ in range(calls):
            uncached.pairs(query, sources=miss_sources)

    _, direct_s = timed(run_direct)

    # -- warm cache hit through the service vs uncached evaluation.
    cached_engine = Engine(graph, cache=QueryCache(capacity=16))

    async def cache_contest():
        async with AsyncEngine(cached_engine, max_workers=2) as service:
            await service.pairs(query, sources=miss_sources)  # fill
            hits_before = service.counters["cache_fast_hits"]
            gc.collect()
            started = time.perf_counter()
            repeats = 20
            for _ in range(repeats):
                await service.pairs(query, sources=miss_sources)
            hit_s = (time.perf_counter() - started) / repeats
            assert service.counters["cache_fast_hits"] \
                == hits_before + repeats, "warm queries must hit the " \
                "loop-side cache fast path"
            return hit_s

    hit_s = asyncio.run(cache_contest())
    miss_s = direct_s / calls
    assert miss_s / hit_s >= SERVICE_CACHE_SPEEDUP_FLOOR, \
        "warm service cache hit ({:.6f}s) must beat uncached evaluation " \
        "({:.6f}s) by >= {}x".format(hit_s, miss_s,
                                     SERVICE_CACHE_SPEEDUP_FLOOR)
    rows.append(("service warm cache hit vs uncached query", miss_s, hit_s))

    # -- a served hit must not pay for the answer's size again.
    big_pairs, big_s, small_pairs, small_s = asyncio.run(
        served_hit_contest(graph, query, vertices[0]))
    assert big_s / small_s <= SERVED_HIT_SIZE_TAX_CEILING, \
        "a served warm hit on {} pairs ({:.6f}s) must cost <= {}x one on " \
        "{} pairs ({:.6f}s); it is {:.1f}x".format(
            big_pairs, big_s, SERVED_HIT_SIZE_TAX_CEILING, small_pairs,
            small_s, big_s / small_s)
    rows.append(("served warm hit: {} pairs vs {} pairs ({:.2f}x)".format(
        big_pairs, small_pairs, big_s / small_s), big_s, small_s))


async def served_hit_contest(graph, query, source):
    """Per-request seconds of a warm hit on a big and on a small answer,
    each through ``HttpServer._dispatch`` + ``_respond`` into a null
    writer: ``(big pairs, big s, small pairs, small s)``."""
    import shutil
    import tempfile

    from repro.engine import Engine
    from repro.service import GraphRegistry, HttpServer
    from repro.storage import PersistentGraph

    class NullWriter:
        def write(self, data):
            pass

        async def drain(self):
            pass

    root = tempfile.mkdtemp(prefix="bench-e13-served-")
    try:
        PersistentGraph.create(root + "/g", graph, name="g").close()
        server = HttpServer(GraphRegistry(root, max_workers=2))
        writer = NullWriter()

        async def serve(body):
            status, payload, extra = await server._dispatch(
                "POST", "/v1/graphs/g/query", {}, body)
            await server._respond(writer, status, payload, extra)
            return status, payload

        async def hit_seconds(request, repeats=200, rounds=5):
            body = json.dumps(request).encode("utf-8")
            await serve(body)  # the miss that fills (and encodes) the entry
            best = None
            for _ in range(rounds):
                gc.collect()
                started = time.perf_counter()
                for _ in range(repeats):
                    status, payload = await serve(body)
                elapsed = (time.perf_counter() - started) / repeats
                best = elapsed if best is None else min(best, elapsed)
                assert status == 200 and payload["cached"] is True
            return payload["count"], best

        try:
            big = {"query": query, "sources": [source]}
            big_pairs, big_s = await hit_seconds(big)
            assert 1000 <= big_pairs <= 2000, big_pairs
            # The same query narrowed to three of its own targets.
            small = dict(big, targets=[head for _, head in sorted(
                Engine(graph).pairs(query, sources=[source]))[:3]])
            small_pairs, small_s = await hit_seconds(small)
            assert 1 <= small_pairs <= 4, small_pairs
            return big_pairs, big_s, small_pairs, small_s
        finally:
            await server.stop()
    finally:
        shutil.rmtree(root, ignore_errors=True)


def write_json_record(path, args, rows, parallel_record):
    """Spill the run as one machine-readable trajectory record."""
    record = {
        "bench": "e13_compact_backend",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": bool(args.quick),
        "cpu_count": os.cpu_count(),
        "have_numpy": HAVE_NUMPY,
        "gates": {
            "selective_speedup_floor": SELECTIVE_SPEEDUP_FLOOR,
            "preflight_overhead_ceiling": PREFLIGHT_OVERHEAD_CEILING,
            "persistence_speedup_floor": PERSISTENCE_SPEEDUP_FLOOR,
            "parallel_speedup_floor": PARALLEL_SPEEDUP_FLOOR,
            "service_cache_speedup_floor": SERVICE_CACHE_SPEEDUP_FLOOR,
            "served_hit_size_tax_ceiling": SERVED_HIT_SIZE_TAX_CEILING,
            "fault_hook_overhead_ceiling": FAULT_HOOK_OVERHEAD_CEILING,
            "lock_witness_overhead_ceiling": LOCK_WITNESS_OVERHEAD_CEILING,
            "replica_apply_speedup_floor": REPLICA_APPLY_SPEEDUP_FLOOR,
        },
        "rows": [
            {"scenario": name, "baseline_s": baseline, "contender_s": fast,
             "speedup": baseline / fast}
            for name, baseline, fast in rows
        ],
        "parallel": parallel_record,
    }
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(record, stream, indent=2)
        stream.write("\n")
    print("wrote trajectory record to {}".format(path))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes + one expression per family (CI smoke)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the run as a JSON trajectory record")
    args = parser.parse_args()

    if args.quick:
        workloads = [
            ("uniform", uniform_random(400, 2500, labels=("a", "b", "c"), seed=5)),
        ]
        digraph_size = (800, 5000)
    else:
        workloads = [
            # >= 10k edges each, three very different label distributions.
            ("uniform", uniform_random(1200, 12000, labels=("a", "b", "c"), seed=5)),
            ("skewed", uniform_random(1200, 12000,
                                      labels=("a",) * 6 + ("b", "c"), seed=7)),
            ("hub", preferential_attachment(2500, edges_per_vertex=4,
                                            labels=("a", "b", "c"), seed=11)),
        ]
        digraph_size = (1500, 15000)

    rows = []
    parallel_record = {}
    for label, graph in workloads:
        print("graph[{}]: {!r}".format(label, graph))
        bench_rpq(graph, label, rows, args.quick)
    bench_rpq_selective(rows, args.quick)
    bench_preflight(rows, args.quick)
    if HAVE_NUMPY:
        bench_digraph(digraph_size[0], digraph_size[1], rows, args.quick)
    else:
        print("numpy unavailable: DiGraph kernels fall back to the seed "
              "implementations, skipping their comparison")
    bench_rpq_churn(rows, args.quick)
    if HAVE_NUMPY:
        bench_digraph_churn(rows, args.quick)
    bench_persistence(rows, args.quick)
    bench_service(rows, args.quick)
    bench_replication(rows, args.quick)
    bench_faults(rows, args.quick)
    bench_locks(rows, args.quick)
    bench_parallel(rows, args.quick, parallel_record)
    report(rows)
    print("all compact/seed answer sets identical; "
          "incremental churn beats full rebuilds; "
          "selective rpq scenarios beat the all-sources sweep >= {}x; "
          "warm pre-flight stays under {:.0%} of a point query and "
          "provably-empty queries short-circuit with zero kernel "
          "dispatch; "
          "persistent reopen beats csv rebuild >= {}x; "
          "service cache hits beat uncached >= {}x and a served hit "
          "does not pay for its answer's size again; "
          "replica catch-up replays the shipped log >= {}x the "
          "primary's write rate; "
          "disarmed fault hooks tax a hot query <= {:.0%}; "
          "disarmed ordered locks tax a hot mutate+query loop <= {:.0%}; "
          "sharded fan-out beats single-core >= {}x at {} workers "
          "(or skipped on small machines)".format(
              SELECTIVE_SPEEDUP_FLOOR, PREFLIGHT_OVERHEAD_CEILING,
              PERSISTENCE_SPEEDUP_FLOOR, SERVICE_CACHE_SPEEDUP_FLOOR,
              REPLICA_APPLY_SPEEDUP_FLOOR, FAULT_HOOK_OVERHEAD_CEILING,
              LOCK_WITNESS_OVERHEAD_CEILING, PARALLEL_SPEEDUP_FLOOR,
              PARALLEL_WORKERS))
    if args.json:
        write_json_record(args.json, args, rows, parallel_record)


if __name__ == "__main__":
    main()
