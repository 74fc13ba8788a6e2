"""The parallel fan-out executor: real worker pools, merge parity, reuse.

The multiprocessing half of the fan-out battery (the pool-free half is
``tests/test_sharding.py``): the tests here fork workers (two unless a
test asks for more, to stay CI-friendly; one seed range per worker) and
assert that fanned-out evaluation equals the single-core compact kernels
and dict references across {1, 2, 7} workers and under delta overlays,
that one executor survives graph mutations (stale state invalidated by
``version()``), and that the engine-level plumbing (``pairs``,
``pairs_batch``, ``cache_stats``, EXPLAIN) routes through it
correctly.

Forced low thresholds (``min_edges=0``) keep the graphs small; platforms
without the ``fork`` start method skip the pool-backed tests — the serial
fallback they would degrade to is covered by the sibling module.
"""

import random
import sys

import pytest

from repro.engine import Engine
from repro.engine.parallel import ParallelExecutor, fork_available
from repro.graph.compact import _SHARED_BATCH, adjacency_snapshot
from repro.graph.generators import uniform_random
from repro.rpq import lconcat, lstar, sym
from repro.rpq.evaluation import compile_rpq, rpq_pairs, rpq_pairs_basic

needs_fork = pytest.mark.skipif(
    not fork_available(),
    reason="inline worker mode needs the fork start method")

STAR = lconcat(sym("a"), lstar(sym("b")))


def small_graph(seed=11, vertices=150, edges=1100):
    return uniform_random(vertices, edges, labels=("a", "b", "c"), seed=seed)


def pool_executor(graph, **kwargs):
    kwargs.setdefault("processes", 2)
    kwargs.setdefault("min_edges", 0)
    return ParallelExecutor(graph, **kwargs)


@needs_fork
class TestParallelDifferential:

    @pytest.mark.parametrize("count", (1, 2, 7))
    def test_rpq_matches_kernels_and_reference_under_churn(self, count):
        graph = small_graph(seed=3)
        adjacency_snapshot(graph)
        rng = random.Random(7)
        vertices = sorted(graph.vertices())
        with pool_executor(graph, processes=count) as executor:
            for step in range(5):
                tail, head = rng.choice(vertices), rng.choice(vertices)
                if graph.has_edge(tail, "b", head):
                    graph.remove_edge(tail, "b", head)
                else:
                    graph.add_edge(tail, "b", head)
                dfa = compile_rpq(STAR, graph)
                answer = executor.rpq_pairs(dfa)
                assert answer == rpq_pairs(graph, STAR)
                assert answer == rpq_pairs_basic(graph, STAR)

    def test_parallel_equals_serial_with_filters(self):
        graph = small_graph(seed=13)
        vertices = sorted(graph.vertices())
        sources = frozenset(vertices[::3])
        targets = frozenset(vertices[::5])
        dfa = compile_rpq(STAR, graph)
        with pool_executor(graph, processes=3) as parallel:
            got = parallel.rpq_pairs(dfa, sources=sources, targets=targets)
        serial = ParallelExecutor(graph, processes=3, min_edges=sys.maxsize)
        assert got == serial.rpq_pairs(dfa, sources=sources, targets=targets)
        serial.close()

    def test_worker_ranges_wider_than_a_shared_batch(self):
        # Two workers over > 2 batches of sources: each ("range", lo, hi)
        # slice is swept as several mask batches inside its worker.
        graph = uniform_random(2 * _SHARED_BATCH + 150, 2600,
                               labels=("a", "b", "c"), seed=17)
        dfa = compile_rpq(STAR, graph)
        with pool_executor(graph) as executor:
            answer = executor.rpq_pairs(dfa)
            stats = executor.stats()
            assert stats["pool_live"] and not stats["serial_fallbacks"]
        assert answer == rpq_pairs_basic(graph, STAR)

    def test_more_shards_and_processes_than_vertices(self):
        # shard_ranges clamps to the vertex count: 4 seed ranges over 3
        # vertices run as 3 tasks on a 4-worker pool.
        graph = uniform_random(3, 4, labels=("a",), seed=89)
        expression = lstar(sym("a"))
        dfa = compile_rpq(expression, graph)
        with pool_executor(graph, processes=4) as executor:
            assert executor.rpq_pairs(dfa) == rpq_pairs(graph, expression)
            stats = executor.stats()
            assert stats["pool_live"] and not stats["serial_fallbacks"]


@needs_fork
class TestPoolLifecycle:

    def test_one_executor_survives_graph_mutations(self):
        """Fork safety: a stale snapshot is invalidated by version()."""
        graph = small_graph(seed=23)
        with pool_executor(graph) as executor:
            for step in range(4):
                dfa = compile_rpq(STAR, graph)
                assert executor.rpq_pairs(dfa) == \
                    rpq_pairs_basic(graph, STAR)
                stats = executor.stats()
                assert stats["pool_live"] and not stats["serial_fallbacks"]
                graph.add_edge("m{}".format(step), "a",
                               sorted(graph.vertices(), key=repr)[0])

    def test_stale_inline_pool_is_replaced_not_reused(self):
        graph = small_graph(seed=29)
        with pool_executor(graph) as executor:
            dfa = compile_rpq(STAR, graph)
            executor.rpq_pairs(dfa)
            first_key = executor._pool_key
            graph.add_edge(0, "a", 1)
            executor.rpq_pairs(compile_rpq(STAR, graph))
            assert executor._pool_key != first_key

    def test_concurrent_executors_do_not_cross_payloads(self):
        graph_a = small_graph(seed=31)
        graph_b = small_graph(seed=37, vertices=80, edges=500)
        dfa_a = compile_rpq(STAR, graph_a)
        dfa_b = compile_rpq(STAR, graph_b)
        with pool_executor(graph_a) as a, pool_executor(graph_b) as b:
            assert a.rpq_pairs(dfa_a) == rpq_pairs_basic(graph_a, STAR)
            assert b.rpq_pairs(dfa_b) == rpq_pairs_basic(graph_b, STAR)
            assert a.rpq_pairs(dfa_a) == rpq_pairs_basic(graph_a, STAR)

    def test_close_is_idempotent_and_releases_payload(self):
        from repro.engine import parallel as parallel_module
        graph = small_graph(seed=41)
        executor = pool_executor(graph)
        executor.rpq_pairs(compile_rpq(STAR, graph))
        token = executor._token
        assert token in parallel_module._FORK_PAYLOADS
        executor.close()
        executor.close()
        assert token not in parallel_module._FORK_PAYLOADS

    def test_close_joins_live_pool_without_terminate(self):
        """PR 7 regression: close() used to go straight to terminate(),
        killing workers mid-write.  A live idle pool must drain via
        close()/join(); terminate() is only the timeout fallback."""
        graph = small_graph(seed=47)
        executor = pool_executor(graph)
        executor.rpq_pairs(compile_rpq(STAR, graph))
        pool = executor._pool
        assert pool is not None
        terminated = []
        original_terminate = pool.terminate
        pool.terminate = lambda: (terminated.append(True),
                                  original_terminate())[-1]
        executor.close()
        assert terminated == []
        assert executor._pool is None

    def test_engine_close_releases_pool_idempotently(self):
        """Engine.close() with a live pool is graceful and repeatable."""
        graph = small_graph(seed=53)
        engine = Engine(graph)
        answer = engine.pairs("[_, a, _] . [_, b, _]*", processes=2)
        assert answer == rpq_pairs_basic(graph, STAR)
        engine.close()
        engine.close()
        # The engine stays usable for serial evaluation after close.
        assert engine.pairs("[_, a, _] . [_, b, _]*") == answer


@needs_fork
class TestEnginePlumbing:

    QUERY = "[_, a, _] . [_, b, _]*"

    def test_pairs_with_processes_matches_serial(self):
        graph = small_graph(seed=47)
        engine = Engine(graph)
        try:
            want = engine.pairs(self.QUERY)
            assert engine.pairs(self.QUERY, processes=2) == want
            assert engine.pairs(self.QUERY, processes=1) == want
        finally:
            engine.close()

    def test_reads_naming_different_processes_share_one_pool(self):
        # A read naming another ``processes`` used to close the executor
        # a concurrent read was fanning out on ("worker holds no payload
        # ... (stale pool?)").  One pool per engine: ``processes`` only
        # sets how many seed ranges a read splits into.
        import threading
        graph = uniform_random(600, 4000, labels=("a", "b"), seed=3)
        engine = Engine(graph)
        want = rpq_pairs_basic(graph, lconcat(sym("a"), sym("b")))
        # Fork the pool before the threads start: a fork racing another
        # thread can inherit a lock it holds.
        assert engine.pairs("[_, a, _] . [_, b, _]", processes=2) == want
        # Forked at the default size, not at the first caller's count.
        assert engine._parallel.processes == ParallelExecutor(graph).processes
        errors, executors = [], set()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two readers finely

        def reader(processes):
            try:
                for _ in range(15):
                    assert engine.pairs("[_, a, _] . [_, b, _]",
                                        processes=processes) == want
                    executors.add(id(engine._parallel))
            except Exception as exc:  # the race's symptom
                errors.append(exc)

        try:
            threads = [threading.Thread(target=reader, args=(processes,),
                                        daemon=True)
                       for processes in (2, 3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads), \
            "a read is wedged on a torn-down pool"
        engine.close()
        assert errors == []
        assert len(executors) == 1

    def test_pairs_batch_keeps_order_and_parity(self):
        graph = small_graph(seed=53)
        queries = [self.QUERY, "[_, c, _]", "[0, a, _] . [_, b, _]*",
                   self.QUERY]
        engine = Engine(graph)
        try:
            want = [engine.pairs(q) for q in queries]
            got = engine.pairs_batch(queries, processes=2)
            assert got == want
            assert engine.pairs_batch(queries) == want
        finally:
            engine.close()

    def test_deadline_batch_goes_item_by_item_through_public_pairs(self):
        # AsyncEngine checks the budget between members, with or without
        # a deadline, so it must keep calling the public Engine.pairs
        # (which tests and operators wrap), never the batch loop.
        import asyncio

        from repro.service import AsyncEngine
        graph = small_graph(seed=53)
        queries = [self.QUERY, "[_, c, _]", "[0, a, _] . [_, b, _]*"]
        engine = Engine(graph)
        want = [engine.pairs(q) for q in queries]
        seen = []
        original = engine.pairs

        def public_pairs(expression, **options):
            seen.append(options["processes"])
            return original(expression, **options)

        engine.pairs = public_pairs
        engine.pairs_batch = None  # a batch is its members' reads

        async def run(deadline):
            async with AsyncEngine(engine, max_workers=2) as service:
                return await service.pairs_batch(queries, processes=1,
                                                 deadline=deadline)

        for deadline in (30.0, None):
            seen.clear()
            assert asyncio.run(run(deadline)) == want, deadline
            assert seen == [1] * len(queries), deadline

    def test_explain_reports_parallelism_and_caches(self):
        graph = small_graph(seed=61)
        engine = Engine(graph)
        try:
            text = engine.explain(self.QUERY, processes=2)
            assert "pairs parallelism: parallel, 2 process(es) " \
                   "(explicit processes=2)" in text
            assert "shard" not in text
            assert "caches: dfa" in text
            text = engine.explain(self.QUERY)
            assert "pairs parallelism:" in text
            selective = engine.explain(
                "[0, a, _] . [_, b, _]*",
                sources=frozenset([0]), processes=2)
            assert "single-core" in selective or "n/a" in selective
        finally:
            engine.close()

    def test_cache_stats_shape(self):
        from repro.engine import QueryCache
        graph = small_graph(seed=67)
        engine = Engine(graph, cache=QueryCache(capacity=4))
        try:
            engine.query(self.QUERY, strategy="automaton", max_length=2)
            engine.query(self.QUERY, strategy="automaton", max_length=2)
            stats = engine.cache_stats()
            assert set(stats) == {"dfa_cache", "query_cache"}
            assert stats["query_cache"]["hits"] == 1
            assert stats["query_cache"]["capacity"] == 4
            assert stats["dfa_cache"]["capacity"] == Engine._DFA_CACHE_CAP
            uncached = Engine(graph)
            assert uncached.cache_stats()["query_cache"] is None
        finally:
            engine.close()


class TestSerialFallbackEverywhere:
    """The executor must answer correctly even where pools cannot run."""

    def test_processes_one_never_forks(self):
        graph = small_graph(seed=71)
        executor = ParallelExecutor(graph, processes=1)
        dfa = compile_rpq(STAR, graph)
        assert executor.rpq_pairs(dfa) == rpq_pairs_basic(graph, STAR)
        assert executor._pool is None
        executor.close()

    def test_tiny_graph_stays_serial_despite_processes(self):
        graph = uniform_random(20, 60, labels=("a", "b"), seed=73)
        executor = ParallelExecutor(graph, processes=2)  # default min_edges
        dfa = compile_rpq(STAR, graph)
        assert executor.rpq_pairs(dfa) == rpq_pairs_basic(graph, STAR)
        assert executor._pool is None
        executor.close()

