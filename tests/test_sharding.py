"""Vertex-range sharding: partition structure, serial parity, determinism.

The pool-free half of the sharding test battery (its multiprocessing
sibling is ``tests/test_parallel.py``): range balancing, the per-shard CSR
slices against the global arrays, delta-overlay densification, the serial
executor's merge parity against the compact kernels and dict references
across shard counts {1, 2, 7}, and merge determinism.
"""

import random

import pytest

from repro.algorithms.digraph import DiGraph
from repro.algorithms.pagerank import pagerank as digraph_pagerank
from repro.engine.parallel import ParallelExecutor
from repro.graph.compact import adjacency_snapshot
from repro.graph.generators import uniform_random
from repro.graph.sharding import (
    ShardedSnapshot,
    live_ids_in_range,
    row_degrees,
    shard_ranges,
    sharded_snapshot,
)
from repro.rpq import lconcat, lstar, lunion, sym
from repro.rpq.evaluation import compile_rpq, rpq_pairs, rpq_pairs_basic

SHARD_COUNTS = (1, 2, 7)

EXPRESSIONS = {
    "chain": lconcat(sym("a"), sym("b")),
    "star": lconcat(sym("a"), lstar(sym("b"))),
    "union": lunion(lconcat(sym("a"), sym("b")), lstar(sym("c"))),
}


def small_graph(seed=11, vertices=120, edges=900):
    return uniform_random(vertices, edges, labels=("a", "b", "c"), seed=seed)


def reference_digraph(graph):
    """The MRG collapsed to a DiGraph with multiplicity weights — the dict
    pagerank reference for the executor's label-blind kernel."""
    weights = {}
    for e in graph.edge_set():
        weights[(e.tail, e.head)] = weights.get((e.tail, e.head), 0) + 1
    digraph = DiGraph()
    for v in graph.vertices():
        digraph.add_vertex(v)
    for (tail, head), weight in weights.items():
        digraph.add_edge(tail, head, float(weight))
    return digraph


class TestShardRanges:

    def test_ranges_partition_the_slot_space(self):
        degrees = [3, 0, 5, 1, 1, 0, 9, 2, 2, 1]
        for count in (1, 2, 3, 7, 10, 25):
            ranges = shard_ranges(degrees, count)
            assert ranges[0][0] == 0
            assert ranges[-1][1] == len(degrees)
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo
            assert len(ranges) == min(max(count, 1), len(degrees))
            assert all(hi > lo for lo, hi in ranges)

    def test_ranges_balance_by_degree_not_count(self):
        # One huge hub up front: the first shard should own few vertices.
        degrees = [1000] + [1] * 99
        ranges = shard_ranges(degrees, 4)
        lo, hi = ranges[0]
        assert hi - lo < 10
        assert ranges[-1][1] == 100

    def test_degenerate_inputs(self):
        assert shard_ranges([], 4) == [(0, 0)]
        assert shard_ranges([5], 4) == [(0, 1)]
        assert shard_ranges([1, 2, 3], 1) == [(0, 3)]


class TestShardedSnapshot:

    @pytest.mark.parametrize("count", SHARD_COUNTS)
    def test_shard_rows_match_the_global_csr(self, count):
        graph = small_graph()
        base = adjacency_snapshot(graph)
        sharded = ShardedSnapshot.build(base, count)
        assert sharded.num_shards == min(count, base.num_vertices)
        assert sum(s.num_edges for s in sharded.shards) == base.num_edges
        for (lo, hi), shard in zip(sharded.ranges, sharded.shards):
            assert shard.num_vertices == base.num_vertices
            for label_id in range(base.num_labels):
                for v in range(base.num_vertices):
                    expected = list(base.out_neighbors(v, label_id)) \
                        if lo <= v < hi else []
                    assert list(shard.out_neighbors(v, label_id)) == expected
                    reverse = list(shard.in_neighbors(v, label_id))
                    assert sorted(reverse) == sorted(
                        t for t in base.in_neighbors(v, label_id)
                        if lo <= t < hi)

    def test_interning_tables_are_shared_references(self):
        graph = small_graph()
        base = adjacency_snapshot(graph)
        sharded = ShardedSnapshot.build(base, 3)
        for shard in sharded.shards:
            assert shard.vertex_ids is base.vertex_ids
            assert shard.label_of is base.label_of

    def test_shard_for_owns_every_range_boundary(self):
        graph = small_graph()
        sharded = sharded_snapshot(graph, 4)
        for index, (lo, hi) in enumerate(sharded.ranges):
            for v in (lo, hi - 1):
                assert sharded.shard_for(v) == index
        with pytest.raises(IndexError):
            sharded.shard_for(sharded.num_vertices)
        with pytest.raises(IndexError):
            sharded.shard_for(-1)

    def test_cache_invalidation_by_version_and_count(self):
        graph = small_graph()
        first = sharded_snapshot(graph, 2)
        assert sharded_snapshot(graph, 2) is first
        assert sharded_snapshot(graph, 3) is not first
        again = sharded_snapshot(graph, 2)
        graph.add_edge(0, "a", 1)
        assert sharded_snapshot(graph, 2) is not again

    def test_overlay_build_densifies_and_matches_fresh_graph(self):
        graph = small_graph(seed=7)
        adjacency_snapshot(graph)  # base build, journal starts here
        rng = random.Random(5)
        vertices = sorted(graph.vertices())
        for step in range(12):
            tail = rng.choice(vertices)
            head = rng.choice(vertices)
            if graph.has_edge(tail, "a", head):
                graph.remove_edge(tail, "a", head)
            else:
                graph.add_edge(tail, "a", head)
        graph.add_vertex("fresh")
        graph.add_edge("fresh", "a", vertices[0])
        view = adjacency_snapshot(graph)
        # The overlay (or freshly compacted base) must shard into the same
        # edge multiset a rebuilt snapshot yields.
        sharded = ShardedSnapshot.build(view, 3)

        def edge_triples(snapshot_view, vertex_of):
            triples = set()
            for (lo, hi), shard in zip(sharded.ranges, sharded.shards):
                for label_id, label in enumerate(shard.label_of):
                    for v in range(lo, hi):
                        for n in shard.out_neighbors(v, label_id):
                            triples.add((vertex_of[v], label, vertex_of[n]))
            return triples

        expected = {(e.tail, e.label, e.head) for e in graph.edge_set()}
        assert edge_triples(sharded, sharded.vertex_of) == expected

    def test_live_ids_in_range_skips_tombstones(self):
        graph = small_graph(seed=3)
        adjacency_snapshot(graph)
        victim = sorted(graph.vertices())[4]
        graph.remove_vertex(victim)
        view = adjacency_snapshot(graph)
        if getattr(view, "dead_vertices", None):
            dead = next(iter(view.dead_vertices))
            ids = list(live_ids_in_range(view, 0, view.num_slots))
            assert dead not in ids
            assert len(ids) == view.num_slots - len(view.dead_vertices)


class TestSerialExecutorParity:
    """processes=1: the fan-out tasks and merge, in-process.

    The single-core half of the differential battery: sharded evaluation
    across {1, 2, 7} shards must equal the unsharded compact kernels and
    the dict references, including under delta overlays.
    """

    @pytest.mark.parametrize("count", SHARD_COUNTS)
    def test_rpq_pairs_matches_kernels_and_reference(self, count):
        graph = small_graph(seed=21)
        executor = ParallelExecutor(graph, processes=1, num_shards=count)
        for expression in EXPRESSIONS.values():
            dfa = compile_rpq(expression, graph)
            sharded_answer = executor.rpq_pairs(dfa)
            assert sharded_answer == rpq_pairs(graph, expression)
            assert sharded_answer == rpq_pairs_basic(graph, expression)
        executor.close()

    @pytest.mark.parametrize("count", SHARD_COUNTS)
    def test_rpq_pairs_with_endpoint_filters(self, count):
        graph = small_graph(seed=23)
        vertices = sorted(graph.vertices())
        sources = frozenset(vertices[::5])
        targets = frozenset(vertices[::7])
        expression = EXPRESSIONS["star"]
        dfa = compile_rpq(expression, graph)
        executor = ParallelExecutor(graph, processes=1, num_shards=count)
        got = executor.rpq_pairs(dfa, sources=sources, targets=targets)
        want = rpq_pairs(graph, expression, sources=sources, targets=targets)
        assert got == want
        assert executor.rpq_pairs(dfa, sources=frozenset()) == frozenset()
        executor.close()

    @pytest.mark.parametrize("count", SHARD_COUNTS)
    def test_rpq_parity_under_delta_overlays(self, count):
        graph = small_graph(seed=29)
        expression = EXPRESSIONS["star"]
        adjacency_snapshot(graph)
        rng = random.Random(31)
        vertices = sorted(graph.vertices())
        executor = ParallelExecutor(graph, processes=1, num_shards=count)
        for step in range(8):
            tail, head = rng.choice(vertices), rng.choice(vertices)
            if graph.has_edge(tail, "b", head):
                graph.remove_edge(tail, "b", head)
            else:
                graph.add_edge(tail, "b", head)
            dfa = compile_rpq(expression, graph)
            assert executor.rpq_pairs(dfa) == \
                rpq_pairs_basic(graph, expression)
        executor.close()

    @pytest.mark.parametrize("count", SHARD_COUNTS)
    def test_pagerank_matches_dict_reference(self, count):
        graph = small_graph(seed=37)
        executor = ParallelExecutor(graph, processes=1, num_shards=count)
        ranks = executor.pagerank(tolerance=1.0e-12)
        reference = digraph_pagerank(reference_digraph(graph),
                                     tolerance=1.0e-12)
        assert set(ranks) == set(reference)
        assert max(abs(ranks[v] - reference[v]) for v in ranks) < 1.0e-8
        assert abs(sum(ranks.values()) - 1.0) < 1.0e-9
        executor.close()

    def test_pagerank_personalization_and_errors(self):
        graph = small_graph(seed=41)
        executor = ParallelExecutor(graph, processes=1, num_shards=2)
        favourite = sorted(graph.vertices())[0]
        ranks = executor.pagerank(personalization={favourite: 1.0},
                                  tolerance=1.0e-10)
        reference = digraph_pagerank(reference_digraph(graph),
                                     personalization={favourite: 1.0},
                                     tolerance=1.0e-10)
        assert max(abs(ranks[v] - reference[v]) for v in ranks) < 1.0e-8
        from repro.errors import AlgorithmError, ConvergenceError
        with pytest.raises(AlgorithmError):
            executor.pagerank(damping=1.5)
        with pytest.raises(AlgorithmError):
            executor.pagerank(personalization={favourite: 0.0})
        with pytest.raises(ConvergenceError):
            executor.pagerank(max_iterations=1, tolerance=0.0)
        executor.close()

    def test_bfs_batch_matches_digraph(self):
        from repro.errors import VertexNotFoundError
        rng = random.Random(43)
        digraph = DiGraph()
        for v in range(150):
            digraph.add_vertex(v)
        while digraph.size() < 1200:
            digraph.add_edge(rng.randrange(150), rng.randrange(150))
        sources = list(range(0, 150, 4))
        executor = ParallelExecutor(digraph, processes=1)
        got = executor.bfs_distances(sources)
        assert got == {s: digraph.bfs_distances(s) for s in sources}
        with pytest.raises(VertexNotFoundError):
            executor.bfs_distances([0, 999])  # same contract as the serial API
        executor.close()


class TestMergeDeterminism:

    def test_rpq_identical_across_shard_counts(self):
        graph = small_graph(seed=47)
        expression = EXPRESSIONS["union"]
        dfa = compile_rpq(expression, graph)
        answers = set()
        for count in SHARD_COUNTS:
            executor = ParallelExecutor(graph, processes=1, num_shards=count)
            answers.add(executor.rpq_pairs(dfa))
            executor.close()
        assert len(answers) == 1

    def test_pagerank_bitwise_stable_per_shard_count(self):
        graph = small_graph(seed=53)
        for count in SHARD_COUNTS:
            executor = ParallelExecutor(graph, processes=1, num_shards=count)
            first = executor.pagerank(tolerance=1.0e-12)
            second = executor.pagerank(tolerance=1.0e-12)
            assert first == second  # bit-identical, not just close
            executor.close()

    def test_pagerank_agrees_across_shard_counts(self):
        graph = small_graph(seed=59)
        results = []
        for count in SHARD_COUNTS:
            executor = ParallelExecutor(graph, processes=1, num_shards=count)
            results.append(executor.pagerank(tolerance=1.0e-12))
            executor.close()
        for other in results[1:]:
            assert max(abs(results[0][v] - other[v])
                       for v in results[0]) < 1.0e-9

