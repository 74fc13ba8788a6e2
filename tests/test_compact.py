"""Equivalence and lifecycle tests for the compact adjacency backend.

Every compact kernel must agree exactly with its seed (hash-index / dict)
reference implementation on random generated graphs — the compact backend
is a performance representation, never a semantic change.
"""

import operator
import pickle
import random
from collections.abc import Set
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.components import (
    _weakly_connected_components_unionfind,
    weakly_connected_components,
)
from repro.algorithms.digraph import DiGraph
from repro.algorithms.pagerank import pagerank
from repro.engine import Engine
from repro.engine.executor import endpoint_pairs
from repro.engine.parallel import fork_available
from repro.graph import compact
from repro.graph.compact import (
    HAVE_NUMPY,
    Guard,
    adjacency_snapshot,
    digraph_snapshot,
    rpq_pairs_on_snapshot,
)
from repro.graph.pairs import PairBlocks
from repro.graph.generators import (
    cycle_graph,
    layered_graph,
    preferential_attachment,
    uniform_random,
)
from repro.rpq import (
    lconcat,
    lstar,
    lunion,
    rpq_pairs,
    rpq_pairs_basic,
    rpq_pairs_between,
    rpq_pairs_to_targets,
    rpq_paths,
    sym,
)
from repro.rpq.evaluation import compile_rpq

EXPRESSIONS = [
    lconcat(sym("alpha"), sym("beta")),
    lconcat(sym("alpha"), lstar(sym("beta"))),
    lunion(lconcat(sym("alpha"), sym("beta")), lstar(sym("gamma"))),
    lstar(lunion(sym("alpha"), sym("beta"))),
]

GRAPHS = [
    uniform_random(40, 200, seed=3),
    uniform_random(80, 240, seed=11),
    preferential_attachment(60, edges_per_vertex=3, seed=7),
    layered_graph(4, 6, seed=9, connection_probability=0.5),
    cycle_graph(12, labels=("alpha",)),
]


class TestCompactAdjacencySnapshot:
    def test_neighbors_match_graph_indices(self):
        graph = uniform_random(30, 150, seed=1)
        snapshot = adjacency_snapshot(graph)
        for vertex in graph.vertices():
            vid = snapshot.vertex_ids[vertex]
            for label in graph.labels():
                lid = snapshot.label_ids[label]
                out = {snapshot.vertex_of[n]
                       for n in snapshot.out_neighbors(vid, lid)}
                assert out == set(graph.successors(vertex, label))
                into = {snapshot.vertex_of[n]
                        for n in snapshot.in_neighbors(vid, lid)}
                assert into == set(graph.predecessors(vertex, label))

    def test_snapshot_is_cached_until_mutation(self):
        graph = uniform_random(20, 60, seed=2)
        first = adjacency_snapshot(graph)
        assert adjacency_snapshot(graph) is first
        graph.add_edge("fresh", "alpha", "fresh2")
        second = adjacency_snapshot(graph)
        assert second is not first
        assert second.version == graph.version()
        assert "fresh" in second.vertex_ids

    def test_snapshot_covers_isolated_vertices(self):
        graph = uniform_random(10, 20, seed=4)
        graph.add_vertex("loner")
        snapshot = adjacency_snapshot(graph)
        assert "loner" in snapshot.vertex_ids
        assert snapshot.num_vertices == graph.order()

    def test_snapshot_reflects_removals(self):
        graph = cycle_graph(5, labels=("alpha",))
        adjacency_snapshot(graph)
        graph.remove_vertex(0)
        snapshot = adjacency_snapshot(graph)
        assert 0 not in snapshot.vertex_ids
        assert snapshot.num_edges == graph.size()


class TestRpqPairsEquivalence:
    @pytest.mark.parametrize("index", range(len(GRAPHS)))
    def test_all_sources_agree_with_reference(self, index):
        graph = GRAPHS[index]
        for expression in EXPRESSIONS:
            assert rpq_pairs(graph, expression) == \
                rpq_pairs_basic(graph, expression)

    def test_source_subsets_agree_with_reference(self):
        graph = uniform_random(50, 250, seed=21)
        rng = random.Random(0)
        vertices = sorted(graph.vertices(), key=repr)
        for expression in EXPRESSIONS:
            sources = frozenset(rng.sample(vertices, 12))
            assert rpq_pairs(graph, expression, sources=sources) == \
                rpq_pairs_basic(graph, expression, sources=sources)

    def test_unknown_sources_are_skipped(self):
        graph = uniform_random(20, 60, seed=5)
        sources = frozenset({"not-a-vertex", 0, 1})
        for expression in EXPRESSIONS:
            assert rpq_pairs(graph, expression, sources=sources) == \
                rpq_pairs_basic(graph, expression, sources=sources)

    def test_unknown_labels_never_fire(self):
        graph = uniform_random(15, 40, labels=("alpha",), seed=6)
        expression = lconcat(sym("alpha"), sym("no_such_label"))
        assert rpq_pairs(graph, expression) == \
            rpq_pairs_basic(graph, expression) == frozenset()

    def test_empty_graph(self):
        graph = uniform_random(3, 0, seed=0)
        assert rpq_pairs(graph, lstar(sym("alpha"))) == \
            rpq_pairs_basic(graph, lstar(sym("alpha")))

    def test_mutation_between_queries_is_respected(self):
        graph = cycle_graph(6, labels=("alpha",))
        expression = lstar(sym("alpha"))
        before = rpq_pairs(graph, expression)
        graph.remove_vertex(0)
        after = rpq_pairs(graph, expression)
        assert after == rpq_pairs_basic(graph, expression)
        assert after != before


OPERATORS = (operator.and_, operator.or_, operator.sub, operator.xor,
             operator.le, operator.lt, operator.ge, operator.gt,
             operator.eq, operator.ne)
METHODS = ("union", "intersection", "difference", "symmetric_difference",
           "issubset", "issuperset", "isdisjoint")


def assert_reads_like(answer, expected):
    """``answer`` (a PairBlocks) is, to every read the contract names, the
    reference ``frozenset`` ``expected``."""
    assert isinstance(answer, Set) and type(expected) is frozenset
    assert len(answer) == len(expected)
    walked = list(answer)
    assert len(walked) == len(set(walked)) and set(walked) == expected
    assert sorted(answer, key=repr) == sorted(expected, key=repr)
    answer.memo = b"derived"
    copy = pickle.loads(pickle.dumps(answer))
    assert type(copy) is PairBlocks and copy == expected
    assert getattr(copy, "memo", None) is None  # as CachedPairs dropped it
    assert all(pair in answer for pair in expected)
    assert ("no", "such") not in answer
    assert answer == expected and expected == answer
    assert hash(answer) == hash(expected) and {answer: 1}[expected] == 1
    overlapping = frozenset(walked[::2]) | {("no", "such")}
    for other in (overlapping, PairBlocks.from_pairs(overlapping), expected):
        plain = frozenset(other)
        for op in OPERATORS:
            assert op(answer, other) == op(expected, plain), op
            assert op(other, answer) == op(plain, expected), op
        for name in METHODS:
            assert getattr(answer, name)(other) \
                == getattr(expected, name)(plain), name
    assert answer.union(overlapping, [("x", "y")]) \
        == expected.union(overlapping, [("x", "y")])
    assert type(answer | overlapping) is frozenset
    with pytest.raises(TypeError):
        answer | [("x", "y")]


def reference_pairs(graph, expression, sources, targets):
    return frozenset(pair for pair in rpq_pairs_basic(graph, expression,
                                                      sources=sources)
                     if pair[1] in targets)


@st.composite
def disjoint_blocks(draw):
    """Random blocks that cannot overlap: block ``k`` owns the first
    members ``(k, i)``; a zip block unzips a drawn set of distinct pairs."""
    blocks = []
    for k in range(draw(st.integers(0, 5))):
        firsts = [(k, i) for i in range(draw(st.integers(0, 6)))]
        if draw(st.booleans()):
            seconds = draw(st.lists(st.integers(0, 9), unique=True))
            blocks.append((firsts, seconds, True))
        elif firsts:
            pairs = draw(st.sets(st.tuples(st.sampled_from(firsts),
                                           st.integers(0, 9))))
            blocks.append(([f for f, _ in pairs], [s for _, s in pairs],
                           False))
    return blocks


class TestPairBlocks:
    """The answer type: blocks to the kernels, a frozenset to readers."""

    @given(disjoint_blocks())
    @settings(max_examples=40, deadline=None)
    def test_random_blocks_read_like_their_frozenset(self, blocks):
        expected = frozenset(
            pair for firsts, seconds, crossed in blocks
            for pair in ([(f, s) for f in firsts for s in seconds]
                         if crossed else zip(firsts, seconds)))
        answer = PairBlocks(blocks)
        assert not answer.materialised
        assert_reads_like(answer, expected)
        assert answer.materialised

    # Seed counts on both sides of the shared-sweep floor (16) and, with
    # the batch width patched down to 7, of several batch boundaries.
    @given(graph=st.sampled_from(GRAPHS[:4]),
           expression=st.sampled_from(EXPRESSIONS),
           route=st.sampled_from(("forward", "backward", "bidirectional",
                                  "max_length")),
           seeds=st.sampled_from((1, 15, 16, 17, 40)),
           batch=st.sampled_from((7, 1024)), pick=st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_every_route_reads_like_the_reference(self, graph, expression,
                                                  route, seeds, batch, pick):
        vertices = sorted(graph.vertices(), key=repr)
        chosen = frozenset(pick.sample(vertices, min(seeds, len(vertices))))
        others = frozenset(pick.sample(vertices, len(vertices) // 2))
        with mock.patch.object(compact, "_SHARED_BATCH", batch):
            if route == "forward":
                answer = rpq_pairs(graph, expression, sources=chosen,
                                   targets=others)
                expected = reference_pairs(graph, expression, chosen, others)
            elif route == "backward":
                answer = rpq_pairs_to_targets(graph, expression,
                                              targets=chosen, sources=others)
                expected = reference_pairs(graph, expression, others, chosen)
            elif route == "bidirectional":
                answer = rpq_pairs_between(graph, expression, chosen, others)
                expected = reference_pairs(graph, expression, chosen, others)
            else:
                engine = Engine(graph)
                query = "[_, alpha, _] . [_, beta, _]*"
                answer = engine.pairs(query, sources=chosen, max_length=3)
                expected = endpoint_pairs(
                    engine.query(query, strategy="automaton",
                                 max_length=3).paths,
                    engine.compile(query), graph, sources=chosen)
        assert_reads_like(answer, expected)

    @pytest.mark.skipif(not fork_available(),
                        reason="inline worker mode needs fork")
    def test_fan_out_concatenates_what_the_workers_pickled(self):
        graph = uniform_random(1100, 3300, seed=5)  # two shared batches
        query = "[_, alpha, _] . [_, beta, _]*"
        engine = Engine(graph)
        try:
            serial = engine.pairs(query, processes=1)
            fanned = engine.pairs(query, processes=2)
            few = frozenset(sorted(graph.vertices())[:40])
            assert engine.pairs(query, sources=few, processes=2) \
                == engine.pairs(query, sources=few, processes=1)
        finally:
            engine.close()
        assert not serial.materialised and not fanned.materialised
        assert len(fanned) == len(serial) == len(set(fanned))
        assert_reads_like(fanned, frozenset(serial))
        sample = frozenset(sorted(graph.vertices())[::37])
        assert frozenset(p for p in serial if p[0] in sample) \
            == rpq_pairs_basic(graph, EXPRESSIONS[1], sources=sample)

    @pytest.mark.parametrize("count", (5, 15, 16, 33))
    def test_repeated_and_unordered_source_ids_count_once(self, count):
        graph = GRAPHS[1]
        snapshot = adjacency_snapshot(graph)
        ids = list(snapshot.live_vertex_ids())[:count]
        shuffled = ids[::-1] + ids[::2] + ids
        for expression in EXPRESSIONS:
            dfa = compile_rpq(expression, graph)
            want = rpq_pairs_basic(
                graph, expression,
                sources=[snapshot.vertex_of[i] for i in ids])
            for source_ids in (shuffled, tuple(shuffled), iter(shuffled)):
                answer = rpq_pairs_on_snapshot(snapshot, dfa,
                                               source_ids=source_ids)
                assert len(answer) == len(set(answer)) == len(want)
                assert answer == want


def _rpq_paths_reference(graph, expression, max_length, sources=None):
    """The seed rpq_paths, with its (redundant) path-carrying seen set."""
    from collections import deque

    from repro.core.path import EPSILON, Path
    from repro.core.pathset import PathSet
    from repro.rpq.evaluation import compile_rpq

    dfa = compile_rpq(expression, graph)
    start_vertices = graph.vertices() if sources is None else sources
    out = set()
    queue = deque()
    seen = set()
    for source in start_vertices:
        if not graph.has_vertex(source):
            continue
        config = (source, dfa.start, EPSILON)
        seen.add(config)
        queue.append(config)
        if dfa.start in dfa.accepting:
            out.add(EPSILON)
    while queue:
        vertex, state, path = queue.popleft()
        if len(path) >= max_length:
            continue
        for e in graph.match(tail=vertex):
            next_state = dfa.step(state, e.label)
            if next_state is None:
                continue
            grown = path.concat(Path((e,)))
            config = (e.head, next_state, grown)
            if config in seen:
                continue
            seen.add(config)
            if next_state in dfa.accepting:
                out.add(grown)
            queue.append(config)
    return PathSet(out)


class TestRpqPathsNoSeenSet:
    """The seen set was pure memory overhead: results must be unchanged."""

    @pytest.mark.parametrize("index", range(len(GRAPHS)))
    def test_results_match_seed_reference(self, index):
        graph = GRAPHS[index]
        for expression in EXPRESSIONS:
            assert rpq_paths(graph, expression, 4) == \
                _rpq_paths_reference(graph, expression, 4)

    def test_diamond_fanout_counts_every_witness_once(self):
        # k stacked diamonds: exactly 2^k distinct witness paths, and the
        # BFS (with no dedup set at all) must enumerate each exactly once.
        from repro.graph.graph import MultiRelationalGraph
        k = 6
        g = MultiRelationalGraph()
        for layer in range(k):
            g.add_edge(("v", layer), "alpha", ("u", layer, 0))
            g.add_edge(("v", layer), "alpha", ("u", layer, 1))
            g.add_edge(("u", layer, 0), "alpha", ("v", layer + 1))
            g.add_edge(("u", layer, 1), "alpha", ("v", layer + 1))
        paths = rpq_paths(g, lstar(sym("alpha")), 2 * k,
                          sources=frozenset({("v", 0)}))
        full = [p for p in paths if len(p) == 2 * k]
        assert len(full) == 2 ** k


@pytest.mark.skipif(not HAVE_NUMPY, reason="vectorized kernels need numpy")
class TestCompactDiGraphKernels:
    @pytest.fixture(scope="class")
    def digraph(self):
        rng = random.Random(99)
        graph = DiGraph()
        for v in range(300):
            graph.add_vertex(v)
        while graph.size() < 1500:
            graph.add_edge(rng.randrange(300), rng.randrange(300),
                           rng.choice((0.5, 1.0, 2.0)))
        # A detached island plus isolated vertices exercise multi-component
        # code paths.
        graph.add_edge("island-a", "island-b")
        graph.add_edge("island-b", "island-c")
        graph.add_vertex("alone")
        return graph

    def test_digraph_is_above_fast_path_threshold(self, digraph):
        assert digraph.order() >= DiGraph._COMPACT_MIN_ORDER

    def test_bfs_distances_matches_dict_bfs(self, digraph):
        for source in [0, 17, 123, "island-a", "alone"]:
            assert digraph.bfs_distances(source) == \
                digraph._bfs_distances_dict(source)

    def test_components_match_union_find(self, digraph):
        assert weakly_connected_components(digraph) == \
            _weakly_connected_components_unionfind(digraph)

    def test_pagerank_matches_dict_fallback(self, digraph):
        fast = pagerank(digraph)
        original = DiGraph._COMPACT_MIN_ORDER
        DiGraph._COMPACT_MIN_ORDER = digraph.order() + 1
        try:
            slow = pagerank(digraph)
        finally:
            DiGraph._COMPACT_MIN_ORDER = original
        assert set(fast) == set(slow)
        assert max(abs(fast[v] - slow[v]) for v in fast) < 1.0e-9

    def test_pagerank_personalized_matches_dict_fallback(self, digraph):
        seeds = {0: 2.0, 17: 1.0, "missing-vertex": 1.0}
        fast = pagerank(digraph, personalization=seeds)
        original = DiGraph._COMPACT_MIN_ORDER
        DiGraph._COMPACT_MIN_ORDER = digraph.order() + 1
        try:
            slow = pagerank(digraph, personalization=seeds)
        finally:
            DiGraph._COMPACT_MIN_ORDER = original
        assert max(abs(fast[v] - slow[v]) for v in fast) < 1.0e-9

    def test_digraph_snapshot_invalidated_by_mutation(self):
        graph = DiGraph((i, i + 1) for i in range(10))
        first = digraph_snapshot(graph)
        assert digraph_snapshot(graph) is first
        graph.add_edge(3, 9)
        second = digraph_snapshot(graph)
        assert second is not first
        assert second.version == graph.version()


class TestEnginePairsFastPath:
    @pytest.fixture(scope="class")
    def engine(self):
        from repro.engine import Engine
        return Engine(uniform_random(40, 200, seed=33))

    def test_label_only_query_matches_reference(self, engine):
        query = "[_, alpha, _] . [_, beta, _]*"
        expected = rpq_pairs_basic(
            engine.graph, lconcat(sym("alpha"), lstar(sym("beta"))))
        assert engine.pairs(query) == expected

    def test_sources_filter(self, engine):
        sources = frozenset(list(engine.graph.vertices())[:7])
        query = "[_, alpha, _]*"
        expected = rpq_pairs_basic(engine.graph, lstar(sym("alpha")),
                                   sources=sources)
        assert engine.pairs(query, sources=sources) == expected

    def test_fallback_for_vertex_bound_atoms(self, engine):
        vertex = next(iter(engine.graph.vertices()))
        query_pairs = engine.pairs("[{}, alpha, _]".format(vertex))
        assert all(tail == vertex for tail, _ in query_pairs)
        expected = {(e.tail, e.head)
                    for e in engine.graph.match(tail=vertex, label="alpha")}
        assert query_pairs == frozenset(expected)

    def test_explicit_max_length_bounds_even_label_only_queries(self):
        from repro.engine import Engine
        from repro.graph.graph import MultiRelationalGraph
        chain = MultiRelationalGraph([("v1", "a", "v2"), ("v2", "a", "v3")])
        engine = Engine(chain)
        unbounded = engine.pairs("[_, a, _] . [_, a, _]*")
        assert ("v1", "v3") in unbounded
        bounded = engine.pairs("[_, a, _] . [_, a, _]*", max_length=1)
        assert ("v1", "v3") not in bounded
        assert ("v1", "v2") in bounded

    def test_explain_reports_eligibility(self, engine):
        eligible = engine.explain("[_, alpha, _] . [_, beta, _]")
        assert "pairs fast path: eligible" in eligible
        assert "pairs direction:" in eligible
        bound = engine.explain("[3, alpha, _]")
        assert "pairs fast path: eligible" in bound
        assert "guards [3, alpha, _]; source=3 is the seed set" in bound
        # An interior binding rides the DFA as a guard and pins no end.
        interior = engine.explain("[_, alpha, 3] . [_, beta, _]")
        assert "guards [_, alpha, 3]; none pins a path end" in interior
        # A product rides the DFA as a jump, a literal as a pinned move.
        product = engine.explain("[_, alpha, 3] & {(3, beta, 4)}")
        assert "pairs fast path: eligible" in product
        assert "pinned moves {3..4: 1 edge(s)}; a product's jump" in product
        assert "pairs direction:" in product


class TestLowerToLabelExpression:
    def test_round_trip_with_lift(self):
        from repro.rpq import lift_to_edge_expression, lower_to_label_expression
        for expression in EXPRESSIONS:
            lifted = lift_to_edge_expression(expression)
            lowered = lower_to_label_expression(lifted)
            assert lowered is not None
            # Equivalent by construction: identical pair answers everywhere.
            for graph in GRAPHS[:2]:
                assert rpq_pairs(graph, lowered) == rpq_pairs(graph, expression)

    def test_lowers_literals_products_and_repeats(self):
        from repro.errors import ExecutionError, QueryTooLargeError
        from repro.graph.compact import ENTER, LEAVE, Pinned
        from repro.regex import atom, join, literal
        from repro.rpq import lconcat, lower_to_label_expression
        # A vertex-bound atom lowers to a guarded symbol ...
        assert lower_to_label_expression(atom(tail="i", label="a")) == \
            sym(Guard("a", "i", None))
        # ... a wildcard label only given the graph's alphabet ...
        for wildcard in (atom(), join(atom(label="a"), atom(head="j"))):
            with pytest.raises(ExecutionError, match="alphabet"):
                lower_to_label_expression(wildcard)
        # ... a literal path to the move between its ends, a product to
        # a jump, a repeat to its expansion below the size bound.
        assert lower_to_label_expression(
            literal([("i", "a", "j")])) == sym(Pinned("i", "j", 1))
        assert lower_to_label_expression(
            atom(label="a") * atom(label="b")) == lconcat(
                sym("a"), sym(LEAVE), sym(ENTER), sym("b"))
        assert lower_to_label_expression(
            atom(tail="i", label="a").repeat(17, None)) is not None
        assert lower_to_label_expression(
            atom(label="a").repeat(0, 17)) is not None
        with pytest.raises(QueryTooLargeError):
            lower_to_label_expression(atom(label="a").repeat(0, 100000))

    def test_bounded_repeat_expansion(self):
        from repro.regex import atom
        from repro.rpq import lower_to_label_expression
        from repro.rpq.labelregex import accepts_label_word
        lowered = lower_to_label_expression(atom(label="a").repeat(1, 3))
        assert lowered is not None
        assert not accepts_label_word(lowered, [])
        assert accepts_label_word(lowered, ["a"])
        assert accepts_label_word(lowered, ["a", "a", "a"])
        assert not accepts_label_word(lowered, ["a", "a", "a", "a"])

    def test_unbounded_repeat_becomes_star_tail(self):
        from repro.regex import atom
        from repro.rpq import lower_to_label_expression
        from repro.rpq.labelregex import accepts_label_word
        lowered = lower_to_label_expression(atom(label="a").repeat(2, None))
        assert lowered is not None
        assert not accepts_label_word(lowered, ["a"])
        assert accepts_label_word(lowered, ["a"] * 2)
        assert accepts_label_word(lowered, ["a"] * 7)
