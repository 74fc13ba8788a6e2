"""The kernels run the minimal DFA; the oracle keeps the raw one.

Pre-flight (:func:`repro.analysis.query.prune_dfa`) hands every compact
kernel Moore's minimal automaton, while :func:`rpq_pairs_basic` still runs
the raw subset construction, so the properties below compare the minimal
DFA against an independent raw one: on random label expressions over
random mutating graphs the minimal DFA is language-equivalent to the raw
one and a fixed point of :func:`minimize`, and the forward, backward,
bidirectional and shared-sweep kernels on it answer exactly what the
oracle does.  A counted test pins what minimisation buys a closure: T3
runs two states, so a single-source sweep expands at most two
configurations per vertex.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.query import prune_dfa
from repro.engine import Engine
from repro.graph import compact
from repro.graph.compact import (
    _SHARED_MIN_SEEDS,
    adjacency_snapshot,
    rpq_pairs_backward,
    rpq_pairs_bidirectional,
    rpq_pairs_compact,
)
from repro.graph.generators import uniform_random
from repro.graph.graph import MultiRelationalGraph
from repro.rpq.evaluation import (
    compile_rpq,
    lower_to_constrained_query,
    rpq_pairs,
    rpq_pairs_basic,
)
from repro.rpq.labelregex import lconcat, lplus, lstar, lunion, sym
from repro.rpq.minimize import equivalent, minimize

LABELS = ("a", "b", "c", "d")
VERTICES = 20
T3 = "([_, a, _] | [_, b, _])* . [_, c, _]"


def _expressions():
    return st.recursive(
        st.sampled_from(LABELS).map(sym),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda parts: lunion(*parts)),
            st.tuples(inner, inner).map(lambda parts: lconcat(*parts)),
            inner.map(lstar),
            inner.map(lplus)),
        max_leaves=6)


_EDGES = st.tuples(st.integers(0, VERTICES - 1), st.sampled_from(LABELS[:3]),
                   st.integers(0, VERTICES - 1))
#: ``(True, edge)`` adds an edge, any label included; ``(False, (k,))``
#: removes the k-th edge (modulo the size) if there is one.
_MUTATIONS = st.one_of(
    st.tuples(st.just(True),
              st.tuples(st.integers(0, VERTICES - 1),
                        st.sampled_from(LABELS),
                        st.integers(0, VERTICES - 1))),
    st.tuples(st.just(False), st.tuples(st.integers(0, 10 ** 6))))


def _same_dfa(first, second):
    return (first.start, first.accepting, first.transitions) == \
        (second.start, second.accepting, second.transitions)


def _check(graph, engine, expression):
    raw = compile_rpq(expression, graph)
    minimal, removed = prune_dfa(raw)
    alphabet = set(graph.labels()) | set(expression.symbols())
    assert removed == raw.num_states - minimal.num_states >= 0
    assert equivalent(raw, minimal, alphabet)
    assert _same_dfa(minimize(minimal, alphabet), minimal)
    assert _same_dfa(engine.compiled_dfa(expression), minimal)

    vertices = sorted(graph.vertices())
    assert len(vertices) >= _SHARED_MIN_SEEDS
    few, ends = frozenset(vertices[:3]), frozenset(vertices[-3:])
    reference = rpq_pairs_basic(graph, expression)
    from_few = frozenset(p for p in reference if p[0] in few)
    to_ends = frozenset(p for p in reference if p[1] in ends)
    # All sources / all targets: the shared sweep; three: per-seed loops.
    assert rpq_pairs_compact(graph, minimal) == reference
    assert rpq_pairs_compact(graph, minimal, few) == from_few
    assert rpq_pairs_backward(graph, minimal, vertices) == reference
    assert rpq_pairs_backward(graph, minimal, ends) == to_ends
    assert rpq_pairs_bidirectional(graph, minimal, few, ends) == \
        frozenset(p for p in from_few if p[1] in ends)
    assert rpq_pairs(graph, expression) == reference


@settings(max_examples=40, deadline=None)
@given(expression=_expressions(),
       edges=st.lists(_EDGES, min_size=10, max_size=60),
       mutations=st.lists(_MUTATIONS, max_size=6))
def test_minimal_dfa_kernels_match_raw_oracle(expression, edges, mutations):
    graph = MultiRelationalGraph(edges)
    for vertex in range(VERTICES):
        graph.add_vertex(vertex)
    adjacency_snapshot(graph)  # later mutations patch its overlay
    engine = Engine(graph)
    _check(graph, engine, expression)
    for add, args in mutations:
        if add:
            graph.add_edge(*args)
        elif graph.size():
            edge = sorted(graph.edge_set(), key=repr)[args[0] % graph.size()]
            graph.remove_edge(edge.tail, edge.label, edge.head)
        _check(graph, engine, expression)


class TestClosureProduct:
    def test_t3_walks_two_states_per_vertex(self, monkeypatch):
        graph = uniform_random(60, 300, labels=("a", "b", "c"), seed=5)
        engine = Engine(graph)
        expression = engine.compile(T3)
        label_expression = \
            lower_to_constrained_query(expression).label_expression
        assert compile_rpq(label_expression, graph).num_states == 4
        assert engine.preflight(label_expression).state_count == 2

        # Every configuration a sweep visits looks its moves up once.
        expanded = []
        product_moves = compact._product_moves

        class Counted(list):
            def __getitem__(self, state):
                expanded.append(state)
                return list.__getitem__(self, state)

        monkeypatch.setattr(compact, "_product_moves",
                            lambda *args: Counted(product_moves(*args)))
        source = frozenset([sorted(graph.vertices())[0]])
        assert engine.route(expression, source).kernel == "forward"
        answer = engine.pairs(T3, sources=source)
        assert answer == rpq_pairs_basic(graph, label_expression, source)
        assert 0 < len(expanded) <= 2 * graph.order()
        # The raw subset construction walks more of the product.
        walked = len(expanded)
        del expanded[:]
        rpq_pairs_compact(graph, compile_rpq(label_expression, graph), source)
        assert len(expanded) > 2 * graph.order() >= walked


def test_wide_union_closure_collapses():
    # a . (l00 | ... | l23)* . c: the subset construction gives one state
    # per union branch, the minimal DFA three.
    labels = ["l{:02d}".format(i) for i in range(24)]
    expression = lconcat(sym("a"), lstar(lunion(*map(sym, labels))), sym("c"))
    graph = MultiRelationalGraph([("u", "a", "v"), ("v", "l07", "w"),
                                  ("w", "c", "x")])
    raw = compile_rpq(expression, graph)
    minimal, removed = prune_dfa(raw)
    assert (raw.num_states, minimal.num_states, removed) == (27, 3, 24)
    assert rpq_pairs(graph, expression) == \
        rpq_pairs_basic(graph, expression) == frozenset({("u", "x")})
