"""Property tests triangulating the three regex implementations.

Random small graphs + random expressions; the direct evaluator
(:func:`evaluate`), the NFA-based generator (:func:`generate_paths`) and the
paper's stack automaton must produce identical bounded path sets, and the
NFA recognizer plus the derivative matcher must accept exactly the generated
paths among a candidate pool.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import Recognizer, StackAutomaton, generate_paths
from repro.graph.graph import MultiRelationalGraph
from repro.regex import (
    EPSILON,
    atom,
    evaluate,
    join,
    matches,
    product,
    star,
    union,
)

VERTICES = ["u", "v", "w"]
LABELS = ["a", "b"]

edge_triples = st.tuples(
    st.sampled_from(VERTICES),
    st.sampled_from(LABELS),
    st.sampled_from(VERTICES),
)

graphs = st.lists(edge_triples, min_size=1, max_size=8).map(
    lambda triples: MultiRelationalGraph(triples))


def atoms():
    return st.builds(
        atom,
        tail=st.one_of(st.none(), st.sampled_from(VERTICES)),
        label=st.one_of(st.none(), st.sampled_from(LABELS)),
        head=st.one_of(st.none(), st.sampled_from(VERTICES)),
    )


def expressions(depth=2):
    base = st.one_of(atoms(), st.just(EPSILON))
    if depth == 0:
        return base
    sub = expressions(depth - 1)
    return st.one_of(
        base,
        st.builds(lambda a, b: join(a, b), sub, sub),
        st.builds(lambda a, b: union(a, b), sub, sub),
        st.builds(lambda a, b: product(a, b), sub, sub),
        st.builds(star, atoms()),
    )


@settings(max_examples=40, deadline=None)
@given(graphs, expressions())
def test_three_generators_agree(graph, expr):
    bound = 4
    reference = evaluate(expr, graph, bound)
    nfa_based = generate_paths(graph, expr, bound)
    stack_based = StackAutomaton(expr, graph).run(bound)
    assert reference == nfa_based == stack_based


@settings(max_examples=40, deadline=None)
@given(graphs, expressions())
def test_recognizer_accepts_exactly_generated(graph, expr):
    bound = 3
    generated = generate_paths(graph, expr, bound)
    recognizer = Recognizer(expr, graph)
    # Everything generated must be accepted.
    for p in generated:
        assert recognizer.accepts(p)
    # Candidate pool: all graph walks up to the bound (joint ones) plus some
    # simple concatenations; anything not generated must be rejected.
    pool = graph.all_paths().closure(bound)
    for p in pool:
        assert recognizer.accepts(p) == (p in generated)


@settings(max_examples=40, deadline=None)
@given(graphs, expressions())
def test_derivatives_agree_with_recognizer(graph, expr):
    bound = 3
    recognizer = Recognizer(expr, graph)
    pool = graph.all_paths().closure(bound)
    for p in pool:
        assert matches(expr, p, graph) == recognizer.accepts(p)


@settings(max_examples=30, deadline=None)
@given(graphs, expressions())
def test_simplification_preserves_generation(graph, expr):
    bound = 3
    assert generate_paths(graph, expr, bound) == \
        generate_paths(graph, expr.simplified(), bound)


@settings(max_examples=30, deadline=None)
@given(graphs, expressions(), st.integers(min_value=0, max_value=3))
def test_generation_monotone_in_bound(graph, expr, bound):
    smaller = generate_paths(graph, expr, bound)
    larger = generate_paths(graph, expr, bound + 1)
    assert smaller <= larger
