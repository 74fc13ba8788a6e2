"""Pre-flight query analysis: pruning, emptiness, engine short-circuits.

Covers the :mod:`repro.analysis.query` analyzer in isolation (DFA pruning
is language-preserving, emptiness verdicts are sound), its wiring into
``Engine.pairs`` / ``pairs_batch`` / ``query`` (provably-empty queries
return the empty result with **zero** kernel dispatch — asserted by
poisoning the kernels), the EXPLAIN ``diagnostics:`` section, the
``repro lint-query`` CLI, and — by hypothesis property test — that a
"provably empty" verdict always implies the reference evaluator returns
the empty pair set on randomized graphs.
"""

import io
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.query import (
    analyze_compiled_query,
    analyze_expression,
    prune_dfa,
    star_height,
)
from repro.cli import main as cli_main
from repro.core.path import Path
from repro.datasets import figure1_graph
from repro.engine import Engine
from repro.graph.generators import uniform_random
from repro.graph.graph import MultiRelationalGraph
from repro.regex.ast import Atom, Empty, Join, Literal, Repeat, Star, Union
from repro.rpq.evaluation import (
    compile_rpq,
    rpq_pairs_basic,
    rpq_pairs_between,
)
from repro.rpq.labelregex import (
    LabelDFA,
    LabelEmpty,
    LabelEpsilon,
    lconcat,
    lstar,
    lunion,
    sym,
)


def graph_abc():
    return MultiRelationalGraph([
        ("u", "a", "v"), ("v", "b", "w"), ("w", "c", "u"),
    ])


# ----------------------------------------------------------------------
# DFA pruning
# ----------------------------------------------------------------------

class TestPruneDfa:
    def test_removes_trap_state_preserving_language(self):
        # State 2 is a non-accepting trap reachable on 'x': dead weight.
        dfa = LabelDFA(0, frozenset({1}), [
            {"a": 1, "x": 2}, {"a": 1}, {"x": 2},
        ])
        pruned, removed = prune_dfa(dfa)
        assert removed == 1
        assert pruned.num_states == 2
        for word in (["a"], ["a", "a"], ["x"], [], ["a", "x"]):
            assert _dfa_accepts(pruned, word) == _dfa_accepts(dfa, word)

    def test_removes_unreachable_state(self):
        # State 2 accepts but nothing reaches it.
        dfa = LabelDFA(0, frozenset({1, 2}), [
            {"a": 1}, {}, {"b": 2},
        ])
        pruned, removed = prune_dfa(dfa)
        assert removed == 1
        assert _dfa_accepts(pruned, ["a"])
        assert not _dfa_accepts(pruned, ["b"])

    def test_empty_language_collapses_to_reject_state(self):
        dfa = LabelDFA(0, frozenset(), [{"a": 1}, {"a": 0}])
        pruned, removed = prune_dfa(dfa)
        assert pruned.num_states == 1
        assert pruned.accepting == frozenset()
        assert removed == 1

    def test_useful_dfa_untouched(self):
        # Every state of a*'s subset construction is useful, but its two
        # states are equivalent: the minimal DFA has one.
        dfa = compile_rpq(lstar(sym("a")), graph_abc())
        pruned, removed = prune_dfa(dfa)
        assert (pruned.num_states, removed) == (1, dfa.num_states - 1)
        for word in ([], ["a"], ["a", "a"], ["b"], ["a", "b"]):
            assert _dfa_accepts(pruned, word) == _dfa_accepts(dfa, word)
        # An already-minimal DFA comes back as it was.
        again, removed = prune_dfa(pruned)
        assert removed == 0
        assert (again.start, again.accepting, again.transitions) == \
            (pruned.start, pruned.accepting, pruned.transitions)


def _dfa_accepts(dfa, word):
    state = dfa.start
    for label in word:
        state = dfa.step(state, label)
        if state is None:
            return False
    return state in dfa.accepting


# ----------------------------------------------------------------------
# Compiled-query analysis (label level)
# ----------------------------------------------------------------------

class TestAnalyzeCompiledQuery:
    def test_unknown_labels_reported(self):
        expression = lconcat(sym("a"), sym("zz"))
        dfa = compile_rpq(expression, graph_abc())
        diag = analyze_compiled_query(dfa, expression,
                                      graph_abc().labels())
        assert diag.unknown_labels == frozenset({"zz"})
        assert diag.empty
        assert any("zz" in warning for warning in diag.warnings)

    def test_empty_language_verdict(self):
        dfa = compile_rpq(LabelEmpty(), graph_abc())
        diag = analyze_compiled_query(dfa, LabelEmpty(),
                                      graph_abc().labels())
        assert diag.empty
        assert "language is empty" in diag.empty_reason

    def test_nullable_query_with_absent_label_is_not_empty(self):
        # zz* contains the empty word: reflexive pairs survive, so the
        # analyzer must NOT claim emptiness.
        expression = lstar(sym("zz"))
        dfa = compile_rpq(expression, graph_abc())
        diag = analyze_compiled_query(dfa, expression,
                                      graph_abc().labels())
        assert not diag.empty
        assert diag.unknown_labels == frozenset({"zz"})

    def test_satisfiable_query_reports_complexity(self):
        expression = lconcat(sym("a"), lstar(lunion(sym("b"), sym("c"))))
        dfa = compile_rpq(expression, graph_abc())
        diag = analyze_compiled_query(dfa, expression,
                                      graph_abc().labels())
        assert not diag.empty
        assert diag.star_height == 1
        assert diag.expression_size >= 4
        assert diag.state_count >= 1
        assert "complexity:" in diag.describe()
        assert "satisfiable" in diag.describe()

    def test_star_height(self):
        assert star_height(sym("a")) == 0
        assert star_height(lstar(sym("a"))) == 1
        assert star_height(lstar(lconcat(sym("a"), lstar(sym("b"))))) == 2


# ----------------------------------------------------------------------
# Structural expression analysis (edge-set level)
# ----------------------------------------------------------------------

class TestAnalyzeExpression:
    def test_empty_node(self):
        diag = analyze_expression(Empty(), graph_abc())
        assert diag.empty

    def test_absent_label_atom(self):
        diag = analyze_expression(Atom(None, "zz", None), graph_abc())
        assert diag.empty
        assert diag.unknown_labels == frozenset({"zz"})

    def test_absent_bound_vertex(self):
        diag = analyze_expression(Atom("ghost", "a", None), graph_abc())
        assert diag.empty
        assert "ghost" in diag.unknown_vertices

    def test_join_with_empty_operand_is_empty(self):
        join = Join((Atom(None, "a", None), Atom(None, "zz", None)))
        assert analyze_expression(join, graph_abc()).empty

    def test_union_needs_all_empty(self):
        union = Union((Atom(None, "zz", None), Atom(None, "a", None)))
        assert not analyze_expression(union, graph_abc()).empty
        union = Union((Atom(None, "zz", None), Atom(None, "yy", None)))
        assert analyze_expression(union, graph_abc()).empty

    def test_star_never_empty(self):
        star = Star(Atom(None, "zz", None))
        assert not analyze_expression(star, graph_abc()).empty

    def test_repeat_minimum_zero_not_empty(self):
        inner = Atom(None, "zz", None)
        assert not analyze_expression(Repeat(inner, 0, 3),
                                      graph_abc()).empty
        assert analyze_expression(Repeat(inner, 1, 3), graph_abc()).empty

    def test_empty_literal(self):
        assert analyze_expression(Literal(frozenset()), graph_abc()).empty
        lit = Literal(frozenset({Path([("u", "a", "v")])}))
        assert not analyze_expression(lit, graph_abc()).empty


# ----------------------------------------------------------------------
# Engine wiring: short-circuits with zero kernel dispatch
# ----------------------------------------------------------------------

@pytest.fixture
def poisoned_kernels(monkeypatch):
    """Make both product-BFS cores blow up: proves zero dispatch.

    Every compact kernel entry — the three public directions, and
    ``rpq_pairs_on_snapshot`` under the fork pool, the sharded path and
    lazily-opened stores — runs ``_sweep`` or ``_propagate``.
    """
    def boom(*args, **kwargs):
        raise AssertionError("kernel dispatched for a provably-empty query")
    import repro.graph.compact as compact
    monkeypatch.setattr(compact, "_propagate", boom)
    # Liveness: a satisfiable query must trip each poisoned core.  With
    # _sweep still whole, a many-seed sweep dies in its first shared
    # round — the shared path is under the poison, not only behind it.
    many = uniform_random(3 * compact._SHARED_MIN_SEEDS, 160,
                          labels=("a", "b"), seed=3)
    with pytest.raises(AssertionError, match="kernel dispatched"):
        Engine(many).pairs("[_, a, _] . [_, b, _]")
    monkeypatch.setattr(compact, "_sweep", boom)
    with pytest.raises(AssertionError, match="kernel dispatched"):
        Engine(graph_abc()).pairs("[_, a, _] . [_, b, _]")
    with pytest.raises(AssertionError, match="kernel dispatched"):
        rpq_pairs_between(graph_abc(), lconcat(sym("a"), sym("b")),
                          {"u"}, {"w"})


class TestEngineShortCircuit:
    def test_pairs_short_circuits_empty_query(self, poisoned_kernels):
        engine = Engine(graph_abc())
        assert engine.pairs("[_, zz, _]") == frozenset()
        assert engine.pairs("[_, a, _] . [_, zz, _]") == frozenset()
        # processes=2 would fan out to rpq_pairs_on_snapshot in forked
        # workers (which inherit the poison); the verdict comes first.
        assert engine.pairs("[_, b, _] . [_, zz, _]",
                            processes=2) == frozenset()

    def test_lazily_opened_store_short_circuits(self, poisoned_kernels,
                                                tmp_path):
        from repro.storage import PersistentGraph
        PersistentGraph.create(str(tmp_path / "g"), graph_abc()).close()
        with PersistentGraph.open(str(tmp_path / "g")) as store:
            # The unmaterialized view goes straight to the sweep core...
            with pytest.raises(AssertionError, match="kernel dispatched"):
                store.pairs(lconcat(sym("a"), sym("b")))
            # ...and the engine serving that store never reaches it.
            engine = Engine(store.graph())
            assert engine.pairs("[_, a, _] . [_, zz, _]") == frozenset()

    def test_pairs_batch_short_circuits_empty_members(self,
                                                      poisoned_kernels):
        engine = Engine(graph_abc())
        results = engine.pairs_batch(["[_, zz, _]", "[_, yy, _] . [_, a, _]"])
        assert results == [frozenset(), frozenset()]

    def test_pairs_batch_mixes_live_and_empty(self):
        engine = Engine(graph_abc())
        live, empty = engine.pairs_batch(["[_, a, _]", "[_, zz, _]"])
        assert ("u", "v") in live
        assert empty == frozenset()

    def test_query_short_circuits_structurally_empty(self):
        engine = Engine(graph_abc())
        result = engine.query("[_, zz, _]")
        assert len(result.paths) == 0
        assert result.elapsed == 0.0
        result = engine.query("[ghost, a, _]")
        assert len(result.paths) == 0

    def test_bounded_pairs_fallback_short_circuits(self, poisoned_kernels):
        # max_length routes through query(); still no kernel dispatch and
        # still the empty answer.
        engine = Engine(graph_abc())
        assert engine.pairs("[_, zz, _]", max_length=3) == frozenset()

    def test_nullable_star_still_dispatches(self):
        # zz* matches the empty word: every vertex pairs with itself, so
        # the short-circuit must NOT fire.
        engine = Engine(graph_abc())
        pairs = engine.pairs("[_, zz, _]*")
        assert ("u", "u") in pairs

    def test_pruned_dfa_served_from_cache(self):
        engine = Engine(graph_abc())
        first = engine.preflight(lconcat(sym("a"), sym("b")))
        again = engine.preflight(lconcat(sym("a"), sym("b")))
        assert first is again
        hits, misses, entries = engine.dfa_cache_info()
        assert hits >= 1 and misses == 1


class TestExplainDiagnostics:
    def test_satisfiable_query_diagnostics_section(self):
        engine = Engine(figure1_graph())
        text = engine.explain("[_, alpha, _] . [_, beta, _]*")
        assert "diagnostics:" in text
        assert "complexity: star-height 1" in text
        assert "satisfiable" in text

    def test_empty_query_diagnostics_and_routing(self):
        engine = Engine(figure1_graph())
        text = engine.explain("[_, nosuch, _]")
        assert "provably empty" in text
        assert "never occur in this graph" in text
        assert "pairs direction: n/a — pre-flight" in text

    def test_non_lowerable_expression_gets_structural_diagnostics(self):
        engine = Engine(figure1_graph())
        text = engine.explain("[i, alpha, _] . [_, nosuch, j]")
        assert "diagnostics:" in text
        assert "provably empty" in text


class TestLintQueryCli:
    def _graph_file(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("u,a,v\nv,b,w\n")
        return str(path)

    def test_satisfiable_exits_zero(self, tmp_path):
        out = io.StringIO()
        code = cli_main(["lint-query", self._graph_file(tmp_path),
                         "[_, a, _] . [_, b, _]"], out=out)
        assert code == 0
        assert "satisfiable" in out.getvalue()
        assert "pairs fast path" in out.getvalue()

    def test_provably_empty_exits_one(self, tmp_path):
        out = io.StringIO()
        code = cli_main(["lint-query", self._graph_file(tmp_path),
                         "[_, zz, _]"], out=out)
        assert code == 1
        assert "provably empty" in out.getvalue()

    def test_non_lowerable_reports_fallback_route(self, tmp_path):
        out = io.StringIO()
        code = cli_main(["lint-query", self._graph_file(tmp_path),
                         "[u, a, _] . [_, b, w]* . [u, a, v]"], out=out)
        assert code == 0
        assert "bounded automaton fallback" in out.getvalue()


# ----------------------------------------------------------------------
# Regression: label expressions must survive pickling (pool payloads)
# ----------------------------------------------------------------------

class TestLabelExprPickle:
    def test_roundtrip_every_node_type(self):
        expressions = [
            LabelEmpty(), LabelEpsilon(), sym("a"),
            lunion(sym("a"), LabelEpsilon()),
            lconcat(sym("a"), lstar(sym("b"))),
            lstar(lunion(sym("a"), lconcat(sym("b"), sym("c")))),
        ]
        for expression in expressions:
            clone = pickle.loads(pickle.dumps(expression))
            assert clone == expression
            assert hash(clone) == hash(expression)

    def test_restored_instances_stay_immutable(self):
        clone = pickle.loads(pickle.dumps(sym("a")))
        with pytest.raises(AttributeError):
            clone.label = "b"


# ----------------------------------------------------------------------
# Property: "provably empty" is sound on randomized graphs
# ----------------------------------------------------------------------

VERTICES = ["u", "v", "w", "x"]
GRAPH_LABELS = ["a", "b"]
QUERY_LABELS = ["a", "b", "zz"]  # 'zz' never occurs in any generated graph

edge_triples = st.tuples(
    st.sampled_from(VERTICES),
    st.sampled_from(GRAPH_LABELS),
    st.sampled_from(VERTICES),
)

random_graphs = st.lists(edge_triples, min_size=1, max_size=10).map(
    lambda triples: MultiRelationalGraph(triples))


def label_expressions(depth=2):
    base = st.one_of(
        st.sampled_from(QUERY_LABELS).map(sym),
        st.just(LabelEpsilon()),
        st.just(LabelEmpty()),
    )
    if depth == 0:
        return base
    sub = label_expressions(depth - 1)
    return st.one_of(
        base,
        st.builds(lambda a, b: lunion(a, b), sub, sub),
        st.builds(lambda a, b: lconcat(a, b), sub, sub),
        st.builds(lstar, sub),
    )


@settings(max_examples=120, deadline=None)
@given(random_graphs, label_expressions())
def test_provably_empty_implies_no_pairs(graph, expression):
    dfa = compile_rpq(expression, graph)
    diag = analyze_compiled_query(dfa, expression, graph.labels())
    reference = rpq_pairs_basic(graph, expression)
    if diag.empty:
        assert reference == frozenset(), \
            "analyzer claimed empty but reference found {}".format(reference)
    # And pruning never changes the language as the kernels see it: when
    # the query lowers to the unbounded fast path, the engine (pruned DFA)
    # agrees with the reference on every example.  (Non-lowerable shapes
    # route through the *bounded* automaton fallback, where parity with
    # the unbounded reference is out of scope here.)
    from repro.rpq.evaluation import lower_to_constrained_query
    engine = Engine(graph)
    compiled = engine.compile(_as_regex(expression))
    if lower_to_constrained_query(compiled) is not None:
        assert engine.pairs(compiled) == reference


def _as_regex(label_expression):
    """Lift a label expression into the engine's PathQL AST."""
    from repro.regex.ast import Atom as RAtom
    from repro.regex.ast import Empty as REmpty
    from repro.regex.ast import Epsilon as REpsilon
    from repro.regex.ast import Join as RJoin
    from repro.regex.ast import Star as RStar
    from repro.regex.ast import Union as RUnion
    from repro.rpq.labelregex import (
        LabelConcat,
        LabelStar,
        LabelSymbol,
        LabelUnion,
    )
    if isinstance(label_expression, LabelSymbol):
        return RAtom(None, label_expression.label, None)
    if isinstance(label_expression, LabelEpsilon):
        return REpsilon()
    if isinstance(label_expression, LabelEmpty):
        return REmpty()
    if isinstance(label_expression, LabelUnion):
        return RUnion(tuple(_as_regex(p) for p in label_expression.parts))
    if isinstance(label_expression, LabelConcat):
        return RJoin(tuple(_as_regex(p) for p in label_expression.parts))
    if isinstance(label_expression, LabelStar):
        return RStar(_as_regex(label_expression.inner))
    raise AssertionError(label_expression)
