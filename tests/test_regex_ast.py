"""Tests for the regular path expression AST: construction, laws, evaluation."""

import pytest

from repro.core.path import EPSILON as EPSILON_PATH
from repro.core.path import Path
from repro.core.pathset import PathSet
from repro.errors import RegexError
from repro.regex import (
    EMPTY,
    EPSILON,
    Join,
    Literal,
    Product,
    Repeat,
    Star,
    Union,
    atom,
    evaluate,
    join,
    literal,
    optional,
    plus,
    power,
    product,
    star,
    union,
)


@pytest.fixture
def graph(diamond):
    return diamond


class TestConstruction:
    def test_atom_wildcards(self):
        a = atom(label="alpha")
        assert a.tail is None and a.head is None and a.label == "alpha"

    def test_atom_str_uses_paper_notation(self):
        assert str(atom(tail="i", label="a")) == "[i, a, _]"
        assert str(atom()) == "[_, _, _]"

    def test_literal_holds_path_set(self):
        lit = literal(("j", "a", "i"))
        assert Path.single("j", "a", "i") in lit.path_set

    def test_operator_sugar(self):
        a, b = atom(label="x"), atom(label="y")
        assert isinstance(a | b, Union)
        assert isinstance(a @ b, Join)
        assert isinstance(a * b, Product)
        assert isinstance(a.star(), Star)
        assert isinstance(a ** 3, Repeat)

    def test_builders_flatten_trivial_cases(self):
        a = atom(label="x")
        assert union(a) is a
        assert join(a) is a
        assert union() == EMPTY
        assert join() == EPSILON

    def test_nodes_are_immutable(self):
        a = atom(label="x")
        with pytest.raises(AttributeError):
            a.label = "y"

    def test_equality_is_structural(self):
        assert atom(label="x") == atom(label="x")
        assert join(atom(label="x"), atom(label="y")) == \
            Join((atom(label="x"), atom(label="y")))

    def test_hashable(self):
        exprs = {atom(label="x"), atom(label="x"), atom(label="y")}
        assert len(exprs) == 2

    def test_power_validation(self):
        with pytest.raises(RegexError):
            atom() ** -1

    def test_repeat_validation(self):
        with pytest.raises(RegexError):
            Repeat(atom(), 3, 2)

    def test_size_and_depth(self):
        expr = join(atom(label="x"), star(atom(label="y")))
        assert expr.size() == 4
        assert expr.depth() == 3

    def test_atoms_enumeration(self):
        expr = join(atom(label="x"), union(atom(label="y"), literal(("a", "b", "c"))))
        assert len(expr.atoms()) == 3


class TestNullability:
    def test_constants(self):
        assert not EMPTY.nullable
        assert EPSILON.nullable

    def test_atom_never_nullable(self):
        assert not atom().nullable

    def test_literal_nullable_iff_contains_epsilon(self):
        assert not literal(("a", "x", "b")).nullable
        assert Literal(PathSet([EPSILON_PATH])).nullable

    def test_star_always_nullable(self):
        assert star(atom()).nullable

    def test_union_any(self):
        assert union(atom(), EPSILON).nullable
        assert not union(atom(), atom()).nullable

    def test_join_all(self):
        assert not join(atom(), star(atom())).nullable
        assert join(star(atom()), optional(atom())).nullable

    def test_repeat_nullable_when_min_zero(self):
        assert optional(atom()).nullable
        assert not plus(atom()).nullable


class TestSimplification:
    def test_union_drops_empty(self):
        assert union(atom(label="x"), EMPTY).simplified() == atom(label="x")

    def test_union_flattens_and_dedupes(self):
        nested = Union((Union((atom(label="x"), atom(label="x"))), atom(label="y")))
        simplified = nested.simplified()
        assert simplified == Union((atom(label="x"), atom(label="y")))

    def test_join_with_empty_is_empty(self):
        assert join(atom(), EMPTY).simplified() == EMPTY

    def test_join_drops_epsilon(self):
        assert join(EPSILON, atom(label="x"), EPSILON).simplified() == atom(label="x")

    def test_star_of_star_collapses(self):
        assert Star(Star(atom())).simplified() == Star(atom())

    def test_star_of_empty_and_epsilon(self):
        assert Star(EMPTY).simplified() == EPSILON
        assert Star(EPSILON).simplified() == EPSILON

    def test_repeat_once_collapses(self):
        assert Repeat(atom(label="x"), 1, 1).simplified() == atom(label="x")

    def test_repeat_unbounded_from_zero_is_star(self):
        assert Repeat(atom(label="x"), 0, None).simplified() == Star(atom(label="x"))

    def test_simplification_preserves_language(self, graph):
        expr = join(EPSILON, union(atom(label="alpha"), EMPTY),
                    Star(Star(atom(label="beta"))))
        assert evaluate(expr, graph, 4) == evaluate(expr.simplified(), graph, 4)


class TestRepeatExpansion:
    def test_exact_power(self):
        expanded = Repeat(atom(label="x"), 2, 2).expand()
        assert expanded == Join((atom(label="x"), atom(label="x")))

    def test_unbounded_tail(self):
        expanded = Repeat(atom(label="x"), 1, None).expand()
        assert expanded == Join((atom(label="x"), Star(atom(label="x"))))

    def test_optional_range(self):
        expanded = Repeat(atom(label="x"), 1, 2).expand()
        assert expanded == Join((atom(label="x"),
                                 Union((atom(label="x"), EPSILON))))

    def test_zero_is_epsilon(self):
        assert Repeat(atom(), 0, 0).expand() == EPSILON


class TestEvaluation:
    def test_empty(self, graph):
        assert evaluate(EMPTY, graph, 5) == PathSet.empty()

    def test_epsilon(self, graph):
        assert evaluate(EPSILON, graph, 5) == PathSet.epsilon()

    def test_atom_resolution(self, graph):
        assert len(evaluate(atom(label="alpha"), graph, 5)) == 2

    def test_literal_is_graph_independent(self, graph):
        lit = literal(("not", "in", "graph"))
        assert len(evaluate(lit, graph, 5)) == 1

    def test_join_filters_adjacency(self, graph):
        result = evaluate(join(atom(label="alpha"), atom(label="beta")), graph, 5)
        assert len(result) == 2
        assert all(p.is_joint for p in result)

    def test_product_keeps_disjoint(self, graph):
        result = evaluate(product(atom(label="alpha"), atom(label="beta")), graph, 5)
        assert len(result) == 6  # 2 alpha x 3 beta

    def test_union(self, graph):
        result = evaluate(union(atom(label="alpha"), atom(label="beta")), graph, 5)
        assert len(result) == 5

    def test_star_bounded(self, triangle_cycle):
        result = evaluate(star(atom()), triangle_cycle, 4)
        assert len(result) == 1 + 3 * 4

    def test_plus_excludes_epsilon(self, triangle_cycle):
        result = evaluate(plus(atom()), triangle_cycle, 3)
        assert EPSILON_PATH not in result

    def test_optional_includes_epsilon(self, graph):
        result = evaluate(optional(atom(label="alpha")), graph, 5)
        assert EPSILON_PATH in result
        assert len(result) == 3

    def test_power(self, triangle_cycle):
        result = evaluate(power(atom(), 3), triangle_cycle, 5)
        assert len(result) == 3
        assert all(len(p) == 3 for p in result)

    def test_range_repeat(self, triangle_cycle):
        result = evaluate(Repeat(atom(), 1, 2), triangle_cycle, 5)
        assert {len(p) for p in result} == {1, 2}

    def test_max_length_truncates(self, triangle_cycle):
        result = evaluate(star(atom()), triangle_cycle, 2)
        assert all(len(p) <= 2 for p in result)

    def test_negative_bound_rejected(self, graph):
        with pytest.raises(RegexError):
            evaluate(atom(), graph, -1)
