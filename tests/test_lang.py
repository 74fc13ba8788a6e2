"""PathQL lexer and parser tests."""

import pytest

from repro.core.path import Path
from repro.errors import PathQLSyntaxError
from repro.lang import parse
from repro.lang.lexer import TokenKind, tokenize
from repro.regex import (
    EMPTY,
    EPSILON,
    Atom,
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
    star,
)


class TestLexer:
    def test_punctuation(self):
        kinds = [t.kind for t in tokenize("[](){},;.&|*+?_")]
        assert kinds == [
            TokenKind.LBRACKET, TokenKind.RBRACKET, TokenKind.LPAREN,
            TokenKind.RPAREN, TokenKind.LBRACE, TokenKind.RBRACE,
            TokenKind.COMMA, TokenKind.SEMICOLON, TokenKind.DOT,
            TokenKind.AMP, TokenKind.PIPE, TokenKind.STAR, TokenKind.PLUS,
            TokenKind.QUESTION, TokenKind.UNDERSCORE, TokenKind.END,
        ]

    def test_identifiers(self):
        tokens = tokenize("alpha person0 a-b")
        assert [t.value for t in tokens[:-1]] == ["alpha", "person0", "a-b"]

    def test_numbers_are_ints(self):
        token = tokenize("42")[0]
        assert token.kind == TokenKind.NUMBER
        assert token.value == 42

    def test_strings_both_quotes(self):
        tokens = tokenize("'has space' \"double\"")
        assert tokens[0].value == "has space"
        assert tokens[1].value == "double"

    def test_unterminated_string(self):
        with pytest.raises(PathQLSyntaxError):
            tokenize("'oops")

    def test_unexpected_character_reports_position(self):
        with pytest.raises(PathQLSyntaxError) as info:
            tokenize("[a, b, c] $")
        assert info.value.position == 10

    def test_whitespace_insensitive(self):
        assert len(tokenize("  [ a ,\n b , c ]  ")) == len(tokenize("[a,b,c]"))


class TestParserAtoms:
    def test_full_wildcard(self):
        assert parse("[_, _, _]") == Atom()

    def test_bound_parts(self):
        assert parse("[i, alpha, _]") == atom(tail="i", label="alpha")
        assert parse("[_, _, j]") == atom(head="j")

    def test_numeric_vertices(self):
        assert parse("[0, knows, 1]") == atom(tail=0, label="knows", head=1)

    def test_quoted_values(self):
        assert parse("['a b', 'x', _]") == atom(tail="a b", label="x")

    def test_keywords(self):
        assert parse("eps") == EPSILON
        assert parse("empty") == EMPTY


class TestParserOperators:
    def test_join(self):
        parsed = parse("[_, a, _] . [_, b, _]")
        assert parsed == join(atom(label="a"), atom(label="b"))

    def test_join_chain_flattens(self):
        parsed = parse("[_, a, _] . [_, b, _] . [_, c, _]")
        assert isinstance(parsed, Join)
        assert len(parsed.parts) == 3

    def test_product(self):
        parsed = parse("[_, a, _] & [_, b, _]")
        assert isinstance(parsed, Product)

    def test_union_precedence_lower_than_join(self):
        parsed = parse("[_, a, _] . [_, b, _] | [_, c, _]")
        assert isinstance(parsed, Union)
        assert isinstance(parsed.parts[0], Join)

    def test_parentheses_override(self):
        parsed = parse("[_, a, _] . ([_, b, _] | [_, c, _])")
        assert isinstance(parsed, Join)
        assert isinstance(parsed.parts[1], Union)

    def test_star_plus_optional(self):
        assert parse("[_, a, _]*") == star(atom(label="a"))
        assert parse("[_, a, _]+") == Repeat(atom(label="a"), 1, None)
        assert parse("[_, a, _]?") == Repeat(atom(label="a"), 0, 1)

    def test_exact_repetition(self):
        assert parse("[_, a, _]{3}") == Repeat(atom(label="a"), 3, 3)

    def test_range_repetition(self):
        assert parse("[_, a, _]{2,4}") == Repeat(atom(label="a"), 2, 4)

    def test_open_range_repetition(self):
        assert parse("[_, a, _]{2,}") == Repeat(atom(label="a"), 2, None)

    def test_stacked_postfix(self):
        parsed = parse("[_, a, _]?*")
        assert parsed == Star(Repeat(atom(label="a"), 0, 1))


class TestParserLiterals:
    def test_single_edge_literal(self):
        assert parse("{(j, alpha, i)}") == literal(("j", "alpha", "i"))

    def test_multi_path_literal(self):
        parsed = parse("{(a, x, b); (c, y, d)}")
        assert isinstance(parsed, Literal)
        assert len(parsed.path_set) == 2

    def test_multi_edge_path_literal(self):
        parsed = parse("{(a, x, b, b, y, c)}")
        assert Path.of(("a", "x", "b"), ("b", "y", "c")) in parsed.path_set

    def test_empty_literal_set(self):
        parsed = parse("{}")
        assert isinstance(parsed, Literal)
        assert len(parsed.path_set) == 0

    def test_bad_arity_reported(self):
        with pytest.raises(PathQLSyntaxError) as info:
            parse("{(a, x)}")
        assert "multiple of 3" in str(info.value)

    def test_literal_vs_repetition_disambiguation(self):
        # {2} after an atom is repetition; {(..)} in primary position is a set.
        repetition = parse("[_, a, _]{2}")
        assert isinstance(repetition, Repeat)
        lit = parse("[_, a, _] . {(x, y, z)}")
        assert isinstance(lit.parts[1], Literal)


class TestParserErrors:
    def test_trailing_garbage(self):
        with pytest.raises(PathQLSyntaxError):
            parse("[_, a, _] ]")

    def test_missing_bracket(self):
        with pytest.raises(PathQLSyntaxError):
            parse("[_, a")

    def test_empty_input(self):
        with pytest.raises(PathQLSyntaxError):
            parse("")

    def test_dangling_operator(self):
        with pytest.raises(PathQLSyntaxError):
            parse("[_, a, _] .")

    def test_error_carries_position(self):
        with pytest.raises(PathQLSyntaxError) as info:
            parse("[_, a, _] . . [_, b, _]")
        assert info.value.position is not None


class TestEndToEnd:
    def test_figure1_query_parses_to_the_dataset_expression(self):
        from repro.datasets import figure1_expression
        text = ("[i, alpha, _] . [_, beta, _]* . "
                "(([_, alpha, j] . {(j, alpha, i)}) | [_, alpha, k])")
        assert parse(text) == figure1_expression()

    def test_parsed_query_evaluates(self, diamond):
        result = evaluate(parse("[_, alpha, _] . [_, beta, _]"), diamond, 4)
        assert len(result) == 2

    def test_round_trip_semantics_via_str(self, diamond):
        """str() of a parsed expression re-parses to the same language."""
        text = "[a, _, _] . ([_, beta, _] | [_, alpha, _])"
        expr = parse(text)
        reparsed = parse(str(expr).replace("x", "&"))
        assert evaluate(expr, diamond, 4) == evaluate(reparsed, diamond, 4)
