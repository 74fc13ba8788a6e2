"""Tests for label-DFA minimization and language equivalence."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpq import (
    accepts_label_word,
    build_label_nfa,
    determinize,
    lconcat,
    loptional,
    lplus,
    lstar,
    lunion,
    sym,
)
from repro.rpq.labelregex import LabelEpsilon
from repro.rpq.minimize import equivalent, expressions_equivalent, minimize

ALPHABET = ["a", "b"]


def dfa_of(expr):
    return determinize(build_label_nfa(expr), ALPHABET)


class TestMinimize:
    def test_minimization_preserves_language(self):
        expr = lconcat(lunion(sym("a"), sym("b")), lstar(sym("a")))
        dfa = dfa_of(expr)
        small = minimize(dfa, ALPHABET)
        words = [[], ["a"], ["b"], ["a", "a"], ["b", "a", "a"], ["a", "b"],
                 ["b", "b"], ["a", "a", "a"]]
        for word in words:
            assert small.accepts(word) == dfa.accepts(word), word

    def test_minimization_never_grows(self):
        expressions = [
            lstar(lunion(sym("a"), sym("b"))),
            lconcat(sym("a"), sym("a"), sym("a")),
            lunion(lconcat(sym("a"), sym("b")), lconcat(sym("a"), sym("b"))),
            loptional(lplus(sym("a"))),
        ]
        for expr in expressions:
            dfa = dfa_of(expr)
            assert minimize(dfa, ALPHABET).num_states <= dfa.num_states

    def test_redundant_branches_collapse(self):
        # (ab) | (ab) determinizes with duplicated structure; the minimal
        # DFA for 'ab' needs exactly 3 live states.
        expr = lunion(lconcat(sym("a"), sym("b")), lconcat(sym("a"), sym("b")))
        small = minimize(dfa_of(expr), ALPHABET)
        assert small.num_states == 3

    def test_sigma_star_minimizes_to_one_state(self):
        small = minimize(dfa_of(lstar(lunion(sym("a"), sym("b")))), ALPHABET)
        assert small.num_states == 1
        assert small.accepts(["a", "b", "a"])

    def test_empty_language_minimizes_to_trivial(self):
        from repro.rpq.labelregex import LabelEmpty
        small = minimize(dfa_of(LabelEmpty()), ALPHABET)
        assert small.num_states == 1
        assert not small.accepts([])
        assert not small.accepts(["a"])

    def test_idempotent(self):
        dfa = dfa_of(lconcat(sym("a"), lstar(sym("b"))))
        once = minimize(dfa, ALPHABET)
        twice = minimize(once, ALPHABET)
        assert once.num_states == twice.num_states


class TestEquivalence:
    def test_classic_identities(self):
        a, b = sym("a"), sym("b")
        assert expressions_equivalent(lstar(lunion(a, b)),
                                      lstar(lconcat(lstar(a), lstar(b))))
        assert expressions_equivalent(lplus(a), lconcat(a, lstar(a)))
        assert expressions_equivalent(loptional(a), lunion(a, LabelEpsilon()))
        assert expressions_equivalent(lstar(lstar(a)), lstar(a))

    def test_non_equivalent_detected(self):
        a, b = sym("a"), sym("b")
        assert not expressions_equivalent(lconcat(a, b), lconcat(b, a))
        assert not expressions_equivalent(lstar(a), lplus(a))
        assert not expressions_equivalent(a, lunion(a, b))

    def test_equivalence_after_minimization(self):
        expr = lconcat(lunion(sym("a"), sym("b")), sym("a"))
        dfa = dfa_of(expr)
        assert equivalent(dfa, minimize(dfa, ALPHABET), ALPHABET)


def _label_exprs(depth=2):
    base = st.one_of(st.builds(sym, st.sampled_from(ALPHABET)),
                     st.just(LabelEpsilon()))
    if depth == 0:
        return base
    sub = _label_exprs(depth - 1)
    return st.one_of(
        base,
        st.builds(lambda x, y: lconcat(x, y), sub, sub),
        st.builds(lambda x, y: lunion(x, y), sub, sub),
        st.builds(lstar, base),
    )


@settings(max_examples=50, deadline=None)
@given(_label_exprs(), st.lists(st.sampled_from(ALPHABET), max_size=5))
def test_minimized_dfa_agrees_with_nfa_on_random_words(expr, word):
    dfa = minimize(dfa_of(expr), ALPHABET)
    assert dfa.accepts(word) == accepts_label_word(expr, word)


@settings(max_examples=40, deadline=None)
@given(_label_exprs())
def test_every_expression_equivalent_to_itself_minimized(expr):
    dfa = dfa_of(expr)
    assert equivalent(dfa, minimize(dfa, ALPHABET), ALPHABET)
