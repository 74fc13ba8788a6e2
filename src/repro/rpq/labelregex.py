"""Regular expressions over the *label* alphabet Omega — the [8] baseline.

Section IV-A closes: "Regular paths in graphs are explored in depth in [8]
(Mendelzon & Wood), where only paths with particular path labels are
considered ... in [8], a regular expression is defined for the alphabet
Omega, where above, its defined for E."

This package implements that older, label-level formulation so the two can
be compared (and because label-level RPQs are what SPARQL property paths and
Cypher relationship patterns actually standardized):

* a regex AST over Omega (this module) with Thompson NFA and subset-
  construction DFA — the alphabet is finite, so full determinization works
  here, unlike the edge-set alphabet of the main algebra;
* RPQ evaluation by product construction (:mod:`repro.rpq.evaluation`),
  including Mendelzon & Wood's *regular simple path* variant.

The AST is deliberately separate from :mod:`repro.regex`: label expressions
have no join/product distinction (labels carry no endpoints) and support
classical determinization; conflating the two would blur exactly the
contrast the paper draws.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

from repro.errors import RegexError
from repro.graph.compact import Guard

__all__ = [
    "LabelExpr",
    "LabelEmpty",
    "LabelEpsilon",
    "LabelSymbol",
    "LabelUnion",
    "LabelConcat",
    "LabelStar",
    "sym",
    "lunion",
    "lconcat",
    "lstar",
    "loptional",
    "lplus",
    "LabelNFA",
    "LabelDFA",
    "build_label_nfa",
    "determinize",
    "accepts_label_word",
]


class LabelExpr:
    """Base class for regular expressions over the label alphabet."""

    __slots__ = ()

    # -- pickling ---------------------------------------------------------
    # Like RegexExpr, subclasses pair __slots__ with a raising __setattr__,
    # which breaks pickle's default slot-state restore.  Route the state
    # protocol through object.__setattr__ (the constructors' side door) so
    # label expressions survive the trip to ParallelExecutor workers.

    def __getstate__(self) -> Dict[str, object]:
        state: Dict[str, object] = {}
        for klass in type(self).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                state[slot] = getattr(self, slot)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        for slot, value in state.items():
            object.__setattr__(self, slot, value)

    def __or__(self, other: "LabelExpr") -> "LabelExpr":
        return LabelUnion((self, other))

    def __add__(self, other: "LabelExpr") -> "LabelExpr":
        return LabelConcat((self, other))

    def star(self) -> "LabelExpr":
        """Kleene star."""
        return LabelStar(self)

    def plus(self) -> "LabelExpr":
        """One or more repetitions."""
        return LabelConcat((self, LabelStar(self)))

    def optional(self) -> "LabelExpr":
        """Zero or one occurrence."""
        return LabelUnion((self, LabelEpsilon()))

    def symbols(self) -> FrozenSet[Hashable]:
        """All labels mentioned by the expression."""
        out: Set[Hashable] = set()
        stack: List[LabelExpr] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, LabelSymbol):
                out.add(node.label)
            elif isinstance(node, (LabelUnion, LabelConcat)):
                stack.extend(node.parts)
            elif isinstance(node, LabelStar):
                stack.append(node.inner)
        return frozenset(out)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self):
        raise NotImplementedError


class LabelEmpty(LabelExpr):
    """The empty language."""

    __slots__ = ()

    def _key(self):
        return ()

    def __repr__(self):
        return "LabelEmpty()"


class LabelEpsilon(LabelExpr):
    """The language of the empty word."""

    __slots__ = ()

    def _key(self):
        return ()

    def __repr__(self):
        return "LabelEpsilon()"


class LabelSymbol(LabelExpr):
    """A single label from Omega."""

    __slots__ = ("label",)

    def __init__(self, label: Hashable):
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):
        raise AttributeError("label expressions are immutable")

    def _key(self):
        return (self.label,)

    def __repr__(self):
        return "LabelSymbol({!r})".format(self.label)


class LabelUnion(LabelExpr):
    """Alternation."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[LabelExpr]):
        object.__setattr__(self, "parts", tuple(parts))
        if not self.parts:
            raise RegexError("LabelUnion needs at least one operand")

    def __setattr__(self, name, value):
        raise AttributeError("label expressions are immutable")

    def _key(self):
        return self.parts

    def __repr__(self):
        return "LabelUnion({!r})".format(list(self.parts))


class LabelConcat(LabelExpr):
    """Concatenation (over label words, no join condition exists)."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[LabelExpr]):
        object.__setattr__(self, "parts", tuple(parts))
        if not self.parts:
            raise RegexError("LabelConcat needs at least one operand")

    def __setattr__(self, name, value):
        raise AttributeError("label expressions are immutable")

    def _key(self):
        return self.parts

    def __repr__(self):
        return "LabelConcat({!r})".format(list(self.parts))


class LabelStar(LabelExpr):
    """Kleene star."""

    __slots__ = ("inner",)

    def __init__(self, inner: LabelExpr):
        object.__setattr__(self, "inner", inner)

    def __setattr__(self, name, value):
        raise AttributeError("label expressions are immutable")

    def _key(self):
        return (self.inner,)

    def __repr__(self):
        return "LabelStar({!r})".format(self.inner)


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------

def sym(label: Hashable) -> LabelSymbol:
    """One label symbol."""
    return LabelSymbol(label)


def lunion(*parts: LabelExpr) -> LabelExpr:
    """Alternation of label expressions."""
    if not parts:
        return LabelEmpty()
    if len(parts) == 1:
        return parts[0]
    return LabelUnion(parts)


def lconcat(*parts: LabelExpr) -> LabelExpr:
    """Concatenation of label expressions."""
    if not parts:
        return LabelEpsilon()
    if len(parts) == 1:
        return parts[0]
    return LabelConcat(parts)


def lstar(expr: LabelExpr) -> LabelStar:
    """Kleene star."""
    return LabelStar(expr)


def loptional(expr: LabelExpr) -> LabelExpr:
    """Zero or one."""
    return expr.optional()


def lplus(expr: LabelExpr) -> LabelExpr:
    """One or more."""
    return expr.plus()


# ----------------------------------------------------------------------
# NFA / DFA over the finite label alphabet
# ----------------------------------------------------------------------

class LabelNFA:
    """Thompson NFA over labels (single start/accept, epsilon moves)."""

    def __init__(self) -> None:
        self.num_states = 0
        self.start = 0
        self.accept = 0
        self.epsilon: List[List[int]] = []
        self.transitions: List[Dict[Hashable, List[int]]] = []

    def new_state(self) -> int:
        state = self.num_states
        self.num_states += 1
        self.epsilon.append([])
        self.transitions.append({})
        return state

    def add_epsilon(self, source: int, target: int) -> None:
        self.epsilon[source].append(target)

    def add_transition(self, source: int, label: Hashable, target: int) -> None:
        self.transitions[source].setdefault(label, []).append(target)

    def closure(self, states: Iterable[int]) -> FrozenSet[int]:
        seen = set(states)
        stack = list(seen)
        while stack:
            state = stack.pop()
            for target in self.epsilon[state]:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return frozenset(seen)

    def step(self, states: FrozenSet[int], label: Hashable) -> FrozenSet[int]:
        out: Set[int] = set()
        for state in states:
            out.update(self.transitions[state].get(label, ()))
        return self.closure(out)


def build_label_nfa(expression: LabelExpr) -> LabelNFA:
    """Thompson construction for label expressions."""
    nfa = LabelNFA()

    def build(expr: LabelExpr) -> Tuple[int, int]:
        if isinstance(expr, LabelEmpty):
            return nfa.new_state(), nfa.new_state()
        if isinstance(expr, LabelEpsilon):
            start, accept = nfa.new_state(), nfa.new_state()
            nfa.add_epsilon(start, accept)
            return start, accept
        if isinstance(expr, LabelSymbol):
            start, accept = nfa.new_state(), nfa.new_state()
            nfa.add_transition(start, expr.label, accept)
            return start, accept
        if isinstance(expr, LabelUnion):
            start, accept = nfa.new_state(), nfa.new_state()
            for part in expr.parts:
                ps, pa = build(part)
                nfa.add_epsilon(start, ps)
                nfa.add_epsilon(pa, accept)
            return start, accept
        if isinstance(expr, LabelConcat):
            first_start, current = build(expr.parts[0])
            for part in expr.parts[1:]:
                ps, pa = build(part)
                nfa.add_epsilon(current, ps)
                current = pa
            return first_start, current
        if isinstance(expr, LabelStar):
            inner_start, inner_accept = build(expr.inner)
            start, accept = nfa.new_state(), nfa.new_state()
            nfa.add_epsilon(start, inner_start)
            nfa.add_epsilon(start, accept)
            nfa.add_epsilon(inner_accept, inner_start)
            nfa.add_epsilon(inner_accept, accept)
            return start, accept
        raise RegexError("unknown label expression {!r}".format(expr))

    start, accept = build(expression)
    nfa.start = start
    nfa.accept = accept
    return nfa


class LabelDFA:
    """A deterministic automaton over the (finite) label alphabet.

    States are integers; ``transitions[state][label] -> state``; missing
    entries are the implicit dead state.  Built by subset construction —
    possible here precisely because Omega is finite (the paper's edge-set
    alphabet is not usefully finite, hence its NFA stays nondeterministic).
    """

    def __init__(self, start: int, accepting: FrozenSet[int],
                 transitions: List[Dict[Hashable, int]]):
        self.start = start
        self.accepting = accepting
        self.transitions = transitions
        self.guarded = any(type(symbol) is Guard for row in transitions
                           for symbol in row)

    @property
    def num_states(self) -> int:
        return len(self.transitions)

    def step(self, state: Optional[int], label: Hashable) -> Optional[int]:
        """One transition; None is the dead state."""
        if state is None:
            return None
        return self.transitions[state].get(label)

    def moves(self, state: int, edge) -> Set[int]:
        """The targets out of ``state`` of every symbol ``edge`` fires —
        its label and the guards on its tail, its head or both, as the
        compact kernels fire them (deterministic over symbols, not over
        edges)."""
        row = self.transitions[state]
        label = edge.label
        symbols = [label]
        if self.guarded:
            symbols += (Guard(label, edge.tail), Guard(label, None, edge.head),
                        Guard(label, edge.tail, edge.head))
        return {row[symbol] for symbol in symbols if symbol in row}

    def accepts(self, word: Iterable[Hashable]) -> bool:
        """Run the word; accept iff the final state is accepting."""
        state: Optional[int] = self.start
        for label in word:
            state = self.step(state, label)
            if state is None:
                return False
        return state in self.accepting

    def __repr__(self) -> str:
        return "LabelDFA<{} states, {} accepting>".format(
            self.num_states, len(self.accepting))


def determinize(nfa: LabelNFA, alphabet: Iterable[Hashable]) -> LabelDFA:
    """Subset construction over an explicit alphabet."""
    alphabet = list(alphabet)
    initial = nfa.closure({nfa.start})
    index: Dict[FrozenSet[int], int] = {initial: 0}
    transitions: List[Dict[Hashable, int]] = [{}]
    worklist = [initial]
    while worklist:
        subset = worklist.pop()
        source = index[subset]
        for label in alphabet:
            target_subset = nfa.step(subset, label)
            if not target_subset:
                continue
            if target_subset not in index:
                index[target_subset] = len(transitions)
                transitions.append({})
                worklist.append(target_subset)
            transitions[source][label] = index[target_subset]
    accepting = frozenset(
        state for subset, state in index.items() if nfa.accept in subset)
    return LabelDFA(0, accepting, transitions)


def accepts_label_word(expression: LabelExpr, word: Iterable[Hashable]) -> bool:
    """One-shot NFA membership for a label word."""
    nfa = build_label_nfa(expression)
    current = nfa.closure({nfa.start})
    for label in word:
        current = nfa.step(current, label)
        if not current:
            return False
    return nfa.accept in current
