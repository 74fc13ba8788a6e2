"""DFA minimization and equivalence over the finite label alphabet.

Because the label alphabet Omega is finite, the [8]-style automata admit
the classical constructions the paper's edge-set automata do not:

* :func:`minimize` — Moore's partition-refinement minimization (the
  canonical minimal DFA; pre-flight, :func:`repro.analysis.query.prune_dfa`,
  hands it to every product kernel),
* :func:`equivalent` — language equivalence by product BFS over the two
  automata's reachable pair space,
* :func:`expressions_equivalent` — one-call equivalence of two label
  expressions (compile, determinize over the union alphabet, compare).

These power the regex-equivalence tests (e.g. ``(a|b)* == (a* b*)*``) and
give downstream users a decision procedure for query containment at the
label level.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Set, Tuple

from repro.rpq.labelregex import (
    LabelDFA,
    LabelExpr,
    build_label_nfa,
    determinize,
)

__all__ = ["minimize", "equivalent", "expressions_equivalent"]

#: Sentinel index for the implicit dead (reject-everything) state.
_DEAD = -1


def _complete_step(dfa: LabelDFA, state: int, label: Hashable) -> int:
    """Transition in the completed automaton (missing moves go dead)."""
    if state == _DEAD:
        return _DEAD
    return dfa.transitions[state].get(label, _DEAD)


def minimize(dfa: LabelDFA, alphabet: Iterable[Hashable]) -> LabelDFA:
    """Moore's algorithm: merge states with identical residual languages.

    Only states reachable from the start over ``alphabet`` take part.  The
    automaton is implicitly completed with a dead state, whose class is
    dropped again on output (missing transitions mean rejection, matching
    :class:`LabelDFA` conventions), so every state that cannot reach
    acceptance goes with it.  The start state is numbered 0 and the others
    in breadth-first order, which makes the result canonical.
    """
    alphabet = sorted(set(alphabet), key=repr)
    rows = dfa.transitions
    states: List[int] = [dfa.start]
    seen = {dfa.start}
    for state in states:  # breadth-first: the list grows as it is walked
        for label in alphabet:
            target = rows[state].get(label)
            if target is not None and target not in seen:
                seen.add(target)
                states.append(target)
    states.append(_DEAD)

    # Initial partition: accepting vs non-accepting (dead is non-accepting).
    partition: Dict[int, int] = {
        state: int(state in dfa.accepting) for state in states}
    classes = len(set(partition.values()))
    while True:
        # Signature: own class + class of each labeled successor.  The new
        # partition refines the old one, so an unchanged class count means
        # it is stable.
        renumber: Dict[Tuple, int] = {}
        refined: Dict[int, int] = {}
        for state in states:
            signature = (partition[state],) + tuple(
                partition[_complete_step(dfa, state, label)]
                for label in alphabet)
            refined[state] = renumber.setdefault(signature, len(renumber))
        partition = refined
        if len(renumber) == classes:
            break
        classes = len(renumber)

    dead_class = partition[_DEAD]
    if partition[dfa.start] == dead_class:
        # The language is empty: a single non-accepting state suffices.
        return LabelDFA(0, frozenset(), [{}])
    # Build the quotient from one representative per live class, numbered
    # by its first state in breadth-first order: start first.
    index_of: Dict[int, int] = {}
    representatives: List[int] = []
    for state in states:
        if partition[state] not in index_of \
                and partition[state] != dead_class:
            index_of[partition[state]] = len(representatives)
            representatives.append(state)
    transitions: List[Dict[Hashable, int]] = []
    for state in representatives:
        row: Dict[Hashable, int] = {}
        for label in alphabet:
            target = index_of.get(partition[_complete_step(dfa, state, label)])
            if target is not None:
                row[label] = target
        transitions.append(row)
    accepting = frozenset(index_of[partition[state]]
                          for state in representatives
                          if state in dfa.accepting)
    return LabelDFA(0, accepting, transitions)


def equivalent(first: LabelDFA, second: LabelDFA,
               alphabet: Iterable[Hashable]) -> bool:
    """Language equality by synchronized BFS over the completed product.

    Two automata differ exactly when some reachable state pair disagrees
    on acceptance; BFS finds the shortest such witness or exhausts the
    product space.
    """
    alphabet = sorted(set(alphabet), key=repr)

    def accepts(dfa: LabelDFA, state: int) -> bool:
        return state != _DEAD and state in dfa.accepting

    start = (first.start, second.start)
    seen: Set[Tuple[int, int]] = {start}
    queue: deque = deque([start])
    while queue:
        state_a, state_b = queue.popleft()
        if accepts(first, state_a) != accepts(second, state_b):
            return False
        for label in alphabet:
            pair = (_complete_step(first, state_a, label),
                    _complete_step(second, state_b, label))
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return True


def expressions_equivalent(first: LabelExpr, second: LabelExpr) -> bool:
    """Decide ``L(first) == L(second)`` over their combined alphabet."""
    alphabet = set(first.symbols()) | set(second.symbols())
    dfa_a = determinize(build_label_nfa(first), alphabet)
    dfa_b = determinize(build_label_nfa(second), alphabet)
    return equivalent(dfa_a, dfa_b, alphabet)
