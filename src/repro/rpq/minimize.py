"""DFA minimization and equivalence over the finite label alphabet.

Because the label alphabet Omega is finite, the [8]-style automata admit
the classical constructions the paper's edge-set automata do not:

* :func:`minimize` — Moore's partition-refinement minimization (the
  canonical minimal DFA, up to state naming),
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

    The input is implicitly completed with a dead state; the dead class is
    dropped again on output (missing transitions mean rejection, matching
    :class:`LabelDFA` conventions).
    """
    alphabet = sorted(set(alphabet), key=repr)
    states: List[int] = list(range(dfa.num_states)) + [_DEAD]

    # Initial partition: accepting vs non-accepting (dead is non-accepting).
    def is_accepting(state: int) -> bool:
        return state in dfa.accepting

    partition: Dict[int, int] = {
        state: (1 if is_accepting(state) else 0) for state in states}
    while True:
        # Signature: own class + class of each labeled successor.
        signatures: Dict[int, Tuple] = {}
        for state in states:
            signatures[state] = (
                partition[state],
                tuple(partition[_complete_step(dfa, state, label)]
                      for label in alphabet),
            )
        renumber: Dict[Tuple, int] = {}
        refined: Dict[int, int] = {}
        for state in states:
            signature = signatures[state]
            if signature not in renumber:
                renumber[signature] = len(renumber)
            refined[state] = renumber[signature]
        if refined == partition:
            break
        partition = refined

    # Build the quotient, skipping the dead class entirely.
    dead_class = partition[_DEAD]
    class_ids = sorted(set(partition.values()) - {dead_class})
    index_of = {cls: position for position, cls in enumerate(class_ids)}
    transitions: List[Dict[Hashable, int]] = [{} for _ in class_ids]
    for state in range(dfa.num_states):
        cls = partition[state]
        if cls == dead_class:
            continue
        source = index_of[cls]
        for label in alphabet:
            target_state = _complete_step(dfa, state, label)
            target_class = partition[target_state]
            if target_class == dead_class:
                continue
            transitions[source][label] = index_of[target_class]
    accepting = frozenset(
        index_of[partition[state]] for state in dfa.accepting
        if partition[state] != dead_class)
    start_class = partition[dfa.start]
    if start_class == dead_class:
        # The language is empty: a single non-accepting state suffices.
        return LabelDFA(0, frozenset(), [{}])
    return LabelDFA(index_of[start_class], accepting, transitions)


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
