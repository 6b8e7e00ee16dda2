"""Projections of contract BAs onto literal sets (§5.1, Definition 8).

Given a contract BA ``A`` and a set of literals ``L``, the projection
``π_L(A)`` keeps only the literals of ``L`` on every transition label.
Theorem 7 shows the projection is *permission-equivalent* to ``A`` for
every query whose literals (restricted to contract events) have all
their negations inside ``L`` — the only information compatibility ever
consumes from a contract label is whether it contains the negation of a
query literal.

Projections by themselves do not shrink the automaton, but they make
previously distinct labels equal, which is what lets the bisimulation
quotient collapse states (§5.1, Example 12).
"""

from __future__ import annotations

from typing import Iterable

from ..automata.buchi import BuchiAutomaton, Transition
from ..automata.encode import EncodedAutomaton
from ..automata.labels import Label, Literal


def project(ba: BuchiAutomaton, keep: Iterable[Literal]) -> BuchiAutomaton:
    """The projection ``π_keep(ba)``: same states, labels restricted to
    the given literals, duplicate transitions merged.

    Distinct labels are restricted once and the results shared across
    transitions — the projection store calls this for hundreds of
    subsets per contract, so the per-transition constant matters.
    """
    keep_set = frozenset(keep)
    restricted: dict[Label, Label] = {}
    transitions = set()
    for t in ba.transitions():
        label = restricted.get(t.label)
        if label is None:
            label = t.label.restrict(keep_set)
            restricted[t.label] = label
        transitions.add((t.src, label, t.dst))
    return BuchiAutomaton(
        ba.states,
        ba.initial,
        [Transition(src, label, dst) for src, label, dst in transitions],
        ba.final,
    )


def project_label_classes(
    encoded: EncodedAutomaton, keep: Iterable[Literal]
) -> list[int]:
    """The projection ``π_keep`` on an encoding: one projected label id
    per encoded label class, equal ids for classes whose labels restrict
    to the same label.

    A class ``(pos, neg)`` restricts to ``(pos & keep_pos, neg &
    keep_neg)``; every kept literal's event must be in the encoding's
    vocabulary.
    """
    keep_pos = keep_neg = 0
    for lit in keep:
        bit = 1 << encoded.event_index[lit.event]
        if lit.positive:
            keep_pos |= bit
        else:
            keep_neg |= bit
    ids: dict[tuple[int, int], int] = {}
    return [
        ids.setdefault((p & keep_pos, n & keep_neg), len(ids))
        for p, n in zip(encoded.label_pos, encoded.label_neg)
    ]


def workload_projection_subsets(
    contract_literals: frozenset[Literal],
    query_literal_sets: Iterable[Iterable[Literal]],
) -> set[frozenset[Literal]]:
    """The projection subsets an expected query workload will request
    from a contract citing ``contract_literals`` (§5.2's workload-guided
    precomputation): one :func:`required_literals` set per query."""
    return {
        required_literals(literals, contract_literals)
        for literals in query_literal_sets
    }


def required_literals(
    query_literals: Iterable[Literal],
    contract_literals: frozenset[Literal],
) -> frozenset[Literal]:
    """The literal set a precomputed projection must contain to serve a
    query (Theorem 7): the negations of the query BA's literals,
    restricted to literals the contract actually cites.

    Negations of query literals the contract never cites can be dropped:
    a label cannot conflict on a literal it does not contain.
    """
    return frozenset(
        lit.negate() for lit in query_literals
    ) & contract_literals
