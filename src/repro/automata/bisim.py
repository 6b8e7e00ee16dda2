"""Bisimulation partition refinement and quotient automata.

This is the engine behind the paper's §5 optimization: collapsing
bisimilar states of (projected) contract BAs yields smaller automata that
are *equivalent* for permission checking (Theorems 8 and 9).  It is also
reused as a generic state-reduction pass after LTL translation.

Definition 9 of the paper: states ``a ~ b`` iff

1. ``a`` is final iff ``b`` is final, and
2. for every edge ``a --λ--> a'`` there is ``b --λ--> b'`` with
   ``a' ~ b'``, and vice versa.

The coarsest such relation is computed by *signature refinement*: start
from the {final, non-final} partition (possibly pre-refined by a caller-
supplied partition — see :func:`bisimulation_partition`'s ``seed``) and
repeatedly split blocks by the set of ``(label, successor block)`` pairs
until stable.  The loop runs on an automaton's int encoding
(:class:`~repro.automata.encode.EncodedAutomaton`), where a label is a
label-class id and a projection is just a coarser class numbering (see
:func:`repro.projection.project.project_label_classes`).  Seeding is
what makes the all-subsets projection computation of §5.3 cheap: by
Theorem 3 the partition for a literal set ``L' ⊇ L`` refines the one
for ``L``, so refinement can resume from the parent's partition instead
of restarting from scratch.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from .buchi import BuchiAutomaton, Transition
from .encode import EncodedAutomaton, encode_automaton
from .labels import Label

State = Hashable

#: A partition is a mapping from state to block id; block ids are dense
#: integers but carry no meaning beyond identity.
Partition = dict


def refine_encoded(
    encoded: EncodedAutomaton,
    label_ids: Sequence[int],
    seed: Sequence[int] | None = None,
) -> list[int]:
    """The coarsest bisimulation of an encoded automaton, as one block id
    per encoded state id.

    ``label_ids[c]`` names the label of encoded label class ``c``; classes
    sharing an id count as one label, which is how a projection merges
    labels without rebuilding the automaton.  ``seed`` (one block per
    state) must be coarser than or equal to the result; it is
    intersected with the final/non-final split.  Blocks are numbered by
    first appearance in id order; ids follow ``_state_key`` order, so a
    partition's numbering depends only on the automaton, which keeps
    persisted partitions stable.
    """
    n = encoded.num_states
    final = encoded.final_mask
    offsets = encoded.offsets
    trans_labels = encoded.trans_labels
    trans_dsts = encoded.trans_dsts
    # per state, its distinct (label, successor) edges with the label
    # pre-scaled so that ``label + block`` is a unique int signature entry
    edges = [
        tuple({
            (label_ids[trans_labels[t]] * n, trans_dsts[t])
            for t in range(offsets[s], offsets[s + 1])
        })
        for s in range(n)
    ]
    if seed is None:
        blocks = [(final >> s) & 1 for s in range(n)]
        count = len(set(blocks))
    else:
        renumber: dict[tuple, int] = {}
        blocks = [
            renumber.setdefault((seed[s], (final >> s) & 1), len(renumber))
            for s in range(n)
        ]
        count = len(renumber)
    while True:
        signatures: dict[tuple, int] = {}
        refined = [
            signatures.setdefault(
                (blocks[s], frozenset([l + blocks[d] for l, d in edges[s]])),
                len(signatures),
            )
            for s in range(n)
        ]
        if len(signatures) == count:
            return refined
        blocks = refined
        count = len(signatures)


def bisimulation_partition(
    ba: BuchiAutomaton,
    seed: Partition | None = None,
) -> Partition:
    """The coarsest bisimulation partition of ``ba`` (Definition 9).

    Args:
        ba: the automaton.
        seed: an optional partition known to be *coarser* than (or equal
            to) the target — typically the partition of a smaller literal
            projection (Theorem 3).  Refinement resumes from it, saving
            the early rounds.  It is intersected with the final/non-final
            split, so a caller cannot accidentally violate point 1.

    The refinement itself runs on the automaton's int encoding
    (:func:`refine_encoded`).
    """
    encoded = encode_automaton(ba)
    blocks = refine_encoded(
        encoded,
        range(encoded.num_label_classes),
        None if seed is None else [seed[state] for state in encoded.states],
    )
    return dict(zip(encoded.states, blocks))


def blocks_of(partition: Partition) -> list[frozenset]:
    """The partition as a list of state blocks, ordered by block id."""
    by_id: dict[int, set] = {}
    for state, block in partition.items():
        by_id.setdefault(block, set()).add(state)
    return [frozenset(by_id[i]) for i in sorted(by_id)]


def quotient(ba: BuchiAutomaton, partition: Partition) -> BuchiAutomaton:
    """The quotient automaton of Definition 10.

    States are block ids; the initial state is the block of the original
    initial state; a block is final iff it contains only final states
    (blocks are final-pure because refinement starts from the
    final/non-final split); transitions are the images of the original
    ones, deduplicated.
    """
    block_ids = set(partition.values())
    transitions: set[tuple[int, Label, int]] = set()
    for t in ba.transitions():
        transitions.add((partition[t.src], t.label, partition[t.dst]))
    impure = {partition[s] for s in ba.states if s not in ba.final}
    final = block_ids - impure
    return BuchiAutomaton(
        block_ids,
        partition[ba.initial],
        [Transition(src, label, dst) for src, label, dst in transitions],
        final,
    )


def quotient_by_bisimulation(ba: BuchiAutomaton) -> BuchiAutomaton:
    """Convenience: quotient by the coarsest bisimulation."""
    return quotient(ba, bisimulation_partition(ba))


def partition_signature(partition: Partition) -> frozenset:
    """A canonical, block-id-independent fingerprint of a partition: the
    frozenset of its blocks.  Two partitions with equal signatures induce
    identical quotients; the projection store uses this to deduplicate
    (the paper observed ~5% distinct partitions across subsets, §5.2)."""
    return frozenset(blocks_of(partition))
