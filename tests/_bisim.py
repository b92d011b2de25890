"""Strong bisimulation between two explored transition systems.

Naive partition refinement (Kanellakis & Smolka 1990) over the disjoint
union of both systems: start with one block and split every block by
the set of (label, successor block) pairs of its states until no block
splits.  Two states are strongly bisimilar iff they end in one block.
"""
from __future__ import annotations

from typing import Callable, Hashable, List, Tuple

from abclang.explorer import LTS, Transition


def full_label(t: Transition) -> Hashable:
    """The whole broadcast: sender, message, closed predicate, exposed
    environment, receivers with their branch, and discarders."""
    return t.event


def behaviour_label(t: Transition) -> Hashable:
    """The broadcast without the receivers' branch ordinals: sender,
    message, closed predicate, exposed environment, receiver set and
    discard set.  An ordinal indexes an input occurrence in the syntax of
    the stored state.  A reduction that merges states keeps whichever was
    reached first, and merged states may lay out `|` differently, so two
    equivalent systems can number the same branch differently."""
    e = t.event
    receivers = frozenset(j for j, _ordinal in e.receivers)
    return (e.sender, e.message, e.sent_pred, e.exposed_env, receivers, e.discarded)


def bisimilar(a: LTS, b: LTS, label: Callable[[Transition], Hashable] = full_label) -> bool:
    """Whether the initial states of `a` and `b` are strongly bisimilar
    when transitions are compared by `label`."""
    offset = len(a.states)
    n = offset + len(b.states)
    edges: List[List[Tuple[Hashable, int]]] = [[] for _ in range(n)]
    for base, lts in ((0, a), (offset, b)):
        for t in lts.transitions:
            edges[base + t.src].append((label(t), base + t.dst))
    block = [0] * n
    count = 1
    while True:
        # the old block is part of the signature, so blocks only split
        signatures: dict = {}
        block = [
            signatures.setdefault(
                (block[s], frozenset((lab, block[d]) for lab, d in edges[s])), len(signatures)
            )
            for s in range(n)
        ]
        if len(signatures) == count:
            break
        count = len(signatures)
    return block[a.initial] == block[offset + b.initial]
