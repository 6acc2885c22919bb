"""Exact Grundy values by memoized exhaustive search.

This is the ground-truth oracle that every closed-form solver is checked
against.  A position's Grundy value is the mex of its children's values
(0 at positions with no legal move); under normal play the player to move
wins exactly when the value is nonzero.  Independent subgames combine by
nim-sum (binary addition without carry), e.g. 3 xor 6 = 5.

Subgames.  Once L is nonempty, every component C of G - L is an
independent subgame, in both variants.  Every neighbour of C outside C
is labeled, and L is P3-closed, so each vertex of C has at most one
labeled neighbour.  Hence the hull inside C and distance-two legality
inside C depend on C alone: labeling all of G - C instead of L changes
neither.  The search memoizes val(C), the value of the game confined to
C with everything else labeled:

    val(C) = mex over the legal x in C of the nim-sum of val(D)
             over the components D of C - hull((G - C) + x)

Expanding C reads C alone: the hull of each child starts from the
closed set G - C and the boundary of C, and the distance-two rule grows
from that boundary, so a child costs O(|C|), not O(n).

A position with L nonempty is worth the nim-sum of val(C) over the
components of G - L, and so is the free start (the components of G).
The connected start is the one position that is not a sum: the opening
picks a component and play never leaves it.  On a connected graph it is
val(G); on a disconnected one it is a mex over every opening and is not
memoized.

Entries are keyed by (component bitmask, variant) per graph; there is no
isomorphism-based canonicalization.  Correctness first: symmetry
reduction is an optimization with high bug risk.  The search keeps its
own stack, so Python's recursion limit does not bound the graph size.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import reduce
from operator import xor
from typing import Iterable, Optional

from .graphs import Graph, bits, components
from .closure import Position, Variant, hull, legal_moves_raw

#: Default cap on stored components; exceeding it aborts the search
#: instead of ever returning an approximate answer.
DEFAULT_BUDGET = 50_000_000


class ResourceLimitError(RuntimeError):
    """The search outgrew its node budget; the instance is too large."""


def mex(values: Iterable[int]) -> int:
    """Smallest nonnegative integer not among ``values``."""
    seen = set(values)
    k = 0
    while k in seen:
        k += 1
    return k


def nim_sum(values: Iterable[int]) -> int:
    """Fold by exclusive-or; empty input gives 0."""
    return reduce(xor, values, 0)


class Player(enum.Enum):
    FIRST = "first"
    SECOND = "second"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a start position.

    winner is First exactly when grundy is nonzero.  witness is a winning
    first move (the lowest-numbered one) and is present exactly when the
    first player wins.
    """

    winner: Player
    grundy: int
    witness: Optional[int]

    def __post_init__(self):
        if not isinstance(self.grundy, int) or self.grundy < 0:
            raise ValueError("grundy value must be a nonnegative integer")
        if (self.winner is Player.FIRST) != (self.grundy != 0):
            raise ValueError("winner and grundy value disagree")
        if self.witness is not None and self.winner is not Player.FIRST:
            raise ValueError("only a winning first player has a witness move")

    def to_json_dict(self) -> dict:
        return {"winner": self.winner.value,
                "grundy": self.grundy,
                "witness": self.witness}


class TranspositionTable:
    """Memo of final Grundy values for one graph.

    ``entries[variant]`` maps a component mask C to val(C) (see the
    module docstring).  Every stored C is connected and G - C is
    P3-closed.  An entry, once written, never changes; a conflicting
    write raises.  The budget counts entries of both variants.  The
    search reads ``entries`` directly and writes through ``store``.
    """

    __slots__ = ("graph", "budget", "entries", "size")

    def __init__(self, graph: Graph, budget: int = DEFAULT_BUDGET):
        if budget < 1:
            raise ValueError("budget must be positive")
        self.graph = graph
        self.budget = budget
        self.entries: dict[Variant, dict[int, int]] = {v: {} for v in Variant}
        self.size = 0  # entries of both variants, kept by store

    def lookup(self, component: int, variant: Variant) -> Optional[int]:
        return self.entries[variant].get(component)

    def store(self, component: int, variant: Variant, value: int) -> None:
        entries = self.entries[variant]
        prior = entries.get(component)
        if prior is not None:
            if prior != value:
                raise AssertionError(
                    "transposition table corruption: %r stored %d, got %d"
                    % ((component, variant), prior, value))
            return
        if self.size >= self.budget:
            raise ResourceLimitError(
                "node budget of %d table entries exceeded" % self.budget)
        entries[component] = value
        self.size += 1

    def __len__(self):
        return self.size


def _table_for(p: Position, table: Optional[TranspositionTable],
               budget: Optional[int] = None) -> TranspositionTable:
    """``table`` once checked to belong to p's graph, or a new table."""
    if table is None:
        return TranspositionTable(
            p.graph, DEFAULT_BUDGET if budget is None else budget)
    if table.graph is not p.graph and table.graph != p.graph:
        raise ValueError("transposition table belongs to a different graph")
    return table


def grundy(p: Position, table: Optional[TranspositionTable] = None,
           budget: Optional[int] = None) -> int:
    """Exact Grundy value of a position."""
    table = _table_for(p, table, budget)
    return _position_value(p.graph, p.labeled, p.variant, table)


def _position_value(g: Graph, labeled: int, variant: Variant,
                    table: TranspositionTable) -> int:
    parts = components(g, g.full_mask & ~labeled)
    if labeled == 0 and variant is Variant.CONNECTED and len(parts) > 1:
        # not a sum: the opening picks the component that play stays in
        return mex(_position_value(g, hull(g, 1 << x), variant, table)
                   for x in bits(legal_moves_raw(g, 0, variant)))
    return nim_sum(_component_value(g, c, variant, table) for c in parts)


def _component_value(g: Graph, comp: int, variant: Variant,
                     table: TranspositionTable) -> int:
    """val(comp), evaluating what is not yet memoized below it from an
    explicit stack of components.  Each expansion scans C once for its
    boundary (the vertices of C with a neighbour outside C, one each),
    which seeds the legal moves and every child's hull."""
    memo = table.entries[variant]
    if comp in memo:
        return memo[comp]
    adj, full = g.adj, g.full_mask
    stack = [comp]
    expanded = {}  # component on the stack -> its children, split in parts
    while stack:
        c = stack[-1]
        children = expanded.pop(c, None)
        if children is None:
            if c in memo:
                stack.pop()  # pushed twice, solved since
                continue
            outside = full & ~c
            edge = 0
            scan = c
            while scan:
                low = scan & -scan
                if adj[low.bit_length() - 1] & outside:
                    edge |= low
                scan ^= low
            rests = {c & ~hull(g, outside | 1 << x, outside, edge)
                     for x in bits(legal_moves_raw(g, outside, variant, edge))}
            # only components are stored, so a stored rest is one
            children = [[rest] if rest in memo else components(g, rest)
                        for rest in rests]
            unsolved = [d for parts in children for d in parts
                        if d not in memo]
            if unsolved:
                expanded[c] = children
                stack += unsolved
                continue
        stack.pop()
        value = mex(nim_sum(memo[d] for d in parts) for parts in children)
        table.store(c, variant, value)
    return value


def decide(g: Graph, variant: Variant,
           budget: Optional[int] = None) -> Verdict:
    """Solve the start position: winner, Grundy value, and the
    lowest-numbered winning first move when one exists."""
    if g.n < 1:
        raise ValueError("cannot decide the game on an empty graph")
    table = TranspositionTable(g, DEFAULT_BUDGET if budget is None else budget)
    value = _position_value(g, 0, variant, table)
    witness = None
    if value != 0:
        for x in bits(legal_moves_raw(g, 0, variant)):
            if _position_value(g, hull(g, 1 << x), variant, table) == 0:
                witness = x
                break
        assert witness is not None, "nonzero position must have a 0-child"
    winner = Player.FIRST if value != 0 else Player.SECOND
    return Verdict(winner, value, witness)


def best_move(p: Position, table: Optional[TranspositionTable] = None) -> Optional[int]:
    """A move to a Grundy-0 child if one exists, else the lowest-numbered
    legal move, else None (no legal move)."""
    table = _table_for(p, table)
    moves = legal_moves_raw(p.graph, p.labeled, p.variant)
    if moves == 0:
        return None
    fallback = None
    for x in bits(moves):
        if fallback is None:
            fallback = x
        child = hull(p.graph, p.labeled | (1 << x))
        if _position_value(p.graph, child, p.variant, table) == 0:
            return x
    return fallback
