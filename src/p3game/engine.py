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
closed set G - C and the boundary of C (its vertices with a neighbour
outside C), and the distance-two rule grows from that boundary, so a
child costs O(|C|), not O(n).

The same hull splits the child and hands each part its boundary.
Besides H = hull((G - C) + x) it hands back ``ones``, C's boundary
together with the neighbours of what H took from C.  The seeds
``ones & R & ~boundary``, for the rest R = C - H, are then exactly the
vertices of R next to H's part in C: a boundary vertex of C next to
that part has a labeled neighbour outside C too, so H absorbed it.  C
is connected, so every part of R meets a seed, and ``components``
floods from the lowest seed only until the flood holds every seed
left.  A split thus floods each of its parts but the last whole, and
the last only until it holds its seeds, not at all once one seed is
left; a child that stays one part with a single seed costs no flood.
No part D of R touches another part, so ``ones & D`` is D's boundary,
and D keeps it until it is expanded.  A position with L nonempty
computes its edge N(L) - L once, and each component C of G - L takes
``edge & C`` as its boundary; every part below it inherits its own
from the hull that cut it.

Many moves of C lead to the same child, and a boundary move's hull
names them.  Let y be a move on C's boundary with hull H, and let E,
y's run, be the component of y in the boundary vertices H holds.
Every move x in H that lies in E or next to it has hull H, so the
expansion skips it.  x in H gives hull(x) inside H.  Every vertex of
E has a labeled neighbour outside C, so labeling x puts a vertex of
E into the hull (x itself, or a neighbour of x in E, which gains its
second labeled neighbour), and from there the hull spreads along E
to y; so H lies inside hull(x).  The skipped children are ones the
expansion would have found again; keying the children by the rest
C - H drops the repeats that the rule does not name.

In the connected game the table also keeps splits.  Its positions are
few, so the search meets the same child by many move orders, and a
rest C - H of two or more parts is no entry of its own: unremembered,
it is flooded again each time.  ``TranspositionTable.split`` floods a
rest only the first time it meets it and keeps the parts when there
are two or more; a rest of one part becomes an entry once solved.
This is exact, since the parts of a rest are the components of the
graph it induces whatever seeds found them, and the seeds meet every
part.  The free game floods every rest as before, with ``components``
chosen once per call: its multi-part rests rarely recur, and on the
free ``random_tree(26, Random(1))`` the same memo held 98,843 rests
against 13,200 entries and took peak RSS from 20.2 to 45.8 MB.

A position with L nonempty is worth the nim-sum of val(C) over the
components of G - L.  The start is worth the mex of the values after
its openings, in both variants: every vertex is a legal opening and is
its own hull.  So the start itself is not memoized, and in the
connected game on a disconnected graph the opening picks the component
play stays in, with no special case.

Entries are keyed by (component bitmask, variant) per graph; there is no
isomorphism-based canonicalization.  Correctness first: symmetry
reduction is an optimization with high bug risk.  The search keeps its
own stack, so Python's recursion limit does not bound the graph size.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from functools import reduce
from operator import xor

from .graphs import Graph, bits, components
from .closure import (Position, Record, Variant, hull, hull_and_boundary,
                      legal_moves_raw)

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


def _is_count(x) -> bool:
    """x is a nonnegative int (a bool is not a count)."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


class Player(enum.Enum):
    FIRST = "first"
    SECOND = "second"


class Verdict(Record):
    """Outcome of a start position.

    winner is First exactly when grundy is nonzero.  witness is a winning
    first move (the lowest-numbered one) and is present exactly when the
    first player wins.  Verdicts are immutable values (see
    closure.Record); the ``dataclasses`` helpers do not apply to them.
    """

    __slots__ = __match_args__ = ("winner", "grundy", "witness")

    def __init__(self, winner: Player, grundy: int, witness: int | None):
        if not _is_count(grundy):
            raise ValueError("grundy value must be a nonnegative integer")
        if (winner is Player.FIRST) != (grundy != 0):
            raise ValueError("winner and grundy value disagree")
        if (witness is not None) != (winner is Player.FIRST):
            raise ValueError("a witness move is present exactly when the "
                             "first player wins")
        if witness is not None and not _is_count(witness):
            raise ValueError("witness must be a nonnegative integer")
        object.__setattr__(self, "winner", winner)
        object.__setattr__(self, "grundy", grundy)
        object.__setattr__(self, "witness", witness)

    def _values(self):
        return self.winner, self.grundy, self.witness

    @classmethod
    def from_openings(cls, values: list[int]) -> "Verdict":
        """Verdict of a game from ``values``, the value after each opening
        by vertex: their mex, with the lowest opening worth 0 as the
        witness."""
        if not values:
            raise ValueError("cannot decide the game on an empty graph")
        value = mex(values)
        if value == 0:
            return cls(Player.SECOND, 0, None)
        return cls(Player.FIRST, value, values.index(0))

    def to_json_dict(self) -> dict:
        return {"winner": self.winner.value,
                "grundy": self.grundy,
                "witness": self.witness}


class TranspositionTable:
    """Memo of final Grundy values for one graph, and of the parts of
    the rests that split.

    ``entries[variant]`` maps a component mask C to val(C) (see the
    module docstring).  Every stored C is connected and G - C is
    P3-closed.  An entry, once written, never changes; a conflicting
    write raises.  The budget counts entries of both variants, not
    splits.  The search reads ``entries`` directly and writes through
    ``store``.

    ``splits`` maps a rest that falls into two or more parts to the
    list of its parts, the components of the graph it induces; the
    connected search fills it through ``split``.
    """

    __slots__ = ("graph", "budget", "entries", "size", "splits")

    def __init__(self, graph: Graph, budget: int = DEFAULT_BUDGET):
        if budget < 1:
            raise ValueError("budget must be positive")
        self.graph = graph
        self.budget = budget
        self.entries: dict[Variant, dict[int, int]] = {v: {} for v in Variant}
        self.size = 0  # entries of both variants, kept by store
        self.splits: dict[int, list[int]] = {}

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

    def split(self, g: Graph, rest: int, seeds: int) -> list[int]:
        """``components(g, rest, seeds)``, flooded only the first time
        a rest comes up; a rest of two or more parts is kept."""
        parts = self.splits.get(rest)
        if parts is None:
            parts = components(g, rest, seeds)
            if len(parts) > 1:
                self.splits[rest] = parts
        return parts

    def __len__(self):
        return self.size


def _table_for(g: Graph,
               table: TranspositionTable | None) -> TranspositionTable:
    """``table`` once checked to belong to g, or a new table."""
    if table is None:
        return TranspositionTable(g)
    if table.graph is not g and table.graph != g:
        raise ValueError("transposition table belongs to a different graph")
    return table


def grundy(p: Position, table: TranspositionTable | None = None) -> int:
    """Exact Grundy value of a position.  The search budget comes with
    the table: pass ``TranspositionTable(p.graph, budget)`` to cap it;
    without a table the search gets a fresh one with
    ``DEFAULT_BUDGET``."""
    table = _table_for(p.graph, table)
    return _position_value(p.graph, p.labeled, p.variant, table)


def _position_value(g: Graph, labeled: int, variant: Variant,
                    table: TranspositionTable) -> int:
    """The nim-sum of val(C) over the components C of G - L (the mex
    over the openings when L is empty), evaluating what is not yet
    memoized from one explicit stack of (component, boundary,
    children) entries.  The stack starts with every unsolved component
    of G - L, the first on top, each with its part ``edge & C`` of the
    edge N(L) - L; each part d of a child inherits ``ones & d`` from
    the hull that cut it (module docstring).
    A boundary seeds the legal moves and every child's hull, and each
    hull's ``ones`` seeds the split of its child, which the connected
    game looks up in the table's split memo first.  After the hull H of
    a boundary move, the moves in H within one step of that move's run
    (module docstring) are dropped unexpanded, since each has hull H.
    children is None until the entry is expanded, then a dict from
    each distinct rest C - H to the sequence of its parts.  An
    expanded entry with unsolved parts goes back on the stack under
    them, so when it comes up again every part it names is in the
    memo."""
    if not labeled:
        return mex(opening_values(g, variant, table))
    memo = table.entries[variant]
    full, adj, nbhd = g.full_mask, g.adj, g.neighborhood_of_set
    split = components if variant is Variant.FREE else table.split
    edge = nbhd(labeled) & ~labeled
    comps = components(g, full & ~labeled)
    stack = [(c, edge & c, None) for c in reversed(comps) if c not in memo]
    while stack:
        c, edge, children = stack.pop()
        if children is None:
            if c in memo:
                continue  # pushed twice, solved since
            outside = full & ~c
            children, new = {}, []  # new: unsolved parts
            moves = legal_moves_raw(g, outside, variant, edge)
            while moves:
                low = moves & -moves
                moves ^= low
                h, ones = hull_and_boundary(g, outside | low, outside, edge)
                if low & edge:  # skip the moves whose hull is h
                    run, near = h & edge, adj[low.bit_length() - 1]
                    grow = near & run
                    while grow:
                        near |= nbhd(grow)
                        run ^= grow
                        grow = near & run
                    moves &= ~(h & near)
                rest = c & ~h
                if rest in children:
                    continue
                if rest in memo:  # only components are stored
                    children[rest] = (rest,)
                    continue
                parts = split(g, rest, ones & rest & ~edge)
                children[rest] = parts
                new += [(d, ones & d, None) for d in parts if d not in memo]
            if new:
                stack.append((c, edge, children))
                stack += new
                continue
        values = []
        for parts in children.values():
            v = 0
            for d in parts:
                v ^= memo[d]
            values.append(v)
        table.store(c, variant, mex(values))
    return nim_sum(memo[c] for c in comps)


def opening_values(g: Graph, variant: Variant,
                   table: TranspositionTable | None = None) -> list[int]:
    """The value after each opening, by vertex: in both variants every
    vertex is a legal opening, and its child is its hull, the vertex
    alone.  The budget comes with the table, as in ``grundy``."""
    table = _table_for(g, table)
    # the traced benchmark's closure.hull span wraps only this hull;
    # keep the call until the span wraps hull_and_boundary (ROADMAP 14)
    return [_position_value(g, hull(g, 1 << x), variant, table)
            for x in range(g.n)]


def decide(g: Graph, variant: Variant,
           table: TranspositionTable | None = None) -> Verdict:
    """Solve the start position: winner, Grundy value, and the
    lowest-numbered winning first move, read from ``opening_values``."""
    return Verdict.from_openings(opening_values(g, variant, table))


def best_move(p: Position,
              table: TranspositionTable | None = None) -> int | None:
    """The lowest-numbered move to a Grundy-0 child if one exists, else
    the lowest-numbered legal move, else None (no legal move)."""
    table = _table_for(p.graph, table)
    g, labeled, variant = p.graph, p.labeled, p.variant
    moves = list(bits(legal_moves_raw(g, labeled, variant)))
    for x in moves:
        if _position_value(g, hull(g, labeled | 1 << x), variant, table) == 0:
            return x
    return moves[0] if moves else None
