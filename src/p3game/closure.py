"""P3-hulls and move legality for both game variants.

A vertex set S is P3-closed when no vertex outside S has two or more
neighbors inside S.  The hull of A is the smallest P3-closed superset of
A, obtained by repeatedly absorbing any vertex with two labeled
neighbors, so S is closed exactly when ``hull(g, S) == S``; that is
the one closedness test.  ``hull`` finds all such vertices of a round
at once, as a bitmask built from the adjacency rows of the vertices
absorbed so far, so it costs a few big-integer operations per vertex
of the hull (per vertex outside a closed set the caller already
holds, through ``hull_and_boundary``).  The hull operator is a
closure operator: extensive, monotone, idempotent, and with an empty
hull for the empty set; closed sets are also closed under
intersection.  Tests exercise all of these properties.

Game rules: players alternately label an unlabeled vertex, after which
the labeled set is replaced by its hull.  In the Free variant any
unlabeled vertex may be chosen.  In the Connected variant the first move
is unrestricted and every later move must be within distance two of the
labeled set, which is equivalent to requiring that the new hull induce a
connected subgraph.  Under normal play the player without a legal move
loses.

All operations here are pure functions; Position values are immutable.
"""

from __future__ import annotations

import enum

from .graphs import Graph, components


class Variant(enum.Enum):
    FREE = "free"
    CONNECTED = "connected"


class IllegalMoveError(ValueError):
    """Raised when apply_move is given a vertex outside legal_moves; this
    signals a bug in the caller, not a recoverable game state."""


# =====================================================================
# Hulls
# =====================================================================

def hull(g: Graph, a: int) -> int:
    """Smallest P3-closed superset of a: the first item of
    ``hull_and_boundary``."""
    return hull_and_boundary(g, a)[0]


def hull_and_boundary(g: Graph, a: int, closed: int = 0,
                      ones: int = 0) -> tuple[int, int]:
    """(hull of a, final ``ones``).

    Word-parallel fixpoint over two bitmasks: ``ones`` holds the
    vertices with at least one neighbor among the vertices processed so
    far, ``twos`` those with at least two.  Processing v is
    ``twos |= ones & adj[v]; ones |= adj[v]``; each round absorbs
    ``twos`` outside the hull and processes only what it absorbed.

    A caller that knows a P3-closed ``closed`` inside a may pass it with
    ``ones`` = N(closed) - closed, its boundary.  No vertex outside a
    closed set has two neighbors in it, so the fixpoint starts as if
    closed were already processed, and only a - closed and what it
    absorbs are.  The hull is the hull of a either way, and the final
    ``ones`` is the given one together with N(hull - closed); with
    ``closed`` = 0 that is N(hull).  A call costs
    O(|a - closed| + absorbed) big-integer operations and builds no
    list or set per vertex; this sits in the innermost loop of the
    search engine.
    """
    adj = g.adj
    twos = 0
    inside = a
    new = a & ~closed
    while new:
        while new:
            low = new & -new
            row = adj[low.bit_length() - 1]
            twos |= ones & row
            ones |= row
            new ^= low
        new = twos & ~inside
        inside |= new
    return inside, ones


# =====================================================================
# Positions and moves
# =====================================================================

class Record:
    """Base of the immutable value classes.  A subclass names its fields
    in ``__slots__`` and ``__match_args__``, returns them from
    ``_values``, and sets them with ``object.__setattr__`` once its
    ``__init__`` has checked them; setting or deleting one later raises
    AttributeError.  Values of one class with equal fields are equal and
    hash alike.  Pickle and copy call the class again, so copies pass
    the checks too."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        items = zip(self.__slots__, self._values())
        return "%s(%s)" % (type(self).__qualname__,
                           ", ".join("%s=%r" % item for item in items))

    def __reduce__(self):
        return type(self), self._values()


class Position(Record):
    """Game state: a graph, the labeled set L, and the variant.

    Between moves L is always P3-closed, and in the Connected variant a
    nonempty L induces a connected subgraph.  Both invariants are checked
    at construction time.  Positions are immutable values (see Record).
    """

    __slots__ = __match_args__ = ("graph", "labeled", "variant")

    def __init__(self, graph: Graph, labeled: int, variant: Variant):
        if labeled & ~graph.full_mask:
            raise ValueError("labeled set contains ids outside the graph")
        if hull(graph, labeled) != labeled:
            raise ValueError("labeled set is not P3-closed")
        if variant is Variant.CONNECTED and labeled:
            if len(components(graph, labeled)) != 1:
                raise ValueError("labeled set must induce a connected subgraph")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "labeled", labeled)
        object.__setattr__(self, "variant", variant)

    def _values(self):
        return self.graph, self.labeled, self.variant


def start_position(g: Graph, variant: Variant) -> Position:
    return Position(g, 0, variant)


def legal_moves(p: Position) -> int:
    """Bitmask of playable vertices.

    Free: every unlabeled vertex.  Connected: every vertex when L is
    empty, else the unlabeled vertices within distance two of L.  Those
    are the boundary N(L) - L and its neighbors, because the neighbors
    of a vertex of L lie in L or the boundary; full BFS is never needed.
    """
    return legal_moves_raw(p.graph, p.labeled, p.variant)


def legal_moves_raw(g: Graph, labeled: int, variant: Variant,
                    edge: int | None = None) -> int:
    """legal_moves on the raw bitmask, for engine inner loops.

    ``edge`` is the boundary N(labeled) - labeled when the caller has
    it; it is computed otherwise.  Passing it makes a connected call
    cost O(|edge|) instead of O(|labeled|).
    """
    if variant is Variant.FREE or labeled == 0:
        return g.full_mask & ~labeled
    if edge is None:
        edge = g.neighborhood_of_set(labeled) & ~labeled
    return (edge | g.neighborhood_of_set(edge)) & ~labeled


def apply_move(p: Position, x: int) -> Position:
    """Label x and replace the labeled set with its hull."""
    if not (0 <= x < p.graph.n) or not (legal_moves(p) >> x) & 1:
        raise IllegalMoveError("vertex %r is not a legal move" % (x,))
    return Position(p.graph, hull(p.graph, p.labeled | (1 << x)), p.variant)
