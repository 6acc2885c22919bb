"""The plain whole-graph search: the oracle the engine's decomposition is
checked against.

It memoizes whole labeled sets, one dict per (graph, variant), and knows
nothing about components, so it shares no idea with the engine beyond
the game rules in p3game.closure.  It recurses once per move, which is
fine for the small graphs it is used on.
"""

from p3game import Player, Verdict, bits, hull, mex
from p3game.closure import legal_moves_raw


def child_masks(g, labeled, variant):
    """Distinct hulls reachable in one move (moves that close to the same
    set are the same child)."""
    return {hull(g, labeled | (1 << x))
            for x in bits(legal_moves_raw(g, labeled, variant))}


def reference_grundy(g, labeled, variant, memo=None):
    """Grundy value of the labeled set ``labeled`` (assumed P3-closed)."""
    if memo is None:
        memo = {}
    value = memo.get(labeled)
    if value is None:
        value = mex(reference_grundy(g, child, variant, memo)
                    for child in child_masks(g, labeled, variant))
        memo[labeled] = value
    return value


def reference_decide(g, variant):
    """Verdict of the start position, witness the lowest winning opening."""
    memo = {}
    value = reference_grundy(g, 0, variant, memo)
    witness = None
    if value != 0:
        witness = next(x for x in bits(legal_moves_raw(g, 0, variant))
                       if reference_grundy(g, hull(g, 1 << x), variant,
                                           memo) == 0)
    return Verdict(Player.FIRST if value else Player.SECOND, value, witness)
