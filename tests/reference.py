"""The plain whole-graph search, the rescan hull and closedness by
definition: the oracles the engine's decomposition and the
word-parallel hull are checked against.  Also the four-flag table of
fenced runs, the second route to the free game on paths and cycles,
which the solver's Officers values are checked against, and the
downward arc recurrence that the connected cycle solver's closed form
is checked against.

The search memoizes whole labeled sets, one dict per (graph, variant),
and knows nothing about components.  It builds child positions with
``hull_by_rescan``, not ``p3game.hull``, so it shares no idea with the
engine beyond the legal-move rule in p3game.closure.  It recurses once
per move, which is fine for the small graphs it is used on.
"""

from p3game import Graph, Player, Verdict, bits, mex
from p3game.closure import legal_moves_raw


def is_p3_closed(g: Graph, s: int) -> bool:
    """True iff no vertex outside s has >= 2 neighbors inside s."""
    outside = g.full_mask & ~s
    for x in bits(outside):
        if (g.adj[x] & s).bit_count() >= 2:
            return False
    return True


def hull_by_rescan(g, a, order=None):
    """Hull by definition: rescan the vertices until none outside has two
    neighbors inside.

    ``order`` fixes the scan order (default 0..n-1); the result must not
    depend on it.
    """
    scan = list(order) if order is not None else list(range(g.n))
    inside = a
    changed = True
    while changed:
        changed = False
        for v in scan:
            bit = 1 << v
            if not inside & bit and (g.adj[v] & inside).bit_count() >= 2:
                inside |= bit
                changed = True
    return inside


def child_masks(g, labeled, variant):
    """Distinct hulls reachable in one move (moves that close to the same
    set are the same child)."""
    return {hull_by_rescan(g, labeled | (1 << x))
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
                       if reference_grundy(g, hull_by_rescan(g, 1 << x),
                                           variant, memo) == 0)
    return Verdict(Player.FIRST if value else Player.SECOND, value, witness)


def fenced_run_table(n_max: int) -> dict[tuple[int, bool, bool], int]:
    """Grundy values of bordered runs for the free game on paths, by
    their own recursion.

    A state is a run of k >= 0 unlabeled consecutive path vertices,
    plus two flags telling whether each end of the run is fenced by a
    labeled vertex; an empty run is worth 0.  A move at offset j splits
    the run into (j-1, left-flag, True) and (k-j, True, right-flag);
    pieces combine by nim-sum.  A piece of length 1 fenced on both sides
    is absorbed by the closure the moment it forms, so its value is
    fixed at 0 and is never expanded.  Work is O(n_max^2).
    """
    table = {(0, left, right): 0 for left in (False, True)
             for right in (False, True)}
    for k in range(1, n_max + 1):
        for left in (False, True):
            for right in (False, True):
                if k == 1 and left and right:
                    # closure collapses this run; it is the empty position
                    table[(k, left, right)] = 0
                    continue
                table[(k, left, right)] = mex(
                    table[(j - 1, left, True)] ^ table[(k - j, True, right)]
                    for j in range(1, k + 1))
    return table


def free_cycles_by_reduction(n_max):
    """Free game on C_n for every 3 <= n <= n_max by the fenced-run
    reduction alone, read from one run table: cutting the cycle at the
    first move leaves a run of n-1 vertices fenced on both sides."""
    runs = fenced_run_table(n_max - 1)
    verdicts = {}
    for n in range(3, n_max + 1):
        value = mex((runs[(n - 1, True, True)],))
        verdicts[n] = (Verdict(Player.FIRST, value, 0) if value
                       else Verdict(Player.SECOND, 0, None))
    return verdicts


def connected_cycle_arc_values(n: int) -> dict[int, int]:
    """Grundy values f(k) of arc playgrounds of k vertices on C_n.

    Computed top-down from f(n) = 0.  An arc of n-1 vertices is never a
    position (no reachable labeled set misses exactly one vertex), so no
    value exists for k = n-1: with three unlabeled vertices left, the
    middle move closes the whole cycle, which is why f(n-3) draws on
    f(n) rather than f(n-1).
    """
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    f = {n: 0}
    if n - 2 >= 1:
        f[n - 2] = 1
    for k in range(n - 3, 0, -1):
        unlabeled = n - k
        if unlabeled == 3:
            f[k] = mex((f[k + 1], f[n]))
        else:
            f[k] = mex((f[k + 1], f[k + 2]))
    return f
