"""Closed-form and polynomial-time solvers per graph family.

Each solver here is independent of the exhaustive engine, and every one
of them is checked against the engine on all instances small enough to
enumerate (see the verification sweeps and the acceptance tests).  Where
a family admits two derivation routes (a closed form and a recurrence,
or a strategy argument and a reduction), both are kept: one is the
implementation, the other lives in the test suite as a cross-check.

Two structural solvers take a Graph and answer whole classes: the
block solver (connected game on trees, paths among them, and chordal
graphs) and the cograph solver (free game, stars and cliques among
them).  Closed forms and a table of fenced runs cover what neither
reaches: cycles, ladders and the free game on paths.

Value conventions used throughout:

* ``f``-style values are Grundy values of partially labeled boards
  (an arc playground on a cycle, a run of unlabeled vertices with
  bordered ends).
* A set of h interchangeable pendant moves contributes h mod 2 to a
  nim-sum: each pendant is a single-move subgame of value 1.
"""

from __future__ import annotations

from .closure import hull
from .engine import Player, Verdict, mex, nim_sum
from .graphs import Graph, bits, components, is_tree


def _opening_verdict(g: Graph, opening_values) -> Verdict:
    """Verdict of the game on g from ``opening_values(g)``, the value
    after each opening by vertex: their mex, with the lowest opening
    worth 0 as the witness."""
    if g.n < 1:
        raise ValueError("cannot decide the game on an empty graph")
    values = opening_values(g)
    value = mex(values)
    if value == 0:
        return Verdict(Player.SECOND, 0, None)
    return Verdict(Player.FIRST, value, values.index(0))


# =====================================================================
# Connected variant: cycles
# =====================================================================

def connected_cycle_grundy(n: int) -> int:
    """Grundy value of the start position on C_n, connected variant.

    Every first move is equivalent and leaves an arc playground of one
    vertex, so the start value is mex of that single arc value, whose
    closed form by residue of n is 0, 2, 1 for n = 2, 1, 0 mod 3.  The
    downward arc recurrence behind the closed form is checked against it
    in ``tests/test_solvers.py::test_connected_cycle_arc_recurrence``.
    """
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    f1 = {2: 0, 0: 1, 1: 2}[n % 3]
    return mex((f1,))


# =====================================================================
# Free variant: paths and cycles
# =====================================================================

def free_path_grundy_table(n_max: int) -> dict[tuple[int, bool, bool], int]:
    """Grundy values of bordered runs for the free game on paths.

    A state is a run of k unlabeled consecutive path vertices, plus two
    flags telling whether each end of the run is fenced by a labeled
    vertex.  A move at offset j splits the run into (j-1, left-flag,
    True) and (k-j, True, right-flag); pieces combine by nim-sum.  A
    piece of length 1 fenced on both sides is absorbed by the closure
    the moment it forms, so its value is fixed at 0 and is never
    expanded.  Work is O(n_max^2); larger tables extend smaller ones
    without changing existing entries.
    """
    if n_max < 1:
        raise ValueError("table needs at least one run length")
    table: dict[tuple[int, bool, bool], int] = {}

    def piece(k, left, right):
        if k == 0:
            return 0
        return table[(k, left, right)]

    for k in range(1, n_max + 1):
        for left in (False, True):
            for right in (False, True):
                if k == 1 and left and right:
                    # closure collapses this run; it is the empty position
                    table[(k, left, right)] = 0
                    continue
                outcomes = set()
                for j in range(1, k + 1):
                    outcomes.add(piece(j - 1, left, True)
                                 ^ piece(k - j, True, right))
                table[(k, left, right)] = mex(outcomes)
    return table


def free_path_grundy(n: int) -> int:
    """Grundy value of the start position on P_n, free variant (an
    unfenced run of n vertices)."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return free_path_grundy_table(n)[(n, False, False)]


def free_cycle_winner(n: int) -> Verdict:
    """Winner of the free game on C_n.

    Even cycles: the second player mirrors through the center, so the
    second player wins.  C_3 is a clique, again a second-player win.
    For odd n > 3 all first moves are equivalent; cutting the cycle at
    the chosen vertex leaves a run of n-1 vertices fenced on both sides,
    and the first player wins exactly when that run's value is 0.  The
    fenced-run reduction is valid for every n and the tests check it
    reproduces the even and K_3 answers too.
    """
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    if n % 2 == 0 or n == 3:
        return Verdict(Player.SECOND, 0, None)
    arc = free_path_grundy_table(n - 1)[(n - 1, True, True)]
    value = mex((arc,))
    if value != 0:
        return Verdict(Player.FIRST, value, 0)
    return Verdict(Player.SECOND, 0, None)


# =====================================================================
# Connected variant: ladders
# =====================================================================

def ladder_connected_winner(n: int) -> Verdict:
    """Connected game on the ladder P_2 x P_n: the first player wins
    exactly when the vertex count 2n is a multiple of six, i.e. when the
    rung count n is a multiple of three, and then the start value is 1.

    Intuition: a ladder with 3k rungs splits into k blocks of P_2 x P_3
    (six vertices each).  Opening in a corner lets the first player
    finish the current block on every return visit, so the second
    player always faces a fresh block boundary.  The corner opening is
    reported as the witness.  The engine confirms the value 1 and the
    corner witness at every multiple of three up to 30 rungs (the
    acceptance sweep); beyond that both are the formula's claim.
    """
    if n < 1:
        raise ValueError("ladder needs at least one rung")
    if n % 3 == 0:
        return Verdict(Player.FIRST, 1, 0)
    return Verdict(Player.SECOND, 0, None)


# =====================================================================
# Connected variant: graphs whose blocks close from any one edge
# =====================================================================

def connected_block_values(g: Graph) -> list[int]:
    """Value of the connected game after each opening, by vertex, on a
    graph in which every edge's hull is its whole block (2-connected
    component or bridge): trees, block graphs and chordal graphs.

    The blocks are the distinct edge hulls.  An edge's hull absorbs a
    vertex only through two neighbours already inside it, one ear at a
    time, so it is 2-connected and lies in the edge's block.  The hulls
    are exactly the blocks, each closed by any of its edges, exactly
    when the vertex-hull incidence graph is a forest, i.e. when the sum
    of (|P| - 1) over the hulls P is n minus the component count;
    otherwise (C_4, ladders, the house graph) this raises ValueError.

    A connected labeled set L then meets each block B in nothing, in one
    vertex or in all of B: two labeled vertices of B are joined by a
    labeled path inside B, and any of its edges closes B.  So after the
    opening, play splits into branches b(c, B), one per labeled vertex c
    and unlabeled block B at c, that add by nim-sum.  In b(c, B) the
    mover either labels a vertex of B within distance two of c, closing
    B alone, or labels a vertex x of a block B' != B that hangs at a
    neighbour u of c in B; u is absorbed and B and B' both close.  With
    k the nim-sum of the branches that hang at B's vertices other than
    c, b(c, B) = mex({k} and k ^ b(u, B') ^ close(B', u) over those
    (u, B')), where close(B', u) is B''s own k as seen from u.  With
    K_2 blocks (trees) the two kinds are "label the neighbour" and
    "label a vertex two steps away".

    Branches are evaluated from an explicit stack, each once, so no
    graph size meets Python's recursion limit.  A branch at block B
    costs O(|B|) steps plus one per block hanging at B, so the whole
    evaluation is quadratic in the largest block and linear in the
    number of blocks.
    """
    blocks = sorted({hull(g, (1 << u) | (1 << v)) for u, v in g.edges()})
    if sum(b.bit_count() - 1 for b in blocks) != g.n - len(components(g)):
        raise ValueError("some edge's hull is not its whole block")
    at = [[] for _ in range(g.n)]
    for i, block in enumerate(blocks):
        for v in bits(block):
            at[v].append(i)

    def hanging(c, i):
        """The branches left when block i closes with c labeled first."""
        return [(v, j) for v in bits(blocks[i] & ~(1 << c))
                for j in at[v] if j != i]

    solved = {}  # (c, i) -> (b(c, block i), close(block i, c))
    stack = [(v, i) for v in range(g.n) for i in at[v]]
    while stack:
        c, i = stack[-1]
        if (c, i) in solved:
            stack.pop()
            continue
        branches = hanging(c, i)
        unsolved = [d for d in branches if d not in solved]
        if unsolved:
            stack += unsolved
            continue
        stack.pop()
        k = nim_sum(solved[d][0] for d in branches)
        options = {k}
        for u in bits(g.adj[c] & blocks[i]):
            for j in at[u]:
                if j != i:
                    options.add(k ^ solved[u, j][0] ^ solved[u, j][1])
        solved[c, i] = (mex(options), k)
    return [nim_sum(solved[v, i][0] for i in at[v]) for v in range(g.n)]


def block_connected_winner(g: Graph) -> Verdict:
    """Connected game on a graph whose blocks each close from any one of
    their edges (see ``connected_block_values``), with the lowest
    opening worth 0 as the witness."""
    return _opening_verdict(g, connected_block_values)


def tree_connected_grundy(tree: Graph) -> int:
    """Grundy value of the connected game on a tree: the mex of
    ``connected_block_values`` (every edge of a tree is a block)."""
    if not is_tree(tree):
        raise ValueError("input graph is not a tree")
    return mex(connected_block_values(tree))


# =====================================================================
# Free variant: cographs
# =====================================================================

def _join_opening_value(s: int, own: list[int], far: list[int]) -> int:
    """Value after opening at a vertex x of a join of two sides, where
    x's component inside its own side has s vertices, and ``own`` and
    ``far`` list the component sizes of x's side and of the other side.

    A side holding two labels absorbs the whole other side, which
    absorbs everything back unless it is a single vertex; then each
    untouched component of the near side is one forced move.  The one
    second move that absorbs nothing labels an isolated vertex across
    from an isolated x, and is evaluated one move deeper.
    """
    a, b = sum(own), sum(far)

    def closed(untouched, other_side):
        """Value once a side holds two labels and has ``untouched``
        components left, across from ``other_side`` vertices."""
        return 0 if other_side >= 2 else untouched & 1

    options = set()
    if s >= 2:  # a neighbour of x, or any vertex across
        options.add(closed(len(own) - 1, b))
    if len(own) >= 2:  # a vertex of another component of x's side
        options.add(closed(len(own) - 2, b))
    if s == 1 and max(far) >= 2:  # a vertex across with a neighbour there
        options.add(closed(len(far) - 1, a))
    if s == 1 and min(far) == 1:  # an isolated vertex across
        third = set()
        if a >= 2:
            third.add(closed(len(own) - 2, b))
        if b >= 2:
            third.add(closed(len(far) - 2, a))
        options.add(mex(third))
    return mex(options)


def cograph_free_values(g: Graph) -> list[int]:
    """Value of the free game after each opening, by vertex, on a
    cograph; any other graph raises ValueError.

    A vertex set of two or more vertices that is connected both in g and
    in its complement induces a P_4 (Seinsche), so splitting sets into
    components, or else co-components, down to single vertices from an
    explicit stack recognises cographs without recursion.

    The components of g are independent games that add by nim-sum.  A
    component with three or more co-components closes on any second
    move, so every opening there is worth mex{0} = 1.  With two
    co-components (the sides of a join), an opening's value depends
    only on the component sizes of each side (``_join_opening_value``).
    A single vertex is worth 0 once labeled.
    """
    co = g.complement()
    pending = [g.full_mask]
    while pending:
        s = pending.pop()
        if s & (s - 1):
            parts = components(g, s)
            if len(parts) == 1:
                parts = components(co, s)
            if len(parts) == 1:
                raise ValueError("the graph has an induced P4")
            pending += parts

    values = [0] * g.n
    comps = components(g)
    for comp in comps:
        sides = components(co, comp)
        if len(sides) >= 3:
            for x in bits(comp):
                values[x] = 1
        elif len(sides) == 2:
            pieces = [components(g, side) for side in sides]
            sizes = [[c.bit_count() for c in p] for p in pieces]
            for own, far in ((0, 1), (1, 0)):
                for c in pieces[own]:
                    value = _join_opening_value(c.bit_count(), sizes[own],
                                                sizes[far])
                    for x in bits(c):
                        values[x] = value
    worth = [mex(values[x] for x in bits(comp)) for comp in comps]
    total = nim_sum(worth)
    for comp, own in zip(comps, worth):
        for x in bits(comp):
            values[x] ^= total ^ own
    return values


def cograph_free_winner(g: Graph) -> Verdict:
    """Free game on a cograph (see ``cograph_free_values``), with the
    lowest opening worth 0 as the witness."""
    return _opening_verdict(g, cograph_free_values)
