"""Closed-form and polynomial-time solvers per graph family.

Each solver here is independent of the exhaustive engine, and every one
of them is checked against the engine on all instances small enough to
enumerate (see the verification sweeps and the acceptance tests).  Where
a family admits two derivation routes (a closed form and a recurrence,
or a strategy argument and a reduction), both are kept: one is the
implementation, the other lives in the test suite as a cross-check.

Two structural solvers take a Graph and answer whole classes: the
block solver (connected game on trees, paths among them, and chordal
graphs) and the component solver (free game on any graph whose
components are paths, cycles or joins, such as cographs, stars,
cliques and wheels).  Closed forms cover the connected game on cycles
and ladders.
Every solver answers with the value after each opening, by vertex, the
list the engine's ``opening_values`` gives; ``Verdict.from_openings``
reads a verdict off it.

Value conventions, and where each is used:

* Independent parts add by nim-sum (``nim_sum``): the components of a
  graph in ``component_free_values``, and the branches at a labeled
  vertex in ``connected_block_values``.
* ``O(k)`` is the Grundy value of a heap of k in the octal game
  Officers (0.6), which the free game plays on paths and cycles:
  ``_officers`` lists it for ``free_path_grundy_table`` and
  ``component_free_values``.
* In a join, h components that each fall to one label are h forced
  moves, worth h mod 2, and two labels on a side across from two or
  more vertices close the join, worth 0 (``_join_opening_value``).
"""

from __future__ import annotations

from .closure import hull
from .engine import Verdict, mex, nim_sum
from .graphs import Graph, bits, components


# =====================================================================
# Connected variant: cycles
# =====================================================================

def connected_cycle_values(n: int) -> list[int]:
    """Value of the connected game on C_n after each opening, by vertex.

    Every opening is equivalent and leaves an arc playground of one
    vertex, whose closed form by residue of n is 0, 2, 1 for n = 2, 1,
    0 mod 3.  The downward arc recurrence behind the closed form is
    checked against it in
    ``tests/test_solvers.py::test_connected_cycle_arc_recurrence``.
    """
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return [{2: 0, 0: 1, 1: 2}[n % 3]] * n


def connected_cycle_grundy(n: int) -> int:
    """``mex(connected_cycle_values(n))``, read by bench/workloads.py."""
    return mex(connected_cycle_values(n))


# =====================================================================
# Free variant: paths and cycles are Officers heaps
# =====================================================================

def _officers(n: int) -> list[int]:
    """Grundy values O(0..n) of the octal game Officers (0.6): O(0) =
    O(1) = 0, and O(k) is the mex of O(a) ^ O(k-1-a) for 0 <= a <=
    (k-1)/2, where a = 0 keeps the heap whole.  A run of k unlabeled
    path vertices fenced by labels on both sides is a heap of k: a move
    labels one of them and splits the rest into the runs on either
    side, and a lone vertex between two labels is absorbed, so a heap
    of 1 is worth 0.  An end of the run that no label fences counts as
    one more vertex of the heap.  Officers has no known period, so the
    list takes O(n^2)."""
    values = [0, 0][:n + 1]
    for k in range(2, n + 1):
        values.append(mex(values[a] ^ values[k - 1 - a]
                          for a in range((k + 1) // 2)))
    return values


def free_path_grundy_table(n_max: int) -> dict[tuple[int, bool, bool], int]:
    """Grundy values of bordered runs for the free game on paths, keyed
    (k, left, right): a run of k >= 0 unlabeled path vertices, each end
    fenced by a label or not.  A run fenced on both sides is the Officers
    heap O(k), on one side O(k+1), and on neither side (the path P_k
    itself) the mex of its openings.  Read by bench/workloads.py."""
    if n_max < 1:
        raise ValueError("table needs at least one run length")
    heap = _officers(n_max + 1)
    table = {}
    for k in range(n_max + 1):
        table[k, True, True] = heap[k]
        table[k, False, True] = table[k, True, False] = heap[k + 1]
        table[k, False, False] = mex(heap[j + 1] ^ heap[k - j]
                                     for j in range(k))
    return table


# =====================================================================
# Connected variant: ladders
# =====================================================================

def ladder_connected_values(n: int) -> list[int]:
    """Value of the connected game on the ladder P_2 x P_n after each
    opening, by vertex, with the rails 0..n-1 and n..2n-1 of
    ``make_ladder``, whose corners are 0, n-1, n and 2n-1.

    When n mod 3 is 1 or 2, every opening is worth n mod 3.  When n is
    a multiple of three, the four corners are worth 0 and every other
    vertex is worth 3, so the first player wins, with value 1, exactly
    by opening in a corner.

    Intuition: a ladder with 3k rungs splits into k blocks of P_2 x P_3
    (six vertices each).  Opening in a corner lets the first player
    finish the current block on every return visit, so the second
    player always faces a fresh block boundary.  The engine's
    ``opening_values`` confirms the whole list at every n up to 39
    rungs and at 58, 59, 60, 88, 89 and 90 rungs (the acceptance
    sweep).
    """
    if n < 1:
        raise ValueError("ladder needs at least one rung")
    if n % 3:
        return [n % 3] * (2 * n)
    corners = {0, n - 1, n, 2 * n - 1}
    return [0 if v in corners else 3 for v in range(2 * n)]


def ladder_connected_winner(n: int) -> Verdict:
    """``Verdict.from_openings(ladder_connected_values(n))``, read by
    bench/workloads.py."""
    return Verdict.from_openings(ladder_connected_values(n))


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

    Finding the blocks takes one hull per edge, O(m * |B|) for the
    largest block B: cubic on a clique.  The branches are evaluated
    from an explicit stack, so no graph size meets Python's recursion
    limit.  An entry (c, i, branches) is expanded once: branches, None
    until then, becomes the (v, j) that hang at block i's vertices
    other than c, and the entry goes back under the unsolved ones; the
    jumps are those with v next to c.
    Evaluating a branch at block B costs O(|B|) plus one step per block
    hanging at B's other vertices.  Each of the d blocks at one cut
    vertex sees the other d - 1 there, so the cost is quadratic in the
    largest block and in the largest number of blocks at one vertex.
    """
    blocks = sorted({hull(g, (1 << u) | (1 << v)) for u, v in g.edges()})
    if sum(b.bit_count() - 1 for b in blocks) != g.n - len(components(g)):
        raise ValueError("some edge's hull is not its whole block")
    at = [[] for _ in range(g.n)]
    for i, block in enumerate(blocks):
        for v in bits(block):
            at[v].append(i)

    solved = {}  # (c, i) -> (b(c, block i), close(block i, c))
    stack = [(v, i, None) for v in range(g.n) for i in at[v]]
    while stack:
        c, i, branches = stack.pop()
        if branches is None:
            if (c, i) in solved:
                continue  # pushed twice, solved since
            branches = [(v, j) for v in bits(blocks[i] & ~(1 << c))
                        for j in at[v] if j != i]
            new = [(v, j, None) for v, j in branches if (v, j) not in solved]
            if new:
                stack.append((c, i, branches))
                stack += new
                continue
        k = nim_sum(solved[d][0] for d in branches)
        options = {k}
        for v, j in branches:
            if g.adj[c] >> v & 1:  # a jump through c's neighbour v
                options.add(k ^ solved[v, j][0] ^ solved[v, j][1])
        solved[c, i] = (mex(options), k)
    return [nim_sum(solved[v, i][0] for i in at[v]) for v in range(g.n)]


def tree_connected_grundy(tree: Graph) -> int:
    """Grundy value of the connected game on a tree, one component with
    n - 1 edges (so at least one vertex): the mex of
    ``connected_block_values`` (every edge of a tree is a block)."""
    if tree.edge_count() != tree.n - 1 or len(components(tree)) != 1:
        raise ValueError("input graph is not a tree")
    return mex(connected_block_values(tree))


# =====================================================================
# Free variant: sums of paths, cycles and joins
# =====================================================================

def _join_opening_value(s: int, own: list[int], far: list[int]) -> int:
    """Value after opening at a vertex x of a join of two sides, where
    x's component inside its own side has s vertices, and ``own`` and
    ``far`` list the component sizes of x's side and of the other side.

    Two labels on one side absorb the whole other side, which absorbs
    this side back when it has two or more vertices.  So:

    * x alone on its side: a label across absorbs its component there
      and nothing else; each component across is one forced move, and
      the value is their count mod 2.
    * y alone across: labeling y or x's component leaves the other
      components of x's side, labeling one of those leaves one fewer,
      each then one forced move: 1 if x's side is connected, else 2.
    * Both sides of two or more vertices: a second move that gives a
      vertex two labeled neighbours closes the join, worth 0.  The one
      that absorbs nothing, an isolated vertex across from an isolated
      x, is worth 1, since every third move closes the join.
    """
    if sum(own) == 1:
        return len(far) & 1
    if sum(far) == 1:
        return 2 if len(own) >= 2 else 1
    return 2 if s == 1 and min(far) == 1 else 1


def component_free_values(g: Graph) -> list[int]:
    """Value of the free game after each opening, by vertex, on a graph
    each of whose components is a path, a cycle or a join; any other
    graph raises ValueError.

    The components of g are independent games that add by nim-sum.  A
    component whose degrees are all at most 2 is a path or a cycle of k
    vertices, valued from one Officers list (``_officers``): opening at
    the j-th vertex of a path leaves runs of j and k-1-j vertices, each
    fenced on one side, worth O(j+1) ^ O(k-j), and every opening of a
    cycle leaves one run of k-1 fenced on both sides, worth O(k-1).

    Every other component must be a join: two sides with every edge
    between them, i.e. a disconnected complement.  One side is its first
    co-component (component in the complement), flooded from its lowest
    vertex through the non-edges inside it, and the other side is the
    rest, which is connected in g when there are three or more.  An
    opening's value depends only on the component sizes of each side
    (``_join_opening_value``), so cographs, stars, cliques, wheels and
    threshold graphs all take the same rule, and each side values every
    distinct component size once.
    """
    comps = components(g)
    runs = {comp for comp in comps
            if all(g.adj[x].bit_count() <= 2 for x in bits(comp))}
    heap = _officers(max((comp.bit_count() for comp in runs), default=0))
    values = [0] * g.n
    for comp in comps:
        if comp in runs:
            k = comp.bit_count()
            ends = [x for x in bits(comp) if g.adj[x].bit_count() < 2]
            if ends:  # a path, walked from one end
                x, seen = ends[0], 0
                for j in range(k):
                    values[x] = heap[j + 1] ^ heap[k - j]
                    seen |= 1 << x
                    x = (g.adj[x] & ~seen).bit_length() - 1
            else:  # a cycle
                for x in bits(comp):
                    values[x] = heap[k - 1]
            continue
        side = frontier = comp & -comp
        while frontier:
            grow = 0
            for x in bits(frontier):
                grow |= comp & ~g.adj[x]
            frontier = grow & ~side
            side |= frontier
        if side == comp:
            raise ValueError(
                "a component is neither a path, a cycle nor a join")
        pieces = [components(g, side), components(g, comp & ~side)]
        sizes = [[c.bit_count() for c in p] for p in pieces]
        for own, far in ((0, 1), (1, 0)):
            value = {s: _join_opening_value(s, sizes[own], sizes[far])
                     for s in set(sizes[own])}
            for c in pieces[own]:
                for x in bits(c):
                    values[x] = value[c.bit_count()]
    worth = [mex(values[x] for x in bits(comp)) for comp in comps]
    total = nim_sum(worth)
    for comp, own in zip(comps, worth):
        for x in bits(comp):
            values[x] ^= total ^ own
    return values
