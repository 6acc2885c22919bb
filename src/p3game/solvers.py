"""Closed-form and polynomial-time solvers per graph family.

Each solver here is independent of the exhaustive engine, and every one
of them is checked against the engine on all instances small enough to
enumerate (see the verification sweeps and the acceptance tests).  Where
a family admits two derivation routes (a closed form and a recurrence,
or a strategy argument and a reduction), both are kept: one is the
implementation, the other lives in the test suite as a cross-check.

Value conventions used throughout:

* ``f``-style values are Grundy values of partially labeled boards
  (a path with one end labeled, an arc playground on a cycle, a run of
  unlabeled vertices with bordered ends).
* A set of h interchangeable pendant moves contributes h mod 2 to a
  nim-sum: each pendant is a single-move subgame of value 1.
"""

from __future__ import annotations

from typing import Optional

from .graphs import (CaterpillarSpec, Cotree, CotreeNode, Graph, JOIN, UNION,
                     bits, cotree_leaves, is_tree, validate_cotree)
from .engine import Player, Verdict, mex, nim_sum


def _par(k: int) -> int:
    """Nim-sum of k single-move pendant subgames."""
    return k & 1


# =====================================================================
# Connected variant: paths
# =====================================================================

def connected_path_f(n: int) -> int:
    """Grundy value of a path on n vertices with one endpoint labeled.

    Recurrence f(n) = mex{f(n-1), f(n-2)} with f(1) = 0, f(2) = 1: the
    mover either extends the labeled block by one, or jumps to distance
    two and the closure absorbs the skipped vertex.  The closed form
    (0, 1, 2 for n = 1, 2, 0 mod 3) is asserted in tests, not assumed.
    """
    return _connected_path_fs(n)[n]


def _connected_path_fs(n: int) -> list[int]:
    """[f(0), ..., f(n)] of ``connected_path_f``, in O(n); f(0) = 0 is
    padding, not a position."""
    if n < 1:
        raise ValueError("path playground needs at least one vertex")
    f = [0, 0, 1][:n + 1]
    for k in range(3, n + 1):
        f.append(mex((f[k - 1], f[k - 2])))
    return f


def connected_path_grundy(n: int) -> int:
    """Grundy value of the start position on P_n, connected variant.

    First move at an endpoint leaves f(n); a move at the (i+1)-th vertex
    splits the path into end-labeled pieces of i+1 and n-i vertices,
    whose values combine by nim-sum.
    """
    if n < 1:
        raise ValueError("path needs at least one vertex")
    f = _connected_path_fs(n)
    outcomes = {f[n]}
    for i in range(1, n - 1):
        outcomes.add(f[n - i] ^ f[i + 1])
    return mex(outcomes)


# =====================================================================
# Connected variant: cycles
# =====================================================================

def connected_cycle_grundy(n: int) -> int:
    """Grundy value of the start position on C_n, connected variant.

    Every first move is equivalent and leaves an arc playground of one
    vertex, so the start value is mex of that single arc value, whose
    closed form by residue of n is 0, 2, 1 for n = 2, 1, 0 mod 3.  The
    downward arc recurrence behind the closed form is kept in
    ``connected_cycle_arc_values`` and the equality is a test property.
    """
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    f1 = {2: 0, 0: 1, 1: 2}[n % 3]
    return mex((f1,))


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
# Ladders, stars, cliques
# =====================================================================

def ladder_connected_winner(n: int) -> Verdict:
    """Winner of the connected game on the ladder P_2 x P_n: the first
    player wins exactly when the vertex count 2n is a multiple of six,
    i.e. when the rung count n is a multiple of three.

    Intuition: a ladder with 3k rungs splits into k blocks of P_2 x P_3
    (six vertices each).  Opening in a corner lets the first player
    finish the current block on every return visit, so the second
    player always faces a fresh block boundary.  The corner opening is
    reported as the witness; the search engine confirms it is a winning
    first move for every rung count up to thirty.

    This is a winner-only formula: in the first-player case it knows
    the start value is nonzero but not which nonzero, so grundy stays
    None.
    """
    if n < 1:
        raise ValueError("ladder needs at least one rung")
    if n % 3 == 0:
        return Verdict(Player.FIRST, None, 0)
    return Verdict(Player.SECOND, 0, None)


def star_free_winner(t: int) -> Verdict:
    """Free game on the star with t leaves: first player wins iff t is
    even, by taking the center (t = 0 is the one-vertex graph).

    Value bookkeeping: with the center labeled, the leaves are t
    independent single moves, so the center-first value is t mod 2; a
    leaf-first position is worth mex{(t-1) mod 2, t mod 2} = 2 for
    t >= 2.  The start value is therefore 1 when t is even, 0 when odd.
    """
    if t < 0:
        raise ValueError("leaf count must be nonnegative")
    if t % 2 == 0:
        return Verdict(Player.FIRST, 1, 0)
    return Verdict(Player.SECOND, 0, None)


def clique_free_winner(n: int) -> Verdict:
    """Free game on K_n: the second move always closes the whole clique,
    so every first move is worth 1 and the second player wins for
    n >= 2; K_1 is a single winning move."""
    if n < 1:
        raise ValueError("clique needs at least one vertex")
    if n == 1:
        return Verdict(Player.FIRST, 1, 0)
    return Verdict(Player.SECOND, 0, None)


# =====================================================================
# Trees (connected variant)
# =====================================================================

def tree_connected_grundy(tree: Graph, first_move: Optional[int] = None) -> int:
    """Grundy value of the connected game on a tree.

    After the first move the position splits into branches: maximal
    subtrees containing exactly one labeled vertex, as a leaf.  Branch
    games are independent, so a position's value is the nim-sum of its
    branch values (moves in one branch can neither reach nor absorb
    anything across the labeled root).

    The branch value b(p -> c), for labeled p and unlabeled neighbor c,
    is the mex over the two move kinds available inside the branch:
    label c itself, or label a child d of c, in which case the closure
    absorbs c.  Values are memoized per directed edge, giving 2(n-1)
    branch states.

    With ``first_move`` given, returns the value of the position after
    that move; otherwise the start value (mex over all first moves).
    """
    if not is_tree(tree):
        raise ValueError("input graph is not a tree")
    neighbors = [tuple(bits(row)) for row in tree.adj]
    memo: dict[tuple[int, int], int] = {}

    def branch(p: int, c: int) -> int:
        key = (p, c)
        got = memo.get(key)
        if got is not None:
            return got
        kids = [d for d in neighbors[c] if d != p]
        outcomes = {nim_sum(branch(c, d) for d in kids)}
        for d in kids:
            val = 0
            for e in kids:
                if e != d:
                    val ^= branch(c, e)
            for f in neighbors[d]:
                if f != c:
                    val ^= branch(d, f)
            outcomes.add(val)
        value = mex(outcomes)
        memo[key] = value
        return value

    def after_first(x: int) -> int:
        return nim_sum(branch(x, c) for c in neighbors[x])

    if first_move is not None:
        if not (0 <= first_move < tree.n):
            raise ValueError("first move %r is not a vertex" % (first_move,))
        return after_first(first_move)
    return mex(after_first(x) for x in range(tree.n))


# =====================================================================
# Caterpillars (connected variant)
# =====================================================================

def _normalize_feet(spec: CaterpillarSpec) -> tuple[list[int], bool, bool]:
    """Re-root the backbone so both endpoints are leaves.

    If an endpoint carries feet, one of its feet is promoted to be the
    new backbone endpoint (the dominating path is extended into it); the
    tree itself is unchanged.  Returns (feet profile, left promoted,
    right promoted).
    """
    h = list(spec.feet)
    left = right = False
    if h[0] > 0:
        h = [0, h[0] - 1] + h[1:]
        left = True
    if h[-1] > 0:
        h = h[:-1] + [h[-1] - 1, 0]
        right = True
    return h, left, right


def _caterpillar_tables(h: list[int]) -> tuple[list[int], list[int]]:
    """Branch-value arrays for a normalized foot profile.

    L[i] is the value of the branch strictly left of backbone vertex i,
    rooted at labeled i (R[i] mirrors to the right).  The moves inside
    the left branch are: its neighbor i-1 (leaving the smaller left
    branch plus i-1's pendant games), a foot of i-1, or vertex i-2
    (whose closure absorbs i-1).
    """
    n = len(h)
    L = [0] * n
    for i in range(1, n):
        outcomes = {L[i - 1] ^ _par(h[i - 1])}
        if h[i - 1] >= 1:
            outcomes.add(L[i - 1] ^ _par(h[i - 1] - 1))
        if i >= 2:
            outcomes.add(L[i - 2] ^ _par(h[i - 2]) ^ _par(h[i - 1]))
        L[i] = mex(outcomes)
    R = [0] * n
    for i in range(n - 2, -1, -1):
        outcomes = {R[i + 1] ^ _par(h[i + 1])}
        if h[i + 1] >= 1:
            outcomes.add(R[i + 1] ^ _par(h[i + 1] - 1))
        if i <= n - 3:
            outcomes.add(R[i + 2] ^ _par(h[i + 2]) ^ _par(h[i + 1]))
        R[i] = mex(outcomes)
    return L, R


def _caterpillar_first_move_values(h: list[int]) -> tuple[list[int], dict[int, int]]:
    """Values of the positions after each possible first move.

    Every position two moves deep decomposes into a left branch, a right
    branch, and leftover pendant games, so its value is a nim-sum read
    off the branch arrays.  There are five such position shapes: two
    feet of the same vertex, a vertex plus one of its feet, a foot of i
    plus backbone neighbor of i (absorbing i), two adjacent backbone
    vertices, and two backbone vertices at distance two (absorbing the
    middle).  Each first move's value is the mex over the shapes it can
    reach.

    Returns (per-backbone-vertex values, per-vertex foot-move values
    keyed by backbone index, for vertices with feet).
    """
    n = len(h)
    L, R = _caterpillar_tables(h)

    def pos_foot_foot(i):  # two feet of i; i absorbed
        return L[i] ^ R[i] ^ _par(h[i] - 2)

    def pos_foot_own(i):   # vertex i and one of its feet
        return L[i] ^ R[i] ^ _par(h[i] - 1)

    def pos_foot_left(i):  # foot of i and vertex i-1; i absorbed
        return L[i - 1] ^ _par(h[i - 1]) ^ _par(h[i] - 1) ^ R[i]

    def pos_foot_right(i):  # foot of i and vertex i+1; i absorbed
        return L[i] ^ _par(h[i] - 1) ^ _par(h[i + 1]) ^ R[i + 1]

    def pos_adjacent(i):   # vertices i and i+1
        return L[i] ^ _par(h[i]) ^ _par(h[i + 1]) ^ R[i + 1]

    def pos_skip(i):       # vertices i and i+2; i+1 absorbed
        return L[i] ^ _par(h[i]) ^ _par(h[i + 1]) ^ _par(h[i + 2]) ^ R[i + 2]

    backbone = []
    for i in range(n):
        cands = []
        if h[i] >= 1:
            cands.append(pos_foot_own(i))
        if i + 1 < n:
            cands.append(pos_adjacent(i))
            if h[i + 1] >= 1:
                cands.append(pos_foot_left(i + 1))
        if i - 1 >= 0:
            cands.append(pos_adjacent(i - 1))
            if h[i - 1] >= 1:
                cands.append(pos_foot_right(i - 1))
        if i + 2 < n:
            cands.append(pos_skip(i))
        if i - 2 >= 0:
            cands.append(pos_skip(i - 2))
        backbone.append(mex(cands))

    feet = {}
    for i in range(n):
        if h[i] < 1:
            continue
        cands = [pos_foot_own(i)]
        if h[i] >= 2:
            cands.append(pos_foot_foot(i))
        if i - 1 >= 0:
            cands.append(pos_foot_left(i))
        if i + 1 < n:
            cands.append(pos_foot_right(i))
        feet[i] = mex(cands)
    return backbone, feet


def caterpillar_connected_winner(spec: CaterpillarSpec) -> Verdict:
    """Connected game on a caterpillar, solved in O(backbone) time.

    The witness uses the vertex numbering of ``make_caterpillar``:
    backbone vertices 0..b-1 first, then feet grouped by backbone
    vertex.
    """
    h, left, right = _normalize_feet(spec)
    backbone_vals, foot_vals = _caterpillar_first_move_values(h)
    shift = 1 if left else 0

    def value_of_backbone(j):
        return backbone_vals[j + shift]

    def value_of_foot(j):
        # a promoted foot sits at a backbone end of the normalized tree;
        # its siblings share its value by symmetry
        if j == 0 and left:
            return backbone_vals[0]
        if j == spec.backbone - 1 and right:
            return backbone_vals[-1]
        return foot_vals[j + shift]

    all_values = [value_of_backbone(j) for j in range(spec.backbone)]
    all_values += [value_of_foot(j)
                   for j in range(spec.backbone) if spec.feet[j] >= 1]
    value = mex(all_values)
    if value == 0:
        return Verdict(Player.SECOND, 0, None)
    witness = None
    for j in range(spec.backbone):
        if value_of_backbone(j) == 0:
            witness = j
            break
    if witness is None:
        foot_id = spec.backbone
        for j in range(spec.backbone):
            if spec.feet[j] >= 1 and value_of_foot(j) == 0:
                witness = foot_id
                break
            foot_id += spec.feet[j]
    assert witness is not None, "nonzero start must have a 0-valued move"
    return Verdict(Player.FIRST, value, witness)


# =====================================================================
# Cographs (free variant)
# =====================================================================

class _PartStats:
    """Connected-component profile of one side of a join."""

    __slots__ = ("size", "comp_sizes")

    def __init__(self, size: int, comp_sizes: tuple[int, ...]):
        self.size = size
        self.comp_sizes = comp_sizes

    @property
    def comp_count(self):
        return len(self.comp_sizes)

    @property
    def has_isolated(self):
        return any(s == 1 for s in self.comp_sizes)

    @property
    def has_nonisolated(self):
        return any(s >= 2 for s in self.comp_sizes)


def _part_stats(node: CotreeNode) -> _PartStats:
    if isinstance(node, int):
        return _PartStats(1, (1,))
    sizes = tuple(len(cotree_leaves(c)) for c in node.children)
    total = sum(sizes)
    if node.op == UNION:
        return _PartStats(total, sizes)
    return _PartStats(total, (total,))


def _both_isolated_value(own: _PartStats, other: _PartStats) -> int:
    """Value of {x, y} with x, y on opposite sides of a 2-part join and
    each isolated within its side; this is the one two-move position the
    closure does not finish, so it is evaluated one move deeper.

    Any third move on a side of size >= 2 puts two labels there, which
    absorbs the entire far side; when the far side then holds >= 2
    labels it absorbs everything (value 0).  When the far side is a
    single universal vertex, what remains is one forced move per
    untouched component of the near side, worth its count mod 2.
    """
    if own.size == 1 and other.size == 1:
        return 0  # the join is K_2; nothing is left to play
    if own.size == 1:
        return mex((_par(other.comp_count - 2),))
    if other.size == 1:
        return mex((_par(own.comp_count - 2),))
    return 1  # every third move closes the graph: mex{0}


def _join_move_value(comp_size: int, own: _PartStats, other: _PartStats) -> int:
    """Value after a first move on a vertex x with component size
    ``comp_size`` inside its side of a 2-part join.

    The closure cascades across the join only through a side holding two
    labels: that side absorbs the whole opposite side, and the opposite
    side relays back only if it has >= 2 vertices.  A single-vertex far
    side cannot relay, leaving one forced move per untouched component.
    """
    cands = []
    if own.size >= 2:
        # second move on the same side: the far side is absorbed whole;
        # with >= 2 vertices there it relays and the graph closes
        if comp_size >= 2:
            cands.append(0 if other.size >= 2 else _par(own.comp_count - 1))
        if own.comp_count >= 2:
            cands.append(0 if other.size >= 2 else _par(own.comp_count - 2))
    if comp_size >= 2:
        # cross move: x's component doubles up, absorbing the far side
        cands.append(0 if other.size >= 2 else _par(own.comp_count - 1))
    else:
        if other.has_nonisolated:
            # y's component doubles up, absorbing x's whole side
            cands.append(0 if own.size >= 2 else _par(other.comp_count - 1))
        if other.has_isolated:
            cands.append(_both_isolated_value(own, other))
    return mex(cands)


def _components_of_part(node: CotreeNode) -> list[tuple[CotreeNode, int]]:
    """(component subtree, size) pairs for one side of a join; a union's
    components are exactly its children."""
    if isinstance(node, int):
        return [(node, 1)]
    if node.op == UNION:
        return [(c, len(cotree_leaves(c))) for c in node.children]
    return [(node, len(cotree_leaves(node)))]


def cotree_move_values(node: CotreeNode) -> dict[int, int]:
    """Grundy value of the position after each possible first move,
    keyed by vertex."""
    if isinstance(node, int):
        return {node: 0}
    if node.op == UNION:
        child_values = [cotree_grundy(c) for c in node.children]
        total = nim_sum(child_values)
        out = {}
        for child, gc in zip(node.children, child_values):
            rest = total ^ gc
            for x, m in cotree_move_values(child).items():
                out[x] = m ^ rest
        return out
    # join node
    if len(node.children) >= 3:
        # any second move absorbs the rest of the graph, so every first
        # move is worth mex{0} = 1
        return {x: 1 for x in cotree_leaves(node)}
    a, b = node.children
    stats_a, stats_b = _part_stats(a), _part_stats(b)
    out = {}
    for part, own, other in ((a, stats_a, stats_b), (b, stats_b, stats_a)):
        for comp, size in _components_of_part(part):
            value = _join_move_value(size, own, other)
            for x in cotree_leaves(comp):
                out[x] = value
    return out


def cotree_grundy(node: CotreeNode) -> int:
    """Grundy value of the free game on the cograph of a cotree.

    A union is a disjoint sum of independent games, so its value is the
    nim-sum of its children's values; joins and leaves take the mex of
    their first-move values.
    """
    if isinstance(node, int):
        return 1
    if node.op == UNION:
        return nim_sum(cotree_grundy(c) for c in node.children)
    return mex(set(cotree_move_values(node).values()))


def cograph_free_winner(cotree: CotreeNode) -> Verdict:
    """Free game on a cograph, solved from its cotree by component
    counting (no search)."""
    validate_cotree(cotree)
    value = cotree_grundy(cotree)
    if value == 0:
        return Verdict(Player.SECOND, 0, None)
    moves = cotree_move_values(cotree)
    witness = min(x for x, m in moves.items() if m == 0)
    return Verdict(Player.FIRST, value, witness)
