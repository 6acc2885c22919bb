"""Family solvers: frozen small values, closed forms against their
recurrences, dual derivation routes against each other, and every solver
against the exhaustive engine on small instances."""

import random
from functools import cache, partial
from itertools import combinations_with_replacement

import networkx as nx
import pytest

from p3game import (Player, Position, Variant, Verdict, best_move,
                    component_free_values, components, connected_block_values,
                    connected_cycle_grundy, connected_cycle_values, decide,
                    free_path_grundy_table, grundy, hull, induced_subgraph,
                    ladder_connected_values, ladder_connected_winner,
                    make_caterpillar, make_clique, make_cycle, make_ladder,
                    make_path, make_star, mask_of, mex, nim_sum,
                    opening_values, random_caterpillar, random_chordal,
                    random_cograph, random_gnp, random_tree, start_position,
                    tree_connected_grundy)
from p3game import solvers
from p3game.graphs import Graph

from helpers import (atlas_graphs, atlas_openings, disjoint_union,
                     graph_to_nx, has_induced_p4, union_openings)
from reference import (connected_cycle_arc_values, fenced_run_table,
                       free_cycles_by_reduction, join_opening_value_by_moves,
                       reference_grundy)


# =====================================================================
# connected paths
# =====================================================================

def connected_path_value(n):
    """Start value of P_n in the connected game: 2 when n = 2 (mod 3),
    except 0 at n = 2, and 1 otherwise."""
    return 0 if n == 2 else 2 if n % 3 == 2 else 1


def test_connected_path_frozen_values():
    expected = {1: 1, 2: 0, 3: 1, 4: 1, 5: 2, 6: 1, 7: 1, 8: 2, 9: 1,
                10: 1, 11: 2, 12: 1}
    for n, g in expected.items():
        assert mex(connected_block_values(make_path(n))) == g


def test_connected_path_closed_forms_to_1000():
    for n in [*range(1, 61), 998, 999, 1000]:
        values = connected_block_values(make_path(n))
        # an endpoint opening leaves a path with one end labeled
        assert values[0] == (n - 1) % 3
        assert mex(values) == connected_path_value(n)


# =====================================================================
# connected cycles
# =====================================================================

def test_connected_cycle_values_pattern_to_1000():
    for n in range(3, 1001):
        values = connected_cycle_values(n)
        assert len(values) == n and len(set(values)) == 1
        g = mex(values)
        assert (g != 0) == (n % 3 == 2)
        assert g == (1 if n % 3 == 2 else 0)


def test_connected_cycle_arc_recurrence():
    for n in range(3, 61):
        f = connected_cycle_arc_values(n)
        assert f[n] == 0
        assert f[n - 2] == 1
        assert n - 1 not in f, "no position misses exactly one vertex"
        assert set(f) == {n} | set(range(1, n - 1))
        if n >= 4:
            # with three unlabeled vertices the middle move closes the
            # whole cycle, so the recurrence draws on f(n) here
            assert f[n - 3] == mex((f[n - 2], f[n]))
        for k in range(1, n - 3):
            assert f[k] == mex((f[k + 1], f[k + 2]))
        assert f[1] == {2: 0, 0: 1, 1: 2}[n % 3]
        assert connected_cycle_values(n) == [f[1]] * n
        assert connected_cycle_grundy(n) == mex((f[1],))


def test_connected_cycle_rejects_small():
    with pytest.raises(ValueError):
        connected_cycle_values(2)
    with pytest.raises(ValueError):
        connected_cycle_arc_values(2)


# =====================================================================
# free paths
# =====================================================================

def test_free_path_table_frozen_values():
    t = free_path_grundy_table(6)
    assert t[(1, False, False)] == 1
    assert t[(2, False, False)] == 0
    assert t[(3, False, False)] == 1
    assert t[(4, False, False)] == 1
    assert t[(5, False, False)] == 2
    assert t[(6, False, False)] == 1
    # a run of one vertex fenced on both sides is absorbed outright
    assert t[(1, True, True)] == 0
    assert t[(2, True, True)] == 1
    assert t[(3, True, True)] == 2
    assert t[(4, True, True)] == 0
    assert t[(1, True, False)] == 1
    assert t[(2, True, False)] == 2


def test_free_path_table_extends_monotonically():
    small, big = free_path_grundy_table(9), free_path_grundy_table(16)
    for key, value in small.items():
        assert big[key] == value


def test_free_path_grundy_reads_the_unfenced_run():
    t = free_path_grundy_table(12)
    for n in range(1, 13):
        assert mex(component_free_values(make_path(n))) == \
            t[(n, False, False)]
    with pytest.raises(ValueError):
        free_path_grundy_table(0)


@pytest.fixture(scope="module")
def fenced_runs():
    return fenced_run_table(1000)


def test_free_path_table_matches_the_fenced_run_recursion(fenced_runs):
    # the Officers view against the four-flag recursion, key for key
    assert free_path_grundy_table(1000) == fenced_runs


def test_odd_runs_fenced_on_both_sides_are_nonzero(fenced_runs):
    # O(k) != 0 for odd k >= 3: on an even cycle every opening leaves an
    # odd run fenced on both sides, so every even cycle is a second
    # player win, as mirroring through the centre says
    for k in range(3, 1000, 2):
        assert fenced_runs[(k, True, True)] != 0, k


# =====================================================================
# free cycles
# =====================================================================

def test_free_cycle_even_and_triangle_are_second_player_wins():
    for n in list(range(4, 41, 2)) + [3]:
        assert mex(component_free_values(make_cycle(n))) == 0, n


def test_free_cycle_strategy_route_equals_reduction_route():
    # the solver's Officers heap of n - 1 must agree with the uniform
    # reduction read from the four-flag table, which knows nothing of
    # mirroring on even cycles or of the triangle being a clique
    for n, verdict in free_cycles_by_reduction(300).items():
        values = component_free_values(make_cycle(n))
        assert Verdict.from_openings(values) == verdict, n


def test_free_cycle_five_is_a_first_player_win():
    assert Verdict.from_openings(component_free_values(make_cycle(5))) == \
        Verdict(Player.FIRST, 1, 0)


# =====================================================================
# ladders
# =====================================================================

def test_ladder_values_rule():
    # n mod 3 is 1 or 2: every opening is worth n mod 3; n mod 3 is 0:
    # the corners 0, n-1, n and 2n-1 are worth 0, the rest 3
    assert ladder_connected_values(1) == [1, 1]
    assert ladder_connected_values(2) == [2] * 4
    assert ladder_connected_values(3) == [0, 3, 0, 0, 3, 0]
    assert ladder_connected_values(6) == [0, 3, 3, 3, 3, 0] * 2
    assert ladder_connected_values(7) == [1] * 14
    with pytest.raises(ValueError):
        ladder_connected_values(0)


def test_ladder_winner_formula_symbolically_to_1000():
    for n in range(1, 1001):
        v = ladder_connected_winner(n)
        # first player wins exactly when the vertex count 2n is a
        # multiple of six
        if (2 * n) % 6 == 0:
            assert v == Verdict(Player.FIRST, 1, 0)  # witness: a corner
        else:
            assert v == Verdict(Player.SECOND, 0, None)
    with pytest.raises(ValueError):
        ladder_connected_winner(0)


# =====================================================================
# stars and cliques
# =====================================================================

def test_star_parity_rule():
    for t in range(0, 51):
        v = Verdict.from_openings(component_free_values(make_star(t)))
        if t % 2 == 0:
            assert v == Verdict(Player.FIRST, 1, 0)  # witness: the center
        else:
            assert v == Verdict(Player.SECOND, 0, None)


def test_star_opening_values():
    # the centre is its side alone across from t one-vertex components,
    # and a leaf is one of t components across from the centre
    for t in range(2, 51):
        values = [t % 2] + [2] * t
        assert component_free_values(make_star(t)) == values
        if t <= 12:
            assert opening_values(make_star(t), Variant.FREE) == values


def test_clique_rule():
    assert component_free_values(make_clique(1)) == [0]
    for n in range(2, 51):
        # every opening closes the clique from the first reply
        assert component_free_values(make_clique(n)) == [1] * n


# =====================================================================
# trees
# =====================================================================

def test_tree_solver_on_paths_matches_path_solver():
    # far past the default recursion limit: the solver keeps its own stack
    for n in [*range(1, 31), 4998, 4999, 5000]:
        assert tree_connected_grundy(make_path(n)) == connected_path_value(n)


def test_tree_solver_solves_5000_vertex_trees():
    tree = random_tree(5000, random.Random(34))
    values = connected_block_values(tree)
    assert tree_connected_grundy(tree) == mex(values)
    # a spider opened at its centre is a sum of legs, each a path with
    # one end labeled, worth (n - 1) mod 3 on n vertices
    legs = [1 + 97 * k % 199 for k in range(50)]
    edges, n = [], 1
    for length in legs:
        edges += [(0 if i == 0 else n + i - 1, n + i) for i in range(length)]
        n += length
    spider = Graph(n, edges)
    assert n > 5000
    assert connected_block_values(spider)[0] == \
        nim_sum(length % 3 for length in legs)


def test_tree_solver_basics():
    assert tree_connected_grundy(Graph(1, [])) == 1
    assert tree_connected_grundy(make_path(7)) == connected_path_value(7)
    star = make_star(5)
    assert tree_connected_grundy(star) == \
        grundy(start_position(star, Variant.CONNECTED))
    # a cycle, no vertex, and two disconnected forests
    for g in (make_cycle(4), Graph(0, []), Graph(2, []),
              Graph(4, [(0, 1), (2, 3)])):
        with pytest.raises(ValueError, match="not a tree"):
            tree_connected_grundy(g)


def test_tree_solver_first_move_decomposition():
    rng = random.Random(30)
    for _ in range(20):
        t = random_tree(rng.randint(1, 12), rng)
        per_move = connected_block_values(t)
        assert tree_connected_grundy(t) == mex(per_move)
        # each first-move value equals the engine value of that position
        for x in range(min(t.n, 4)):
            pos = Position(t, hull(t, 1 << x), Variant.CONNECTED)
            assert per_move[x] == grundy(pos)


def test_tree_solver_matches_engine_on_small_trees():
    from p3game.verify import enumerate_trees
    for n, idx, t in enumerate_trees(8):
        assert tree_connected_grundy(t) == \
            grundy(start_position(t, Variant.CONNECTED)), (n, idx)


# =====================================================================
# blocks: trees, caterpillars, chordal graphs (connected variant)
# =====================================================================

@cache
def _hulls_are_blocks(g):
    """Whether every edge's hull is its networkx biconnected component.
    Kept per graph (a Graph hashes by value) for the session."""
    blocks = [mask_of(b) for b in nx.biconnected_components(graph_to_nx(g))]
    return all(hull(g, (1 << u) | (1 << v)) in blocks
               for u, v in g.edges())


def test_block_solver_on_every_atlas_graph():
    accepted = chordal = chordal_accepted = 0
    for g, lists in atlas_openings():
        is_chordal = nx.is_chordal(graph_to_nx(g))
        chordal += is_chordal
        if not _hulls_are_blocks(g):
            with pytest.raises(ValueError, match="not its whole block"):
                connected_block_values(g)
            continue
        assert Verdict.from_openings(connected_block_values(g)) == \
            Verdict.from_openings(lists[Variant.CONNECTED]), g.edges()
        accepted += 1
        chordal_accepted += is_chordal
    # every chordal graph is among the accepted ones
    assert chordal_accepted == chordal == 531
    assert accepted == 712


def test_block_solver_values_every_opening_on_the_atlas():
    # the whole list, not only the verdict it leads to: a value wrong
    # above the mex leaves the verdict right
    for g, lists in atlas_openings():
        if _hulls_are_blocks(g):
            assert connected_block_values(g) == lists[Variant.CONNECTED], \
                g.edges()


def test_block_solver_rejects_graphs_whose_edges_do_not_close_blocks():
    house = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)])
    for g in (make_cycle(4), make_ladder(3), house):
        with pytest.raises(ValueError, match="not its whole block"):
            connected_block_values(g)
    # the empty graph has no opening: the first player cannot move
    assert connected_block_values(Graph(0, [])) == []
    assert Verdict.from_openings(connected_block_values(Graph(0, []))) == \
        Verdict(Player.SECOND, 0, None)


@pytest.mark.parametrize("g, calls", [
    (random_tree(200, random.Random(1)), 597),
    (make_path(50), 147),
    (random_chordal(200, random.Random(2)), 305),
    (make_caterpillar([2, 0, 3]), 21),
])
def test_block_solver_lists_each_branch_once(monkeypatch, g, calls):
    """``bits`` runs once per block, to index its vertices, and once per
    directed branch (c, B), to list what hangs at B's other vertices:
    the block count plus the sum of the block sizes."""
    bits, count = solvers.bits, [0]

    def counted(mask):
        count[0] += 1
        return bits(mask)
    monkeypatch.setattr(solvers, "bits", counted)
    connected_block_values(g)
    blocks = list(nx.biconnected_components(graph_to_nx(g)))
    assert count[0] == len(blocks) + sum(map(len, blocks)) == calls


def test_caterpillar_of_a_path_matches_path_solver():
    for b in range(1, 21):
        g = make_caterpillar((0,) * b)
        assert mex(connected_block_values(g)) == connected_path_value(b)


def test_caterpillar_star_example_matches_tree_solver():
    tree = make_caterpillar((0, 1, 0))
    assert mex(connected_block_values(tree)) == tree_connected_grundy(tree)


def test_caterpillar_worked_example_against_engine():
    g = make_caterpillar((1, 0, 0, 1))
    assert connected_block_values(g) == opening_values(g, Variant.CONNECTED)


def test_caterpillar_witness_is_a_winning_move():
    rng = random.Random(32)
    for _ in range(60):
        g = random_caterpillar(rng.randint(1, 12), rng)
        v = Verdict.from_openings(connected_block_values(g))
        if v.winner is Player.FIRST:
            pos = Position(g, hull(g, 1 << v.witness), Variant.CONNECTED)
            assert grundy(pos) == 0


# =====================================================================
# cographs
# =====================================================================

def test_cograph_clique_rule_agreement():
    for n in range(2, 11):
        v = Verdict.from_openings(component_free_values(make_clique(n)))
        assert v == Verdict(Player.SECOND, 0, None)
    assert Verdict.from_openings(component_free_values(Graph(1, []))) == \
        Verdict(Player.FIRST, 1, 0)
    # the empty graph has no opening: the first player cannot move
    assert component_free_values(Graph(0, [])) == []
    assert Verdict.from_openings(component_free_values(Graph(0, []))) == \
        Verdict(Player.SECOND, 0, None)


def test_cograph_union_of_two_edges():
    g = Graph(4, [(0, 1), (2, 3)])
    # each edge is worth 0, so every opening leaves 1 ^ 0
    assert component_free_values(g) == [1, 1, 1, 1]
    assert mex(component_free_values(g)) == 0


def test_cograph_universal_vertex_parity_example():
    # join of a single vertex with three disjoint edges: after taking
    # the universal vertex, each remaining edge is one forced move, so
    # the reply position is worth the parity of three, value 1
    g = Graph(7, [(0, v) for v in range(1, 7)] + [(1, 2), (3, 4), (5, 6)])
    assert component_free_values(g) == [1, 2, 2, 2, 2, 2, 2]
    assert component_free_values(g) == opening_values(g, Variant.FREE)


def test_cograph_paw_regression():
    # paw: triangle with a pendant vertex attached through the join; a
    # one-vertex far side cannot relay the cascade back, so taking the
    # universal vertex leaves two forced moves, value 0, first win
    paw = Graph(4, [(0, 3), (1, 2), (1, 3), (2, 3)])
    moves = component_free_values(paw)
    assert moves[3] == 0
    assert mex(moves) == 1
    assert moves == opening_values(paw, Variant.FREE)


def test_cograph_wide_union_under_a_universal_vertex_regression():
    # six pieces under the union, one of them an edge; playing the lone
    # join vertex leaves one forced move per far component rather than
    # absorbing them outright
    g = Graph(8, [(1, v) for v in (0, 2, 3, 4, 5, 6, 7)] + [(3, 5)])
    values = component_free_values(g)
    assert values[1] == 0
    assert Verdict.from_openings(values) == Verdict(Player.FIRST, 1, 1)
    assert values == opening_values(g, Variant.FREE)


def test_cograph_move_values_mex_to_grundy():
    # each opening value is the engine's value of the position it leaves
    rng = random.Random(33)
    for _ in range(50):
        g = random_cograph(rng.randint(1, 9), rng)
        values = component_free_values(g)
        assert values == [grundy(Position(g, hull(g, 1 << x), Variant.FREE))
                          for x in range(g.n)]
        assert mex(values) == grundy(start_position(g, Variant.FREE))


def test_cograph_union_value_is_nim_sum_of_children():
    rng = random.Random(34)
    seen_unions = 0
    while seen_unions < 20:
        g = random_cograph(rng.randint(1, 10), rng)
        parts = components(g)
        if len(parts) < 2:
            continue
        seen_unions += 1
        expect = 0
        for comp in parts:
            part, _ = induced_subgraph(g, comp)
            expect ^= mex(component_free_values(part))
        assert mex(component_free_values(g)) == expect


def test_cograph_solver_matches_engine_on_random_cotrees():
    rng = random.Random(35)
    for _ in range(40):
        g = random_cograph(rng.randint(1, 10), rng)
        assert component_free_values(g) == opening_values(g, Variant.FREE)


def _join(a, b):
    """The join of a and b: side by side, with every edge between them."""
    g = disjoint_union([a, b])
    return Graph(g.n, g.edges() + [(u, a.n + v) for u in range(a.n)
                                   for v in range(b.n)])


def test_cograph_solver_rejects_non_cographs():
    # a path or a cycle is an Officers heap even when it holds a P_4
    for g in (make_path(4), make_cycle(5)):
        assert component_free_values(g) == opening_values(g, Variant.FREE)
    # and a join is valued by its sides' component sizes, whatever the
    # sides hold: the gem (P_4 under one vertex), the wheel W_5 (C_5
    # under one vertex) and P_4 + P_4
    for g in (_join(make_path(4), Graph(1, [])),
              _join(make_cycle(5), Graph(1, [])),
              _join(make_path(4), make_path(4))):
        assert component_free_values(g) == opening_values(g, Variant.FREE)
    house = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)])
    fork = Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])  # P_4 and a pendant
    for g in (house, fork, disjoint_union([make_path(3), house])):
        with pytest.raises(ValueError, match="neither a path"):
            component_free_values(g)


@cache
def _solvable(g):
    """Whether every component of g has all degrees at most 2 (a path
    or a cycle) or a disconnected complement (a join), read by networkx.
    Kept per graph (a Graph hashes by value) for the session."""
    whole = graph_to_nx(g)
    for comp in nx.connected_components(whole):
        part = whole.subgraph(comp)
        if max(d for _, d in part.degree) > 2 and \
                nx.is_connected(nx.complement(part)):
            return False
    return True


def test_cograph_solver_on_every_atlas_graph():
    cographs = 0
    for g, lists in atlas_openings():
        if has_induced_p4(g):
            if not _solvable(g):
                with pytest.raises(ValueError, match="neither a path"):
                    component_free_values(g)
            continue
        assert Verdict.from_openings(component_free_values(g)) == \
            Verdict.from_openings(lists[Variant.FREE]), g.edges()
        cographs += 1
    assert cographs == 287


def test_cograph_solver_values_every_opening_on_the_atlas():
    # the whole list, not only the verdict it leads to: a value wrong
    # above the mex leaves the verdict right
    for g, lists in atlas_openings():
        if not has_induced_p4(g):
            assert component_free_values(g) == lists[Variant.FREE], \
                g.edges()


def test_component_solver_values_every_opening_on_the_atlas():
    # the graphs with an induced P_4 that the solver still takes, each
    # of its P_4-holding components a path, a cycle or a join; the
    # cographs are checked above, and together they make every graph it
    # accepts
    accepted = 0
    for g, lists in atlas_openings():
        if not has_induced_p4(g):
            continue
        if not _solvable(g):
            with pytest.raises(ValueError, match="neither a path"):
                component_free_values(g)
            continue
        assert component_free_values(g) == lists[Variant.FREE], g.edges()
        accepted += 1
    assert accepted == 436 - 287


def test_component_solver_values_every_opening_on_random_joins():
    # two arbitrary G(n, p) sides, labels shuffled: the join rule reads
    # only the sides' component sizes, whatever they hold inside
    rng = random.Random(37)
    for _ in range(100):
        a = rng.randint(1, 13)
        b = rng.randint(1, 14 - a)
        g = _join(random_gnp(a, rng.random(), rng),
                  random_gnp(b, rng.random(), rng))
        order = list(range(g.n))
        rng.shuffle(order)
        g = Graph(g.n, [(order[u], order[v]) for u, v in g.edges()])
        memo = {}
        assert component_free_values(g) == \
            [reference_grundy(g, 1 << x, Variant.FREE, memo)
             for x in range(g.n)], g.edges()


def test_join_rule_matches_the_move_search():
    # every feature the three cases read (sides of one vertex or more,
    # component counts one to four, x's component alone or not, an
    # isolated vertex across or not) occurs in this range
    sides = [list(sizes) for k in range(1, 5)
             for sizes in combinations_with_replacement(range(1, 5), k)]
    checked = 0
    for own in sides:
        for far in sides:
            for s in set(own):
                assert solvers._join_opening_value(s, own, far) == \
                    join_opening_value_by_moves(s, own, far), (s, own, far)
                checked += 1
    assert checked == 9660


def test_every_opening_of_a_join_of_two_large_sides_is_worth_1_or_2():
    # by the search, on the connected atlas graphs that split into two
    # sides of two or more vertices with every edge between them, and
    # on the random joins drawn above; the co-components (components of
    # the complement) group into two such sides unless there are fewer
    # than two, or two with a single vertex in one
    joins = 0
    for g, lists in atlas_openings():
        sizes = [len(c) for c in nx.connected_components(
            nx.complement(graph_to_nx(g)))]
        if len(sizes) >= 2 and g.n >= 4 \
                and not (len(sizes) == 2 and min(sizes) == 1):
            assert set(lists[Variant.FREE]) <= {1, 2}, g.edges()
            joins += 1
    assert joins == 112
    rng = random.Random(37)
    for _ in range(100):
        a = rng.randint(1, 13)
        b = rng.randint(1, 14 - a)
        g = _join(random_gnp(a, rng.random(), rng),
                  random_gnp(b, rng.random(), rng))
        if a >= 2 and b >= 2:
            memo = {}
            assert {reference_grundy(g, 1 << x, Variant.FREE, memo)
                    for x in range(g.n)} <= {1, 2}, g.edges()
            joins += 1
    assert joins == 112 + 73


def test_free_and_connected_solvers_agree_on_diameter_two():
    # on a connected graph of diameter at most 2 every vertex is within
    # distance two of the labeled set, so the connected game is the free
    # game: the block and join rules check each other at sizes the
    # engine cannot reach
    friendship = [Graph(2 * t + 1, [(0, v) for v in range(1, 2 * t + 1)]
                        + [(2 * i + 1, 2 * i + 2) for i in range(t)])
                  for t in (1, 2, 3, 5, 10, 50, 300)]
    rng = random.Random(38)
    apexes = []
    for _ in range(40):
        n = rng.randint(1, 119)
        forest = [(v, rng.randrange(v)) for v in range(1, n)
                  if rng.random() < 0.8]
        apexes.append(Graph(n + 1, forest + [(n, v) for v in range(n)]))
    for g in ([make_star(t) for t in (1, 2, 3, 4, 5, 10, 50, 100, 400)]
              + friendship
              + [make_clique(n) for n in (1, 2, 3, 4, 5, 10, 30, 60)]
              + apexes):
        assert connected_block_values(g) == component_free_values(g), \
            g.edges()


def test_component_solver_matches_engine_on_mixed_unions():
    # paths, cycles and cographs side by side, vertex labels shuffled so
    # that no path or cycle is walked in its built order
    rng = random.Random(36)
    for _ in range(80):
        parts, room = [], 14
        while room:
            kind = rng.choice(("path", "cycle", "cograph"))
            if kind == "cycle" and room < 3:
                kind = "path"
            size = rng.randint(3 if kind == "cycle" else 1, min(6, room))
            room -= size
            parts.append(make_path(size) if kind == "path"
                         else make_cycle(size) if kind == "cycle"
                         else random_cograph(size, rng))
            if rng.random() < 0.3:
                break
        g = disjoint_union(parts)
        order = list(range(g.n))
        rng.shuffle(order)
        g = Graph(g.n, [(order[u], order[v]) for u, v in g.edges()])
        assert component_free_values(g) == \
            opening_values(g, Variant.FREE), g.edges()


def test_solvers_open_a_union_as_its_parts():
    # past the engine's reach: parts of up to 60 vertices, each solved
    # alone, against the whole union; connected_block_values on trees
    # and chordal graphs, component_free_values on paths, cycles and
    # joins (cographs, some of them disconnected)
    rng = random.Random(38)
    builds = {
        Variant.CONNECTED: (connected_block_values,
                            [random_tree, random_chordal]),
        Variant.FREE: (component_free_values,
                       [lambda n, rng: make_path(n),
                        lambda n, rng: make_cycle(max(n, 3)),
                        random_cograph]),
    }
    for variant, (solve, kinds) in builds.items():
        for _ in range(40):
            parts = [rng.choice(kinds)(rng.randint(1, 60), rng)
                     for _ in range(rng.randint(2, 4))]
            assert solve(disjoint_union(parts)) == \
                union_openings([solve(p) for p in parts], variant), \
                [p.edges() for p in parts]


def test_no_answer_builds_a_graph(monkeypatch):
    # a join (K1,3), a path and a cycle side by side, and a tree: every
    # answer reads the graph it is given and builds no other
    mixed = disjoint_union([make_star(3), make_path(4), make_cycle(5)])
    tree = make_caterpillar([2, 0, 1])
    built = []
    init = Graph.__init__

    def counted_init(self, n, edges):
        built.append("__init__")
        init(self, n, edges)

    monkeypatch.setattr(Graph, "__init__", counted_init)
    for g in (mixed, tree):
        for variant in Variant:
            decide(g, variant)
            opening_values(g, variant)
            grundy(start_position(g, variant))
            best_move(start_position(g, variant))
    component_free_values(mixed)
    connected_block_values(tree)
    tree_connected_grundy(tree)
    assert built == []
    make_path(2)  # the count sees a builder's graph
    random_cograph(3, random.Random(0))  # and a random generator's
    assert built == ["__init__", "__init__"]


# =====================================================================
# oracle equivalence at small scale (the larger sweeps live in the
# acceptance tests and the verify module)
# =====================================================================

def test_path_solvers_match_engine_both_variants():
    for n in range(1, 13):
        g = make_path(n)
        assert connected_block_values(g) == \
            opening_values(g, Variant.CONNECTED)
        assert mex(component_free_values(g)) == \
            grundy(start_position(g, Variant.FREE))
        assert component_free_values(g) == opening_values(g, Variant.FREE)


def test_cycle_solvers_match_engine_both_variants():
    for n in range(3, 13):
        g = make_cycle(n)
        assert connected_cycle_grundy(n) == \
            grundy(start_position(g, Variant.CONNECTED))
        assert connected_cycle_values(n) == \
            opening_values(g, Variant.CONNECTED)
        assert component_free_values(g) == opening_values(g, Variant.FREE)


# =====================================================================
# identities that reach past the engine's whole-graph search
# =====================================================================

def _glue_at_a_hub(parts, hubs):
    """The parts glued at one vertex, vertex 0: part i's vertex hubs[i]
    becomes the hub, and its other vertices are numbered after those of
    the parts before it."""
    edges, n = [], 1
    for part, hub in zip(parts, hubs):
        ids = {}
        for x in range(part.n):
            if x == hub:
                ids[x] = 0
            else:
                ids[x], n = n, n + 1
        edges += [(ids[u], ids[v]) for u, v in part.edges()]
    return Graph(n, edges)


def test_hub_opening_is_the_nim_sum_of_the_parts():
    # no vertex of one part has a neighbour in another but the hub, so
    # every hull stays in its part, and a vertex within distance two
    # across the hub is next to it: labeled, the hub splits the game into
    # the parts, in both variants
    rng = random.Random(41)
    sizes, values = [], set()
    for _ in range(20):
        parts = [random_chordal(rng.randint(2, 9), rng)
                 for _ in range(rng.randint(5, 40))]
        hubs = [rng.randrange(part.n) for part in parts]
        g = _glue_at_a_hub(parts, hubs)
        sizes.append(g.n)
        expect = {}
        for variant in Variant:
            expect[variant] = nim_sum(
                grundy(Position(part, 1 << hub, variant))
                for part, hub in zip(parts, hubs))
            assert grundy(Position(g, 1, variant)) == expect[variant]
        # glued chordal parts are chordal, so the block solver takes them
        assert connected_block_values(g)[0] == expect[Variant.CONNECTED]
        values.add(expect[Variant.CONNECTED])
    assert max(sizes) > 150 and len(values) > 2


def _relabel(g, order):
    """g with each vertex x renamed order[x]."""
    return Graph(g.n, [(order[u], order[v]) for u, v in g.edges()])


def _permutes(solve, g, order):
    """Whether solve's list on the relabeled g is its list on g, moved
    by the same permutation; a solver that rejects g must reject both."""
    try:
        values = solve(g)
    except ValueError:
        with pytest.raises(ValueError):
            solve(_relabel(g, order))
        return True
    moved = [0] * g.n
    for x, value in enumerate(values):
        moved[order[x]] = value
    return solve(_relabel(g, order)) == moved


def test_relabeling_permutes_every_opening_list():
    rng = random.Random(42)
    engine = [partial(opening_values, variant=v) for v in Variant]
    both = [connected_block_values, component_free_values]
    atlas = atlas_graphs(7)
    gnp = [random_gnp(rng.randint(8, 12), rng.random(), rng)
           for _ in range(20)]
    chordal = [random_chordal(rng.randint(10, 60), rng) for _ in range(20)]
    cographs = [random_cograph(rng.randint(10, 60), rng) for _ in range(20)]
    # the engine on the atlas graphs of up to 6 vertices and on G(n, p)
    # samples, the solvers on every atlas graph and on their own classes
    for graphs, checks in (([g for g in atlas if g.n <= 6] + gnp, engine),
                           (atlas, both),
                           (chordal, [connected_block_values]),
                           (cographs, [component_free_values])):
        for g in graphs:
            order = list(range(g.n))
            rng.shuffle(order)
            for solve in checks:
                assert _permutes(solve, g, order), (g.edges(), order)
