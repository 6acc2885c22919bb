"""Family solvers: frozen small values, closed forms against their
recurrences, dual derivation routes against each other, and every solver
against the exhaustive engine on small instances."""

import random

import networkx as nx
import pytest

from p3game import (Player, Position, Variant, Verdict,
                    block_connected_winner, cograph_free_values,
                    cograph_free_winner, components, connected_block_values,
                    connected_cycle_grundy, connected_cycle_winner, decide,
                    free_cycle_winner, free_path_grundy_table,
                    free_path_winner, grundy, hull,
                    induced_subgraph, ladder_connected_winner,
                    make_caterpillar, make_clique, make_cycle, make_ladder,
                    make_path, make_star, mask_of, mex, nim_sum,
                    random_caterpillar, random_chordal, random_cograph,
                    random_tree, start_position, tree_connected_grundy)
from p3game import solvers
from p3game.graphs import Graph

from helpers import atlas_graphs, graph_to_nx, has_induced_p4
from reference import (connected_cycle_arc_values, free_cycles_by_reduction,
                       reference_decide, reference_grundy)


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
        assert block_connected_winner(make_path(n)).grundy == g


def test_connected_path_closed_forms_to_1000():
    for n in [*range(1, 61), 998, 999, 1000]:
        values = connected_block_values(make_path(n))
        # an endpoint opening leaves a path with one end labeled
        assert values[0] == (n - 1) % 3
        assert mex(values) == connected_path_value(n)


# =====================================================================
# connected cycles
# =====================================================================

def test_connected_cycle_winner_pattern_to_1000():
    for n in range(3, 1001):
        g = connected_cycle_winner(n).grundy
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
        assert connected_cycle_winner(n).grundy == mex((f[1],))
        assert connected_cycle_grundy(n) == mex((f[1],))


def test_connected_cycle_rejects_small():
    with pytest.raises(ValueError):
        connected_cycle_winner(2)
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
        assert free_path_winner(n).grundy == t[(n, False, False)]
    with pytest.raises(ValueError):
        free_path_winner(0)


# =====================================================================
# free cycles
# =====================================================================

def test_free_cycle_even_and_triangle_are_second_player_wins():
    for n in list(range(4, 41, 2)) + [3]:
        assert free_cycle_winner(n) == Verdict(Player.SECOND, 0, None)


def test_free_cycle_strategy_route_equals_reduction_route():
    # the strategy shortcut (mirroring on even cycles, the clique rule
    # on the triangle) must agree with the uniform fenced-run reduction
    for n, verdict in free_cycles_by_reduction(300).items():
        assert free_cycle_winner(n) == verdict, n


def test_free_cycle_five_is_a_first_player_win():
    assert free_cycle_winner(5) == Verdict(Player.FIRST, 1, 0)


# =====================================================================
# ladders
# =====================================================================

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
        v = cograph_free_winner(make_star(t))
        if t % 2 == 0:
            assert v == Verdict(Player.FIRST, 1, 0)  # witness: the center
        else:
            assert v == Verdict(Player.SECOND, 0, None)


def test_clique_rule():
    assert cograph_free_winner(make_clique(1)) == Verdict(Player.FIRST, 1, 0)
    for n in range(2, 51):
        assert cograph_free_winner(make_clique(n)) == \
            Verdict(Player.SECOND, 0, None)


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
    with pytest.raises(ValueError, match="not a tree"):
        tree_connected_grundy(make_cycle(4))
    with pytest.raises(ValueError, match="not a tree"):
        tree_connected_grundy(Graph(2, []))


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

def _hulls_are_blocks(g):
    """Whether every edge's hull is its networkx biconnected component."""
    blocks = [mask_of(b) for b in nx.biconnected_components(graph_to_nx(g))]
    return all(hull(g, (1 << u) | (1 << v)) in blocks
               for u, v in g.edges())


def test_block_solver_on_every_atlas_graph():
    accepted = chordal = 0
    for g in atlas_graphs(7):
        if not _hulls_are_blocks(g):
            with pytest.raises(ValueError, match="not its whole block"):
                block_connected_winner(g)
            continue
        assert block_connected_winner(g) == \
            reference_decide(g, Variant.CONNECTED), g.edges()
        accepted += 1
        chordal += nx.is_chordal(graph_to_nx(g))
    # every chordal graph is among the accepted ones
    assert chordal == sum(nx.is_chordal(graph_to_nx(g))
                          for g in atlas_graphs(7)) == 531
    assert accepted == 712


def test_block_solver_values_every_opening_on_the_atlas():
    # the whole list, not only the verdict it leads to: a value wrong
    # above the mex leaves the verdict right
    for g in atlas_graphs(7):
        if _hulls_are_blocks(g):
            memo = {}
            assert connected_block_values(g) == \
                [reference_grundy(g, 1 << x, Variant.CONNECTED, memo)
                 for x in range(g.n)], g.edges()


def test_block_solver_rejects_graphs_whose_edges_do_not_close_blocks():
    house = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)])
    for g in (make_cycle(4), make_ladder(3), house):
        with pytest.raises(ValueError, match="not its whole block"):
            connected_block_values(g)
    with pytest.raises(ValueError, match="empty graph"):
        block_connected_winner(Graph(0, []))


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
        assert block_connected_winner(g).grundy == connected_path_value(b)


def test_caterpillar_star_example_matches_tree_solver():
    tree = make_caterpillar((0, 1, 0))
    v = block_connected_winner(tree)
    assert v.grundy == tree_connected_grundy(tree)


def test_caterpillar_worked_example_against_engine():
    g = make_caterpillar((1, 0, 0, 1))
    assert block_connected_winner(g) == decide(g, Variant.CONNECTED)


def test_caterpillar_witness_is_a_winning_move():
    rng = random.Random(32)
    for _ in range(60):
        g = random_caterpillar(rng.randint(1, 12), rng)
        v = block_connected_winner(g)
        if v.winner is Player.FIRST:
            pos = Position(g, hull(g, 1 << v.witness), Variant.CONNECTED)
            assert grundy(pos) == 0


# =====================================================================
# cographs
# =====================================================================

def test_cograph_clique_rule_agreement():
    for n in range(2, 11):
        v = cograph_free_winner(make_clique(n))
        assert v == Verdict(Player.SECOND, 0, None)
    assert cograph_free_winner(Graph(1, [])) == Verdict(Player.FIRST, 1, 0)
    with pytest.raises(ValueError, match="empty graph"):
        cograph_free_winner(Graph(0, []))


def test_cograph_union_of_two_edges():
    g = Graph(4, [(0, 1), (2, 3)])
    # each edge is worth 0, so every opening leaves 1 ^ 0
    assert cograph_free_values(g) == [1, 1, 1, 1]
    assert cograph_free_winner(g).winner is Player.SECOND


def test_cograph_universal_vertex_parity_example():
    # join of a single vertex with three disjoint edges: after taking
    # the universal vertex, each remaining edge is one forced move, so
    # the reply position is worth the parity of three, value 1
    g = Graph(7, [(0, v) for v in range(1, 7)] + [(1, 2), (3, 4), (5, 6)])
    assert cograph_free_values(g) == [1, 2, 2, 2, 2, 2, 2]
    v = cograph_free_winner(g)
    assert v == Verdict(Player.SECOND, 0, None)
    assert v == decide(g, Variant.FREE)


def test_cograph_paw_regression():
    # paw: triangle with a pendant vertex attached through the join; a
    # one-vertex far side cannot relay the cascade back, so taking the
    # universal vertex leaves two forced moves, value 0, first win
    paw = Graph(4, [(0, 3), (1, 2), (1, 3), (2, 3)])
    moves = cograph_free_values(paw)
    assert moves[3] == 0
    assert mex(moves) == 1
    assert cograph_free_winner(paw) == decide(paw, Variant.FREE)


def test_cograph_wide_union_under_a_universal_vertex_regression():
    # six pieces under the union, one of them an edge; playing the lone
    # join vertex leaves one forced move per far component rather than
    # absorbing them outright
    g = Graph(8, [(1, v) for v in (0, 2, 3, 4, 5, 6, 7)] + [(3, 5)])
    assert cograph_free_values(g)[1] == 0
    v = cograph_free_winner(g)
    assert v == Verdict(Player.FIRST, 1, 1)
    assert v == decide(g, Variant.FREE)


def test_cograph_move_values_mex_to_grundy():
    # each opening value is the engine's value of the position it leaves
    rng = random.Random(33)
    for _ in range(50):
        g = random_cograph(rng.randint(1, 9), rng)
        values = cograph_free_values(g)
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
            expect ^= mex(cograph_free_values(part))
        assert mex(cograph_free_values(g)) == expect


def test_cograph_solver_matches_engine_on_random_cotrees():
    rng = random.Random(35)
    for _ in range(40):
        g = random_cograph(rng.randint(1, 10), rng)
        assert cograph_free_winner(g) == decide(g, Variant.FREE)


def test_cograph_solver_rejects_non_cographs():
    house = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)])
    for g in (make_path(4), make_cycle(5), house):
        with pytest.raises(ValueError, match="induced P4"):
            cograph_free_values(g)
        with pytest.raises(ValueError, match="induced P4"):
            cograph_free_winner(g)


def test_cograph_solver_on_every_atlas_graph():
    cographs = 0
    for g in atlas_graphs(7):
        if has_induced_p4(g):
            with pytest.raises(ValueError, match="induced P4"):
                cograph_free_winner(g)
            continue
        assert cograph_free_winner(g) == \
            reference_decide(g, Variant.FREE), g.edges()
        cographs += 1
    assert cographs == 287


def test_cograph_solver_values_every_opening_on_the_atlas():
    for g in atlas_graphs(7):
        if not has_induced_p4(g):
            memo = {}
            assert cograph_free_values(g) == \
                [reference_grundy(g, 1 << x, Variant.FREE, memo)
                 for x in range(g.n)], g.edges()


# =====================================================================
# oracle equivalence at small scale (the larger sweeps live in the
# acceptance tests and the verify module)
# =====================================================================

def test_path_solvers_match_engine_both_variants():
    for n in range(1, 13):
        g = make_path(n)
        assert block_connected_winner(g) == decide(g, Variant.CONNECTED)
        assert free_path_winner(n).grundy == \
            grundy(start_position(g, Variant.FREE))
        assert free_path_winner(n) == decide(g, Variant.FREE)


def test_cycle_solvers_match_engine_both_variants():
    for n in range(3, 13):
        g = make_cycle(n)
        assert connected_cycle_grundy(n) == \
            grundy(start_position(g, Variant.CONNECTED))
        assert connected_cycle_winner(n) == decide(g, Variant.CONNECTED)
        ov = decide(g, Variant.FREE)
        assert free_cycle_winner(n) == ov
