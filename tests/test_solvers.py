"""Family solvers: frozen small values, closed forms against their
recurrences, dual derivation routes against each other, and every solver
against the exhaustive engine on small instances."""

import random

import pytest

from p3game import (CaterpillarSpec, Cotree, Player, Position, Variant,
                    Verdict, caterpillar_connected_winner, clique_free_winner,
                    cograph_free_winner, connected_cycle_arc_values,
                    connected_cycle_grundy, connected_path_f,
                    connected_path_grundy, cotree_grundy, cotree_move_values,
                    decide, free_cycle_winner, free_path_grundy,
                    free_path_grundy_table, grundy, hull,
                    ladder_connected_winner, make_caterpillar, make_cograph,
                    make_cycle, make_path, make_star, mex, random_cotree,
                    random_tree, star_free_winner, start_position,
                    tree_connected_grundy)
from p3game.graphs import JOIN, UNION, Graph, GraphFormatError
from p3game.solvers import (_caterpillar_first_move_values,
                            _caterpillar_tables, _par)

from reference import free_cycle_by_reduction


# =====================================================================
# connected paths
# =====================================================================

def test_connected_path_frozen_values():
    expected = {1: 1, 2: 0, 3: 1, 4: 1, 5: 2, 6: 1, 7: 1, 8: 2, 9: 1,
                10: 1, 11: 2, 12: 1}
    for n, g in expected.items():
        assert connected_path_grundy(n) == g


def test_connected_path_closed_forms_to_1000():
    for n in range(1, 1001):
        assert connected_path_f(n) == (n - 1) % 3
        if n != 2:
            assert connected_path_grundy(n) == (2 if n % 3 == 2 else 1)
    assert connected_path_grundy(2) == 0


def test_connected_path_rejects_empty():
    with pytest.raises(ValueError):
        connected_path_grundy(0)
    with pytest.raises(ValueError):
        connected_path_f(0)


# =====================================================================
# connected cycles
# =====================================================================

def test_connected_cycle_winner_pattern_to_1000():
    for n in range(3, 1001):
        g = connected_cycle_grundy(n)
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
        assert connected_cycle_grundy(n) == mex((f[1],))


def test_connected_cycle_rejects_small():
    with pytest.raises(ValueError):
        connected_cycle_grundy(2)
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
        assert free_path_grundy(n) == t[(n, False, False)]
    with pytest.raises(ValueError):
        free_path_grundy(0)


# =====================================================================
# free cycles
# =====================================================================

def test_free_cycle_even_and_triangle_are_second_player_wins():
    for n in list(range(4, 41, 2)) + [3]:
        assert free_cycle_winner(n) == Verdict(Player.SECOND, 0, None)


def test_free_cycle_strategy_route_equals_reduction_route():
    # the strategy shortcut (mirroring on even cycles, the clique rule
    # on the triangle) must agree with the uniform fenced-run reduction
    for n in range(3, 201):
        assert free_cycle_winner(n) == free_cycle_by_reduction(n)


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
            assert v.winner is Player.FIRST
            assert v.grundy is None and v.witness == 0
        else:
            assert v == Verdict(Player.SECOND, 0, None)
    with pytest.raises(ValueError):
        ladder_connected_winner(0)


# =====================================================================
# stars and cliques
# =====================================================================

def test_star_parity_rule():
    for t in range(0, 51):
        v = star_free_winner(t)
        if t % 2 == 0:
            assert v == Verdict(Player.FIRST, 1, 0)  # witness: the center
        else:
            assert v == Verdict(Player.SECOND, 0, None)
    with pytest.raises(ValueError):
        star_free_winner(-1)


def test_clique_rule():
    assert clique_free_winner(1) == Verdict(Player.FIRST, 1, 0)
    for n in range(2, 51):
        assert clique_free_winner(n) == Verdict(Player.SECOND, 0, None)
    with pytest.raises(ValueError):
        clique_free_winner(0)


# =====================================================================
# trees
# =====================================================================

def test_tree_solver_on_paths_matches_path_solver():
    for n in range(1, 31):
        assert tree_connected_grundy(make_path(n)) == connected_path_grundy(n)


def test_tree_solver_basics():
    assert tree_connected_grundy(Graph(1, [])) == 1
    with pytest.raises(ValueError, match="not a tree"):
        tree_connected_grundy(make_cycle(4))
    with pytest.raises(ValueError, match="not a tree"):
        tree_connected_grundy(Graph(2, []))
    with pytest.raises(ValueError, match="not a vertex"):
        tree_connected_grundy(make_path(3), first_move=7)


def test_tree_solver_first_move_decomposition():
    rng = random.Random(30)
    for _ in range(20):
        t = random_tree(rng.randint(1, 12), rng)
        per_move = [tree_connected_grundy(t, first_move=x) for x in range(t.n)]
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
# caterpillars
# =====================================================================

def test_caterpillar_of_a_path_matches_path_solver():
    for b in range(1, 21):
        v = caterpillar_connected_winner(CaterpillarSpec(b, (0,) * b))
        assert v.grundy == connected_path_grundy(b)


def test_caterpillar_star_example_matches_tree_solver():
    spec = CaterpillarSpec(3, (0, 1, 0))
    tree = make_caterpillar(spec)
    v = caterpillar_connected_winner(spec)
    assert v.grundy == tree_connected_grundy(tree)


def test_caterpillar_worked_example_against_engine():
    spec = CaterpillarSpec(4, (1, 0, 0, 1))
    assert caterpillar_connected_winner(spec) == \
        decide(make_caterpillar(spec), Variant.CONNECTED)


def test_caterpillar_two_value_routes_agree():
    # the value after a first move on backbone vertex i can be read two
    # ways: as the nim-sum of the left branch, right branch, and pendant
    # parity (sum of independent games), or as the mex over the reachable
    # two-move positions; they must match on every normalized profile
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 10)
        h = [rng.randint(0, 3) for _ in range(n)]
        if n >= 1:
            h[0] = 0
        if n >= 2:
            h[-1] = 0
        L, R = _caterpillar_tables(h)
        backbone_vals, _ = _caterpillar_first_move_values(h)
        for i in range(n):
            assert backbone_vals[i] == L[i] ^ R[i] ^ _par(h[i])


def test_caterpillar_witness_is_a_winning_move():
    rng = random.Random(32)
    from p3game.graphs import random_caterpillar_spec
    for _ in range(60):
        spec = random_caterpillar_spec(12, rng)
        v = caterpillar_connected_winner(spec)
        g = make_caterpillar(spec)
        if v.winner is Player.FIRST:
            pos = Position(g, hull(g, 1 << v.witness), Variant.CONNECTED)
            assert grundy(pos) == 0


# =====================================================================
# cographs
# =====================================================================

def test_cograph_clique_rule_agreement():
    for n in range(2, 11):
        v = cograph_free_winner(Cotree(JOIN, tuple(range(n))))
        assert v == Verdict(Player.SECOND, 0, None)
    assert cograph_free_winner(0) == Verdict(Player.FIRST, 1, 0)


def test_cograph_union_of_two_edges():
    t = Cotree(UNION, (Cotree(JOIN, (0, 1)), Cotree(JOIN, (2, 3))))
    assert cotree_grundy(t) == 0  # each edge is worth 0; nim-sum 0
    assert cograph_free_winner(t).winner is Player.SECOND


def test_cograph_universal_vertex_parity_example():
    # join of a single vertex with three disjoint edges: after taking
    # the universal vertex, each remaining edge is one forced move, so
    # the reply position is worth the parity of three, value 1
    edges = Cotree(UNION, tuple(Cotree(JOIN, (2 * i + 1, 2 * i + 2))
                                for i in range(3)))
    t = Cotree(JOIN, (0, edges))
    moves = cotree_move_values(t)
    assert moves[0] == 1
    assert all(moves[x] == 2 for x in range(1, 7))
    v = cograph_free_winner(t)
    assert v == Verdict(Player.SECOND, 0, None)
    assert v == decide(make_cograph(t), Variant.FREE)


def test_cograph_paw_regression():
    # paw: triangle with a pendant vertex attached through the join; a
    # one-vertex far side cannot relay the cascade back, so taking the
    # universal vertex leaves two forced moves, value 0, first win
    paw = Cotree(JOIN, (Cotree(UNION, (0, Cotree(JOIN, (1, 2)))), 3))
    moves = cotree_move_values(paw)
    assert moves[3] == 0
    assert cotree_grundy(paw) == 1
    assert cograph_free_winner(paw) == decide(make_cograph(paw), Variant.FREE)


def test_cograph_wide_union_under_a_universal_vertex_regression():
    # six pieces under the union, one of them an edge; playing the lone
    # join vertex leaves one forced move per far component rather than
    # absorbing them outright
    t = Cotree(JOIN, (Cotree(UNION, (Cotree(JOIN, (3, 5)), 6, 7, 4, 2, 0)),
                      1))
    assert cotree_move_values(t)[1] == 0
    v = cograph_free_winner(t)
    assert v == Verdict(Player.FIRST, 1, 1)
    assert v == decide(make_cograph(t), Variant.FREE)


def test_cograph_move_values_mex_to_grundy():
    rng = random.Random(33)
    for _ in range(50):
        t = random_cotree(9, rng)
        moves = cotree_move_values(t)
        assert cotree_grundy(t) == mex(list(moves.values()))


def test_cograph_union_value_is_nim_sum_of_children():
    rng = random.Random(34)
    seen_unions = 0
    while seen_unions < 20:
        t = random_cotree(10, rng)
        if not (isinstance(t, Cotree) and t.op == UNION):
            continue
        seen_unions += 1
        expect = 0
        for child in t.children:
            expect ^= cotree_grundy(child)
        assert cotree_grundy(t) == expect


def test_cograph_solver_matches_engine_on_random_cotrees():
    rng = random.Random(35)
    for _ in range(40):
        t = random_cotree(10, rng)
        assert cograph_free_winner(t) == decide(make_cograph(t), Variant.FREE)


def test_cograph_solver_rejects_malformed_cotree():
    with pytest.raises(GraphFormatError):
        cograph_free_winner(Cotree(JOIN, (0,)))
    with pytest.raises(GraphFormatError):
        cograph_free_winner(Cotree("meet", (0, 1)))


# =====================================================================
# oracle equivalence at small scale (the larger sweeps live in the
# acceptance tests and the verify module)
# =====================================================================

def test_path_solvers_match_engine_both_variants():
    for n in range(1, 13):
        g = make_path(n)
        assert connected_path_grundy(n) == \
            grundy(start_position(g, Variant.CONNECTED))
        assert free_path_grundy(n) == grundy(start_position(g, Variant.FREE))


def test_cycle_solvers_match_engine_both_variants():
    for n in range(3, 13):
        g = make_cycle(n)
        assert connected_cycle_grundy(n) == \
            grundy(start_position(g, Variant.CONNECTED))
        ov = decide(g, Variant.FREE)
        assert free_cycle_winner(n) == ov
