"""Exhaustive engine: mex/nim-sum arithmetic, known verdicts, memo table
discipline, budgets, determinism, witness correctness, agreement with the
plain whole-graph search, and the product theorem on disjoint unions."""

import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from p3game import (DEFAULT_BUDGET, Graph, Player, Position,
                    ResourceLimitError, TranspositionTable, Variant, Verdict,
                    apply_move, best_move, bits, components, decide, grundy,
                    hull, is_p3_closed, legal_moves, make_clique, make_cycle,
                    make_ladder, make_path, make_star, mex, nim_sum,
                    random_gnp, random_tree, start_position)

from helpers import atlas_graphs, connected_atlas_graphs
from reference import child_masks, reference_decide, reference_grundy


# =====================================================================
# impartial-game arithmetic
# =====================================================================

def test_mex_cases():
    assert mex([]) == 0
    assert mex([0]) == 1
    assert mex([1]) == 0
    assert mex([0, 1, 2]) == 3
    assert mex([0, 1, 3]) == 2
    assert mex({5, 0, 2, 1}) == 3
    assert mex(iter([2, 0, 0, 1])) == 3


def test_nim_sum_cases():
    assert nim_sum([]) == 0
    assert nim_sum([7]) == 7
    assert nim_sum([3, 6]) == 5  # binary addition without carry
    assert nim_sum([5, 5]) == 0
    rng = random.Random(20)
    for _ in range(100):
        vals = [rng.randrange(64) for _ in range(rng.randint(0, 6))]
        expect = 0
        for v in vals:
            expect ^= v
        assert nim_sum(vals) == expect


# =====================================================================
# verdict type discipline
# =====================================================================

def test_verdict_consistency_enforced():
    Verdict(Player.FIRST, 2, 0)
    Verdict(Player.SECOND, 0, None)
    with pytest.raises(ValueError):
        Verdict(Player.FIRST, None, None)  # every verdict carries a value
    with pytest.raises(ValueError):
        Verdict(Player.FIRST, None, 3)
    with pytest.raises(ValueError):
        Verdict(Player.FIRST, 0, None)
    with pytest.raises(ValueError):
        Verdict(Player.SECOND, 1, None)
    with pytest.raises(ValueError):
        Verdict(Player.SECOND, 0, 2)
    assert Verdict(Player.FIRST, 1, 0).to_json_dict() == {
        "winner": "first", "grundy": 1, "witness": 0}


# =====================================================================
# known small verdicts
# =====================================================================

def test_single_vertex_is_one_winning_move():
    g = Graph(1, [])
    for variant in Variant:
        assert decide(g, variant) == Verdict(Player.FIRST, 1, 0)


def test_path_two_free_is_a_second_player_win():
    assert decide(make_path(2), Variant.FREE) == Verdict(Player.SECOND, 0, None)


def test_connected_cycles_five_and_six():
    assert decide(make_cycle(5), Variant.CONNECTED).grundy == 1
    assert decide(make_cycle(6), Variant.CONNECTED).grundy == 0


def test_star_verdicts():
    v = decide(make_star(4), Variant.FREE)
    assert v == Verdict(Player.FIRST, 1, 0)  # take the center
    v = decide(make_star(3), Variant.FREE)
    assert v == Verdict(Player.SECOND, 0, None)


def test_clique_verdicts():
    assert decide(make_clique(1), Variant.FREE) == Verdict(Player.FIRST, 1, 0)
    for n in range(2, 7):
        assert decide(make_clique(n), Variant.FREE).winner is Player.SECOND


def test_two_isolated_vertices_connected_variant():
    # the connected game does not decompose into component games: after
    # the first move the other component is unreachable, so exactly one
    # move is ever made and the first player wins
    g = Graph(2, [])
    assert decide(g, Variant.CONNECTED) == Verdict(Player.FIRST, 1, 0)
    # the free game on the same graph has two moves and the second
    # player wins; a nim-sum over components gets the connected one wrong
    assert decide(g, Variant.FREE) == Verdict(Player.SECOND, 0, None)


# =====================================================================
# witness and winner consistency (exhaustive on small graphs)
# =====================================================================

def test_decide_consistency_on_all_small_graphs():
    for g in connected_atlas_graphs(6):
        for variant in Variant:
            v = decide(g, variant)
            assert (v.winner is Player.FIRST) == (v.grundy != 0)
            table = TranspositionTable(g)
            if v.winner is Player.FIRST:
                for x in bits(g.full_mask):
                    child = Position(g, _one_move_hull(g, x), variant)
                    child_value = grundy(child, table)
                    if x == v.witness:
                        assert child_value == 0
                        break
                    assert child_value != 0, "witness must be the lowest"
            else:
                assert v.witness is None


def _one_move_hull(g, x):
    return hull(g, 1 << x)


# =====================================================================
# transposition table discipline
# =====================================================================

def test_table_rejects_conflicting_write():
    g = make_path(3)
    t = TranspositionTable(g)
    t.store(0, Variant.FREE, 1)
    t.store(0, Variant.FREE, 1)  # idempotent
    assert len(t) == 1
    with pytest.raises(AssertionError, match="corruption"):
        t.store(0, Variant.FREE, 2)


def test_table_budget_validation():
    g = make_path(3)
    with pytest.raises(ValueError):
        TranspositionTable(g, budget=0)


@pytest.mark.parametrize("budget", [0, -5])
def test_nonpositive_budget_is_rejected_not_defaulted(budget):
    position = start_position(make_path(3), Variant.FREE)
    with pytest.raises(ValueError, match="budget must be positive"):
        decide(make_path(3), Variant.FREE, budget=budget)
    with pytest.raises(ValueError, match="budget must be positive"):
        grundy(position, budget=budget)


def test_budget_exhaustion_raises():
    with pytest.raises(ResourceLimitError):
        decide(make_path(12), Variant.FREE, budget=5)
    # the same instance fits comfortably in the default budget
    assert decide(make_path(12), Variant.FREE, budget=DEFAULT_BUDGET)


def test_grundy_rejects_foreign_table():
    t = TranspositionTable(make_path(4))
    with pytest.raises(ValueError, match="different graph"):
        grundy(start_position(make_path(5), Variant.FREE), t)


def test_determinism_and_table_reuse():
    g = make_cycle(9)
    assert decide(g, Variant.CONNECTED) == decide(g, Variant.CONNECTED)
    table = TranspositionTable(g)
    a = grundy(start_position(g, Variant.CONNECTED), table)
    b = grundy(start_position(g, Variant.CONNECTED), table)  # pure lookup
    assert a == b


def test_shared_table_across_threads():
    g = make_ladder(5)
    table = TranspositionTable(g)
    starts = [Position(g, _one_move_hull(g, x), Variant.CONNECTED)
              for x in range(g.n)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        shared = list(pool.map(lambda p: grundy(p, table), starts))
    serial = [grundy(p) for p in starts]
    assert shared == serial


# =====================================================================
# internal consistency of the memo
# =====================================================================

def test_stored_values_reexpand_to_their_mex():
    # every stored component C is connected with G - C closed, its value
    # is the mex over its children of the nim-sum of their stored parts,
    # and the whole-graph search agrees on the position G - C
    rng = random.Random(21)
    cases = [(make_cycle(8), Variant.CONNECTED),
             (make_path(9), Variant.FREE),
             (make_ladder(4), Variant.CONNECTED),
             (random_gnp(10, 0.3, random.Random(3)), Variant.FREE),
             (random_gnp(10, 0.3, random.Random(4)), Variant.CONNECTED)]
    for g, variant in cases:
        table = TranspositionTable(g)
        grundy(start_position(g, variant), table)
        stored = table.entries[variant]
        for comp in rng.sample(sorted(stored), min(60, len(stored))):
            outside = g.full_mask & ~comp
            assert components(g, comp) == [comp]
            assert is_p3_closed(g, outside)
            expect = mex(nim_sum(stored[part]
                                 for part in components(g, comp & ~child))
                         for child in child_masks(g, outside, variant))
            assert stored[comp] == expect
            assert stored[comp] == reference_grundy(g, outside, variant)


def test_the_search_stores_the_same_components():
    # pins which positions the search visits, not only its answers: an
    # optimisation that expands a different set of components fails here
    cases = [(make_path(18), Variant.FREE, 155),
             (random_tree(17, random.Random(0)), Variant.FREE, 643),
             (random_gnp(20, 0.15, random.Random(5)), Variant.FREE, 2293),
             (make_ladder(24), Variant.CONNECTED, 647),
             (make_cycle(30), Variant.CONNECTED, 841)]
    for g, variant, stored in cases:
        table = TranspositionTable(g)
        grundy(start_position(g, variant), table)
        assert len(table) == len(table.entries[variant]) == stored


def test_cycle_search_never_builds_an_arc_missing_one_vertex():
    # on a cycle, labeling all but one vertex is impossible: the last
    # gap closes as soon as it narrows to a single vertex, so no stored
    # component is a lone vertex
    for n in range(4, 10):
        g = make_cycle(n)
        for variant in Variant:
            table = TranspositionTable(g)
            grundy(start_position(g, variant), table)
            stored = table.entries[variant]
            assert stored
            assert all(comp.bit_count() != 1 for comp in stored)


# =====================================================================
# agreement with the plain whole-graph search (tests/reference.py)
# =====================================================================

def test_decide_matches_the_whole_graph_search_on_the_atlas():
    # every graph of up to seven vertices, disconnected ones included:
    # winner, value and witness
    for g in atlas_graphs(7):
        for variant in Variant:
            assert decide(g, variant) == reference_decide(g, variant), \
                (g.n, g.edges(), variant)


def test_every_opening_matches_the_whole_graph_search_on_the_atlas():
    for g in atlas_graphs(7):
        for variant in Variant:
            start = start_position(g, variant)
            table, memo = TranspositionTable(g), {}
            for x in bits(legal_moves(start)):
                child = apply_move(start, x)
                assert grundy(child, table) == \
                    reference_grundy(g, child.labeled, variant, memo), \
                    (g.n, g.edges(), variant, x)


def test_decide_matches_the_whole_graph_search_on_random_graphs():
    rng = random.Random(23)
    for _ in range(300):
        g = random_gnp(rng.randint(1, 11), rng.random(), rng)
        for variant in Variant:
            assert decide(g, variant) == reference_decide(g, variant), \
                (g.n, g.edges(), variant)


# =====================================================================
# product theorem on disjoint unions (free variant)
# =====================================================================

def _disjoint_union(parts):
    n = sum(p.n for p in parts)
    edges, base = [], 0
    for p in parts:
        edges += [(u + base, v + base) for u, v in p.edges()]
        base += p.n
    return Graph(n, edges)


def test_free_game_value_of_union_is_nim_sum():
    rng = random.Random(22)
    menu = [make_path(k) for k in range(1, 6)] + \
           [make_cycle(k) for k in range(3, 7)]
    for _ in range(25):
        parts = [rng.choice(menu)]
        while sum(p.n for p in parts) < 10 and rng.random() < 0.7:
            parts.append(rng.choice(menu))
        union = _disjoint_union(parts)
        whole = grundy(start_position(union, Variant.FREE))
        split = nim_sum(grundy(start_position(p, Variant.FREE))
                        for p in parts)
        assert whole == split


# =====================================================================
# best_move
# =====================================================================

def test_best_move_spot_checks():
    g = make_star(4)
    p = start_position(g, Variant.FREE)
    assert best_move(p) == 0  # the center wins
    finished = Position(g, g.full_mask, Variant.FREE)
    assert best_move(finished) is None
    # from a lost position, falls back to the lowest legal move
    lost = start_position(make_path(2), Variant.FREE)
    assert best_move(lost) == 0


def test_best_move_rejects_foreign_table():
    # values memoized for P4 would steer the move on the 3-leaf star,
    # whose masks name other vertex sets
    t = TranspositionTable(make_path(4))
    grundy(start_position(make_path(4), Variant.FREE), t)
    with pytest.raises(ValueError, match="different graph"):
        best_move(start_position(make_star(3), Variant.FREE), t)
    # an equal graph built separately shares the table
    assert best_move(start_position(make_path(4), Variant.FREE), t) == \
        best_move(start_position(make_path(4), Variant.FREE))
