"""Exhaustive engine: mex/nim-sum arithmetic, known verdicts, memo table
discipline, budgets, determinism, witness correctness, agreement with the
plain whole-graph search, and the opening values of disjoint unions."""

import copy
import pickle
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from p3game import (DEFAULT_BUDGET, Graph, Player, Position,
                    ResourceLimitError, TranspositionTable, Variant, Verdict,
                    apply_move, best_move, bits, components, decide, grundy,
                    hull, legal_moves, make_clique, make_cycle, make_ladder,
                    make_path, make_star, mex, nim_sum, opening_values,
                    random_gnp, random_tree, start_position)
from p3game import engine
from p3game.closure import hull_and_boundary, legal_moves_raw

from helpers import (atlas_graphs, check_immutable_value,
                     connected_atlas_graphs, disjoint_union, union_openings)
from reference import (child_masks, is_p3_closed, reference_decide,
                       reference_grundy)


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
    # every check, in the order they run, with its message
    Verdict(Player.FIRST, 2, 0)
    Verdict(Player.SECOND, 0, None)
    grundy = "grundy value must be a nonnegative integer"
    disagree = "winner and grundy value disagree"
    witness = ("a witness move is present exactly when the first player "
               "wins")
    count = "witness must be a nonnegative integer"
    for args, message in [
            ((Player.FIRST, None, None), grundy),  # every verdict has a value
            ((Player.FIRST, None, 3), grundy),
            ((Player.FIRST, True, 0), grundy),
            ((Player.SECOND, -1, None), grundy),
            ((Player.FIRST, 1.0, "x"), grundy),  # before the witness
            ((Player.FIRST, 0, None), disagree),
            ((Player.SECOND, 1, None), disagree),
            ((Player.SECOND, 1, "x"), disagree),  # before the witness
            ((Player.SECOND, 0, 2), witness),
            # a first-player win names its winning opening, a vertex id
            ((Player.FIRST, 1, None), witness),
            ((Player.FIRST, 1, -1), count),
            ((Player.FIRST, 1, "x"), count),
            ((Player.FIRST, 1, 1.0), count),
            ((Player.FIRST, 1, True), count)]:
        with pytest.raises(ValueError) as err:
            Verdict(*args)
        assert str(err.value) == message, args
    assert Verdict(Player.FIRST, 1, 0).to_json_dict() == {
        "winner": "first", "grundy": 1, "witness": 0}


def test_verdict_is_an_immutable_value():
    v = Verdict(Player.FIRST, 2, 0)
    check_immutable_value(
        v, Verdict(winner=Player.FIRST, grundy=2, witness=0),
        [Verdict(Player.FIRST, 2, 1), Verdict(Player.FIRST, 1, 0),
         Verdict(Player.SECOND, 0, None)],
        ("winner", "grundy", "witness"))
    assert repr(v) == \
        "Verdict(winner=<Player.FIRST: 'first'>, grundy=2, witness=0)"
    assert repr(Verdict(Player.SECOND, 0, None)) == \
        "Verdict(winner=<Player.SECOND: 'second'>, grundy=0, witness=None)"
    assert len({v, Verdict(Player.FIRST, 2, 0),
                Verdict(Player.SECOND, 0, None)}) == 2


def test_verdict_copies_are_built_through_the_checks(monkeypatch):
    built = []
    init = Verdict.__init__
    monkeypatch.setattr(Verdict, "__init__",
                        lambda self, *args: built.append(args) or
                        init(self, *args))
    v = Verdict(Player.FIRST, 2, 0)
    pickle.loads(pickle.dumps(v))
    copy.deepcopy(v)
    assert built == [(Player.FIRST, 2, 0)] * 3


def test_verdict_from_openings():
    # the mex of the values after each opening, with the lowest opening
    # worth 0 as the witness
    with pytest.raises(ValueError, match="empty graph"):
        Verdict.from_openings([])
    assert Verdict.from_openings([1, 1]) == Verdict(Player.SECOND, 0, None)
    assert Verdict.from_openings([2, 0, 1, 0]) == Verdict(Player.FIRST, 3, 1)
    assert Verdict.from_openings([0]) == Verdict(Player.FIRST, 1, 0)


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
        decide(position.graph, Variant.FREE,
               TranspositionTable(position.graph, budget))
    with pytest.raises(ValueError, match="budget must be positive"):
        grundy(position, TranspositionTable(position.graph, budget))


def test_budget_exhaustion_raises():
    g = make_path(12)
    with pytest.raises(ResourceLimitError):
        decide(g, Variant.FREE, TranspositionTable(g, 5))
    with pytest.raises(ResourceLimitError):
        opening_values(g, Variant.FREE, TranspositionTable(g, 5))
    # the same instance fits comfortably in the default budget
    assert decide(g, Variant.FREE, TranspositionTable(g, DEFAULT_BUDGET))


def test_grundy_rejects_foreign_table():
    t = TranspositionTable(make_path(4))
    with pytest.raises(ValueError, match="different graph"):
        grundy(start_position(make_path(5), Variant.FREE), t)


@pytest.mark.parametrize("search", [opening_values, decide])
def test_start_searches_take_only_their_graphs_table(search):
    t = TranspositionTable(make_path(4))
    with pytest.raises(ValueError, match="different graph"):
        search(make_path(5), Variant.FREE, t)
    assert len(t) == 0
    # an equal graph built separately shares the table
    g = make_path(4)
    assert g == t.graph and g is not t.graph
    assert search(g, Variant.FREE, t) == search(g, Variant.FREE)
    assert len(t) > 0


@pytest.mark.parametrize("variant", list(Variant))
def test_decide_then_opening_values_share_one_table(variant):
    g = make_ladder(4)
    t = TranspositionTable(g)
    verdict = decide(g, variant, t)
    size = len(t)
    values = opening_values(g, variant, t)
    assert Verdict.from_openings(values) == verdict
    assert values == opening_values(g, variant)  # a fresh table agrees
    assert len(t) == size  # every entry was already there


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


def test_each_child_is_seeded_from_its_hull_boundary():
    # the expansion splits a child from the seeds ones & rest & ~edge,
    # where ones is what its hull hands back and edge is C's boundary,
    # and each part d of the child inherits ones & d as its own
    # boundary; on every stored component of small graphs, in both
    # variants and for every legal move, the seeds are exactly the
    # vertices of the rest next to the hull's part in C, they meet
    # every part of the rest, and ones & d is N(G - d) & d
    rng = random.Random(22)
    graphs = list(atlas_graphs(6))
    graphs += [random_gnp(rng.randint(8, 12), 0.25, rng) for _ in range(10)]
    for g in graphs:
        for variant in Variant:
            table = TranspositionTable(g)
            grundy(start_position(g, variant), table)
            for c in table.entries[variant]:
                outside = g.full_mask & ~c
                edge = g.neighborhood_of_set(outside) & c
                for x in bits(legal_moves_raw(g, outside, variant, edge)):
                    h, ones = hull_and_boundary(g, outside | 1 << x,
                                                outside, edge)
                    rest = c & ~h
                    seeds = ones & rest & ~edge
                    assert seeds == g.neighborhood_of_set(c & ~rest) & rest
                    for d in components(g, rest):
                        assert d & seeds
                        assert ones & d == (g.neighborhood_of_set(
                            g.full_mask & ~d) & d)


def test_a_boundary_move_hull_is_every_hull_next_to_its_run():
    # the expansion skips each legal x in h ∩ N[E], where h is the hull
    # of a boundary move y and E, y's run, is y's component of
    # G[h ∩ edge]: labeling x absorbs its neighbour in E, which has a
    # labeled neighbour outside C, and the absorption spreads along E
    # to y.  On every stored component of small graphs, in both
    # variants, each such x has y's hull and y's final ones
    rng = random.Random(24)
    graphs = list(atlas_graphs(6))
    graphs += [random_gnp(rng.randint(8, 12), 0.25, rng) for _ in range(10)]
    for g in graphs:
        for variant in Variant:
            table = TranspositionTable(g)
            grundy(start_position(g, variant), table)
            for c in table.entries[variant]:
                outside = g.full_mask & ~c
                edge = g.neighborhood_of_set(outside) & c
                legal = legal_moves_raw(g, outside, variant, edge)
                for y in bits(legal & edge):
                    found = hull_and_boundary(g, outside | 1 << y,
                                              outside, edge)
                    run = next(e for e in components(g, found[0] & edge)
                               if e >> y & 1)
                    near = run | g.neighborhood_of_set(run)
                    for x in bits(legal & found[0] & near):
                        assert hull_and_boundary(g, outside | 1 << x,
                                                 outside, edge) == found


def test_the_search_stores_the_same_components(monkeypatch):
    # pins which positions the search visits, how many hulls it takes
    # and how many splits it floods, not only its answers: an
    # optimisation that expands a different set of components, takes
    # more hulls per expansion or floods a rest it has split before
    # fails here.  Each expansion asks once for its legal moves, and a
    # search from these starts asks nowhere else, so one such call per
    # stored entry means no component is expanded twice
    calls, expansions, splits = [], [], []
    take_hull, take_moves = engine.hull_and_boundary, engine.legal_moves_raw
    take_split = engine.components

    def counted(*args):
        calls.append(None)
        return take_hull(*args)

    def counted_moves(*args):
        expansions.append(None)
        return take_moves(*args)

    def counted_split(*args):
        splits.append(None)
        return take_split(*args)

    monkeypatch.setattr(engine, "hull_and_boundary", counted)
    monkeypatch.setattr(engine, "legal_moves_raw", counted_moves)
    monkeypatch.setattr(engine, "components", counted_split)
    cases = [(make_path(18), Variant.FREE, 154, 1091, 682),
             (random_tree(17, random.Random(0)), Variant.FREE, 642, 5966,
              3612),
             (random_gnp(20, 0.15, random.Random(5)), Variant.FREE, 2292,
              21970, 8855),
             (make_ladder(24), Variant.CONNECTED, 646, 3954, 888),
             (make_cycle(30), Variant.CONNECTED, 840, 3240, 926),
             (make_ladder(30), Variant.CONNECTED, 988, 6204, 1377),
             (make_path(600), Variant.CONNECTED, 1198, 2394, 1202),
             (make_clique(150), Variant.FREE, 150, 150, 300)]
    for g, variant, stored, hulls, floods in cases:
        calls.clear()
        expansions.clear()
        splits.clear()
        table = TranspositionTable(g)
        grundy(start_position(g, variant), table)
        assert len(table) == len(table.entries[variant]) == stored
        assert len(expansions) == stored
        assert len(calls) == hulls
        assert len(splits) == floods


def test_an_aborted_search_stores_only_final_values():
    # a budget abort may leave entries behind in the table, and each
    # must be the value the complete search stores; one entry more
    # than any abort allowed lets the search finish.  The connected
    # search also keeps the parts of each rest that splits, after an
    # abort as after the complete search: two or more parts each, and
    # exactly the components a plain flood of the rest finds
    cases = [(make_path(14), Variant.FREE, 92),
             (make_ladder(8), Variant.CONNECTED, 86),
             (random_gnp(14, 0.2, random.Random(3)), Variant.FREE, 241),
             (make_cycle(16), Variant.CONNECTED, 224)]
    kept = 0
    for g, variant, count in cases:
        start = start_position(g, variant)
        complete = TranspositionTable(g)
        value = grundy(start, complete)
        assert len(complete) == count
        final = complete.entries[variant]
        tables = [complete]
        for budget in range(1, count):
            table = TranspositionTable(g, budget)
            with pytest.raises(ResourceLimitError):
                grundy(start, table)
            held = table.entries[variant]
            assert len(held) == budget
            assert all(final[c] == v for c, v in held.items())
            tables.append(table)
        assert grundy(start, TranspositionTable(g, count)) == value
        if variant is Variant.CONNECTED:
            for table in tables:
                for rest, parts in table.splits.items():
                    assert len(parts) >= 2
                    assert set(parts) == set(components(g, rest))
                kept += len(table.splits)
    assert kept  # the ladder's rests split; a cycle's arcs never do


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
    # winner, value and witness, and grundy at the start
    for g in atlas_graphs(7):
        for variant in Variant:
            verdict = reference_decide(g, variant)
            assert decide(g, variant) == verdict, (g.n, g.edges(), variant)
            assert grundy(start_position(g, variant)) == verdict.grundy, \
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


def test_decide_witness_is_the_best_move_on_the_atlas():
    # decide reads its witness off the values after each opening, and
    # best_move scans the legal moves for a child worth 0; both must
    # name the lowest winning opening
    for g in atlas_graphs(7):
        for variant in Variant:
            v = decide(g, variant)
            if v.winner is Player.FIRST:
                assert v.witness == best_move(start_position(g, variant)), \
                    (g.n, g.edges(), variant)


def test_decide_matches_the_whole_graph_search_on_random_graphs():
    rng = random.Random(23)
    for _ in range(300):
        g = random_gnp(rng.randint(1, 11), rng.random(), rng)
        for variant in Variant:
            assert decide(g, variant) == reference_decide(g, variant), \
                (g.n, g.edges(), variant)


# =====================================================================
# disjoint unions: the product theorem and the opening lists
# =====================================================================

def test_free_game_value_of_union_is_nim_sum():
    rng = random.Random(22)
    menu = [make_path(k) for k in range(1, 6)] + \
           [make_cycle(k) for k in range(3, 7)] + \
           [random_tree(k, random.Random(k)) for k in range(1, 7)]
    for _ in range(25):
        parts = [rng.choice(menu)]
        while sum(p.n for p in parts) < 10 and rng.random() < 0.7:
            parts.append(rng.choice(menu))
        union = disjoint_union(parts)
        whole = grundy(start_position(union, Variant.FREE))
        split = nim_sum(grundy(start_position(p, Variant.FREE))
                        for p in parts)
        assert whole == split
        # opening by opening, in both games: the connected opening picks
        # the part that play stays in, and in the free game the other
        # parts add their values by nim-sum
        for variant in Variant:
            assert opening_values(union, variant) == union_openings(
                [opening_values(p, variant) for p in parts], variant)


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
