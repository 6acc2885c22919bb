"""Hull operator and move legality: worked examples, the closure axioms
as properties over random graphs, and the equivalence of the two
characterizations of connected-variant legality."""

import random

import pytest

from p3game import (IllegalMoveError, Position, Variant, apply_move, bits,
                    hull, legal_moves, make_clique, make_cycle, make_ladder,
                    make_path, make_star, mask_of, random_gnp, start_position)
from p3game.closure import hull_and_boundary, legal_moves_raw

from helpers import atlas_graphs, check_immutable_value, connected_atlas_graphs
from reference import hull_by_rescan, is_p3_closed


# =====================================================================
# worked hull examples
# =====================================================================

def test_hull_examples():
    p4 = make_path(4)
    assert hull(p4, mask_of([0, 2])) == mask_of([0, 1, 2])
    assert hull(p4, mask_of([0, 3])) == mask_of([0, 3])
    c4 = make_cycle(4)
    assert hull(c4, mask_of([0, 2])) == c4.full_mask  # both midpoints absorb
    c5 = make_cycle(5)
    assert hull(c5, mask_of([0, 2])) == mask_of([0, 1, 2])
    star = make_star(4)
    assert hull(star, mask_of([0, 1])) == mask_of([0, 1])
    assert hull(star, mask_of([1, 2])) == mask_of([0, 1, 2])  # center absorbs
    k4 = make_clique(4)
    assert hull(k4, mask_of([1, 3])) == k4.full_mask
    assert hull(p4, 0) == 0
    assert hull(p4, mask_of([1])) == mask_of([1])


def test_is_p3_closed_examples():
    p4 = make_path(4)
    assert is_p3_closed(p4, 0)
    assert is_p3_closed(p4, mask_of([0]))
    assert is_p3_closed(p4, mask_of([0, 3]))
    assert not is_p3_closed(p4, mask_of([0, 2]))
    assert is_p3_closed(p4, p4.full_mask)


# =====================================================================
# closure axioms over random inputs
# =====================================================================

def _random_pairs(count, max_n, seed, min_n=1):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(min_n, max_n)
        g = random_gnp(n, rng.uniform(0.05, 0.95), rng)
        yield g, rng.getrandbits(n), rng


def _sparse_set(n, rng):
    """A labeled set of 1 to 8 vertices: on a long path, cycle or ladder a
    dense random set would close to nearly everything."""
    return mask_of(rng.sample(range(n), rng.randint(1, 8)))


def _check_closure_axioms(g, a, b):
    """hull is extensive, idempotent, lands on a closed set, and is
    monotone from a to its superset b."""
    h = hull(g, a)
    assert a & ~h == 0, "extensive: a is inside hull(a)"
    assert hull(g, h) == h, "idempotent"
    assert is_p3_closed(g, h)
    assert h & ~hull(g, b) == 0, "monotone: hull(a) inside hull(b)"


def test_hull_is_a_closure_operator():
    for g, a, rng in _random_pairs(400, 12, 10):
        _check_closure_axioms(g, a, a | rng.getrandbits(g.n))
    assert hull(make_path(5), 0) == 0


def test_hull_is_a_closure_operator_up_to_100_vertices():
    for g, a, rng in _random_pairs(60, 100, 15, min_n=13):
        _check_closure_axioms(g, a, a | rng.getrandbits(g.n))
        # a dense random set mostly closes to everything; a sparse one
        # leaves room for the hull to stop short
        a = _sparse_set(g.n, rng)
        _check_closure_axioms(g, a, a | _sparse_set(g.n, rng))
    assert hull(make_path(100), 0) == 0


def test_closed_sets_are_exactly_hull_fixpoints():
    for g, a, _ in _random_pairs(300, 12, 11):
        assert is_p3_closed(g, a) == (hull(g, a) == a)


def test_closed_sets_intersect_to_closed_sets():
    for g, a, rng in _random_pairs(300, 12, 12):
        c1 = hull(g, a)
        c2 = hull(g, rng.getrandbits(g.n))
        assert is_p3_closed(g, c1 & c2)


def test_hull_matches_rescan_in_any_order():
    for g, a, rng in _random_pairs(200, 12, 13):
        expect = hull(g, a)
        assert hull_by_rescan(g, a) == expect
        order = list(range(g.n))
        for _ in range(4):
            rng.shuffle(order)
            assert hull_by_rescan(g, a, order) == expect


def test_hull_matches_rescan_beyond_one_machine_word():
    rng = random.Random(14)
    for _ in range(40):
        n = rng.randint(65, 200)
        g = random_gnp(n, rng.uniform(0.005, 0.05), rng)
        for a in (_sparse_set(n, rng), rng.getrandbits(n) & rng.getrandbits(n)
                  & rng.getrandbits(n)):
            assert hull(g, a) == hull_by_rescan(g, a)
    for g in (make_path(600), make_cycle(600), make_ladder(300)):
        for _ in range(20):
            for a in (_sparse_set(g.n, rng), rng.getrandbits(g.n)):
                assert hull(g, a) == hull_by_rescan(g, a)
        assert hull(g, 0) == 0
    p601 = make_path(601)
    assert hull(p601, mask_of(range(0, 601, 2))) == p601.full_mask


def _closed_sets(g):
    """Every P3-closed vertex set of g, by the definition."""
    return [s for s in range(1 << g.n) if is_p3_closed(g, s)]


def test_seeded_hull_is_the_hull_on_the_atlas():
    # the engine seeds each child's hull with the closed set it extends
    # and that set's boundary; on every graph of up to six vertices, for
    # every closed set and every vertex outside it, the seeded hull, the
    # plain hull and the rescan hull agree, and the final ones handed
    # back is that boundary together with the neighbors of what the
    # hull added to the closed set
    for g in atlas_graphs(6):
        for closed in _closed_sets(g):
            edge = g.neighborhood_of_set(closed) & ~closed
            for x in bits(g.full_mask & ~closed):
                a = closed | 1 << x
                expect = hull_by_rescan(g, a)
                assert hull(g, a) == expect, (g.edges(), a)
                h, ones = hull_and_boundary(g, a, closed, edge)
                assert h == expect, (g.edges(), a)
                assert ones == edge | g.neighborhood_of_set(h & ~closed)


def test_hull_hands_back_its_final_ones():
    # unseeded, the second item of hull_and_boundary is N(hull) and the
    # first is the hull (seeded: test_seeded_hull_is_the_hull_on_the_atlas)
    rng = random.Random(17)
    for _ in range(200):
        g = random_gnp(rng.randint(1, 80), rng.choice((0.03, 0.1, 0.3)), rng)
        a = rng.getrandbits(g.n) & rng.getrandbits(g.n)
        h, ones = hull_and_boundary(g, a)
        assert h == hull(g, a) == hull_by_rescan(g, a)
        assert ones == g.neighborhood_of_set(h)


# =====================================================================
# positions
# =====================================================================

def test_position_validates_closedness():
    p4 = make_path(4)
    with pytest.raises(ValueError, match="closed"):
        Position(p4, mask_of([0, 2]), Variant.FREE)
    with pytest.raises(ValueError, match="outside"):
        Position(p4, 1 << 7, Variant.FREE)


def test_position_rejects_exactly_the_sets_that_are_not_closed():
    # Position checks closedness as hull(g, S) == S; on every graph of
    # up to six vertices it must refuse exactly the sets the definition
    # calls not closed
    for g in atlas_graphs(6):
        for s in range(1 << g.n):
            if is_p3_closed(g, s):
                assert Position(g, s, Variant.FREE).labeled == s
            else:
                with pytest.raises(ValueError, match="not P3-closed"):
                    Position(g, s, Variant.FREE)


def test_position_validates_connectivity_for_connected_variant():
    p4 = make_path(4)
    Position(p4, mask_of([0, 3]), Variant.FREE)  # fine in the free game
    with pytest.raises(ValueError, match="connected"):
        Position(p4, mask_of([0, 3]), Variant.CONNECTED)
    Position(p4, mask_of([0, 1]), Variant.CONNECTED)
    Position(p4, 0, Variant.CONNECTED)  # empty set is vacuously fine


def test_position_checks_in_order_with_these_messages():
    p4 = make_path(4)
    for labeled, variant, message in [
            (1 << 7 | mask_of([0, 2]), Variant.CONNECTED,
             "labeled set contains ids outside the graph"),
            (-1, Variant.FREE, "labeled set contains ids outside the graph"),
            (mask_of([0, 2]), Variant.CONNECTED,
             "labeled set is not P3-closed"),  # before connectivity
            (mask_of([0, 3]), Variant.CONNECTED,
             "labeled set must induce a connected subgraph")]:
        with pytest.raises(ValueError) as err:
            Position(p4, labeled, variant)
        assert str(err.value) == message, (labeled, variant)


def test_position_is_an_immutable_value():
    p = Position(make_path(3), 0b111, Variant.CONNECTED)
    check_immutable_value(
        p, Position(graph=make_path(3), labeled=0b111,
                    variant=Variant.CONNECTED),
        [Position(make_path(3), 0b111, Variant.FREE),
         Position(make_path(3), 0b001, Variant.CONNECTED),
         Position(make_clique(3), 0b111, Variant.CONNECTED)],
        ("graph", "labeled", "variant"))
    assert repr(p) == ("Position(graph=Graph(n=3, m=2), labeled=7, "
                       "variant=<Variant.CONNECTED: 'connected'>)")
    assert len({p, Position(make_path(3), 0b111, Variant.CONNECTED),
                start_position(make_path(3), Variant.CONNECTED)}) == 2


def test_start_position_and_game_over():
    g = make_path(3)
    p = start_position(g, Variant.FREE)
    assert p.labeled == 0 and legal_moves(p)
    assert legal_moves(Position(g, g.full_mask, Variant.FREE)) == 0


# =====================================================================
# legal moves
# =====================================================================

def test_free_moves_are_all_unlabeled():
    g = make_cycle(6)
    p = start_position(g, Variant.FREE)
    assert legal_moves(p) == g.full_mask
    p = Position(g, mask_of([0]), Variant.FREE)
    assert legal_moves(p) == g.full_mask & ~mask_of([0])


def test_first_connected_move_is_unrestricted():
    g = make_path(9)
    assert legal_moves(start_position(g, Variant.CONNECTED)) == g.full_mask


def test_connected_moves_worked_example():
    g = make_path(7)  # 0-1-2-3-4-5-6
    p = Position(g, mask_of([3]), Variant.CONNECTED)
    assert legal_moves(p) == mask_of([1, 2, 4, 5])  # distance <= 2 from 3


def _brute_connected_moves(g, labeled):
    """Definitional legality: x is playable iff the new hull induces a
    connected subgraph."""
    out = 0
    unlabeled = g.full_mask & ~labeled
    for x in bits(unlabeled):
        new = hull(g, labeled | (1 << x))
        sub_nodes = list(bits(new))
        seen = {sub_nodes[0]}
        frontier = [sub_nodes[0]]
        while frontier:
            v = frontier.pop()
            for w in bits(g.adj[v] & new):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if len(seen) == len(sub_nodes):
            out |= 1 << x
    return out


def _distance_two_moves(g, labeled):
    """Prose legality: within distance two of the labeled set."""
    reach = labeled | g.neighborhood_of_set(labeled)
    reach |= g.neighborhood_of_set(reach)
    return reach & ~labeled


def test_connected_legality_equals_both_characterizations():
    # exhaustively over every closed connected labeled set of every
    # connected graph with <= 5 vertices
    for g in connected_atlas_graphs(5):
        for labeled in range(1, 1 << g.n):
            if hull(g, labeled) != labeled:
                continue
            try:
                Position(g, labeled, Variant.CONNECTED)
            except ValueError:
                continue
            got = legal_moves_raw(g, labeled, Variant.CONNECTED)
            assert got == _brute_connected_moves(g, labeled)
            assert got == _distance_two_moves(g, labeled)


def test_legality_is_the_same_with_the_boundary_passed_or_computed():
    # every closed labeled set of every graph of up to six vertices,
    # connected or not, in both variants
    for g in atlas_graphs(6):
        for labeled in _closed_sets(g):
            edge = g.neighborhood_of_set(labeled) & ~labeled
            for variant in Variant:
                assert legal_moves_raw(g, labeled, variant, edge) == \
                    legal_moves_raw(g, labeled, variant)
            if labeled:
                assert legal_moves_raw(g, labeled, Variant.CONNECTED, edge) \
                    == _distance_two_moves(g, labeled)


def test_connected_legality_on_reachable_positions():
    # the same equivalence along actual play, on six-vertex graphs
    for g in connected_atlas_graphs(6):
        seen = set()
        stack = [0]
        while stack:
            labeled = stack.pop()
            if labeled in seen:
                continue
            seen.add(labeled)
            moves = legal_moves_raw(g, labeled, Variant.CONNECTED)
            if labeled:
                assert moves == _brute_connected_moves(g, labeled)
            for x in bits(moves):
                stack.append(hull(g, labeled | (1 << x)))


# =====================================================================
# applying moves
# =====================================================================

def test_apply_move_takes_the_hull():
    g = make_path(4)
    p = start_position(g, Variant.FREE)
    p = apply_move(p, 0)
    assert p.labeled == mask_of([0])
    p = apply_move(p, 2)  # vertex 1 gets absorbed
    assert p.labeled == mask_of([0, 1, 2])


def test_apply_move_rejects_illegal_moves():
    g = make_path(5)
    p = Position(g, mask_of([0]), Variant.CONNECTED)
    assert legal_moves(p) == mask_of([1, 2])
    with pytest.raises(IllegalMoveError):
        apply_move(p, 4)  # too far from the labeled set
    with pytest.raises(IllegalMoveError):
        apply_move(p, 0)  # already labeled
    with pytest.raises(IllegalMoveError):
        apply_move(p, 9)  # not a vertex


def test_apply_move_builds_the_hull_as_a_checked_position():
    # every position apply_move reaches on the small graphs, in both
    # variants, has passed Position's checks and labels the hull of the
    # labeled set and the move
    for g in atlas_graphs(6):
        for variant in Variant:
            stack, seen = [start_position(g, variant)], set()
            while stack:
                p = stack.pop()
                for x in bits(legal_moves(p)):
                    child = apply_move(p, x)
                    assert child.labeled == hull(g, p.labeled | 1 << x)
                    assert child == Position(g, child.labeled, variant)
                    if child.labeled not in seen:
                        seen.add(child.labeled)
                        stack.append(child)


def test_apply_move_keeps_variant_and_graph():
    g = make_cycle(5)
    p = apply_move(start_position(g, Variant.CONNECTED), 1)
    assert p.graph is g and p.variant is Variant.CONNECTED
