"""End-to-end acceptance sweeps: every closed form and family solver is
replayed against the exhaustive engine at the full advertised sizes, with
a wall-clock deadline asserted for each sweep."""

import random
import sys
import time

from p3game import (Player, Variant, Verdict, apply_move,
                    block_connected_winner, component_free_winner,
                    connected_cycle_winner, decide, grundy, hull,
                    ladder_connected_winner, make_clique, make_cycle,
                    make_ladder, make_path, make_star, nim_sum,
                    random_caterpillar, random_chordal, random_cograph,
                    random_gnp, random_tree, start_position,
                    tree_connected_grundy)
from p3game.graphs import Graph
from p3game.verify import enumerate_trees, run_family

from helpers import disjoint_union
from reference import is_p3_closed


def test_star_sweep():
    t0 = time.monotonic()
    for t in range(0, 13):
        g = make_star(t)
        v = component_free_winner(g)
        assert v == decide(g, Variant.FREE)
        assert (v.winner is Player.FIRST) == (t % 2 == 0)
    assert time.monotonic() - t0 < 10  # deadline: ten seconds


def test_clique_sweep():
    t0 = time.monotonic()
    for n in range(1, 13):
        g = make_clique(n)
        v = component_free_winner(g)
        assert v == decide(g, Variant.FREE)
        assert (v.winner is Player.FIRST) == (n == 1)
    assert time.monotonic() - t0 < 10  # deadline: ten seconds


def test_connected_cycle_sweep():
    t0 = time.monotonic()
    for n in range(3, 41):
        verdict = decide(make_cycle(n), Variant.CONNECTED)
        assert verdict == connected_cycle_winner(n), n
        assert (verdict.winner is Player.FIRST) == (n % 3 == 2)
    assert time.monotonic() - t0 < 120  # deadline: two minutes


def test_connected_path_sweep():
    t0 = time.monotonic()
    for n in range(1, 41):
        g = make_path(n)
        assert block_connected_winner(g) == decide(g, Variant.CONNECTED)
    assert time.monotonic() - t0 < 120  # deadline: two minutes


def test_connected_path_sweep_reaches_600_vertices():
    # play here lasts hundreds of moves, which a search recursing once
    # or twice per move cannot fit under Python's default recursion
    # limit; the engine keeps its own stack
    t0 = time.monotonic()
    g = make_path(600)
    assert decide(g, Variant.CONNECTED) == block_connected_winner(g)
    assert time.monotonic() - t0 < 60  # deadline: one minute


def test_ladder_sweep():
    t0 = time.monotonic()
    for n in range(1, 40):
        ladder = make_ladder(n)
        verdict = decide(ladder, Variant.CONNECTED)
        solver = ladder_connected_winner(n)
        assert (verdict.winner, verdict.grundy) == \
            (solver.winner, solver.grundy), n
        if solver.witness is not None:
            # the solver's corner opening leaves a position worth 0
            start = start_position(ladder, Variant.CONNECTED)
            assert grundy(apply_move(start, solver.witness)) == 0, n
    # the closed form, checked symbolically well past engine reach: the
    # first player wins exactly when the vertex count is a multiple of six
    for n in range(1, 1001):
        first_wins = ladder_connected_winner(n).winner is Player.FIRST
        assert first_wins == ((2 * n) % 6 == 0)
    assert time.monotonic() - t0 < 300  # deadline: five minutes


def test_free_path_sweep():
    t0 = time.monotonic()
    for n in range(1, 41):
        g = make_path(n)
        assert component_free_winner(g) == decide(g, Variant.FREE), n
    assert time.monotonic() - t0 < 120  # deadline: two minutes


def test_free_cycle_sweep():
    t0 = time.monotonic()
    for n in range(3, 33):
        g = make_cycle(n)
        assert component_free_winner(g) == decide(g, Variant.FREE), n
    assert time.monotonic() - t0 < 120  # deadline: two minutes


def test_tree_sweep():
    t0 = time.monotonic()
    for n, idx, tree in enumerate_trees(9):
        assert tree_connected_grundy(tree) == \
            grundy(start_position(tree, Variant.CONNECTED)), (n, idx)
    rng = random.Random(88)
    for _ in range(200):
        tree = random_tree(rng.randint(1, 40), rng)
        assert tree_connected_grundy(tree) == \
            grundy(start_position(tree, Variant.CONNECTED))
    assert time.monotonic() - t0 < 300  # deadline: five minutes


def test_caterpillar_sweep():
    t0 = time.monotonic()
    rng = random.Random(99)
    for _ in range(200):
        g = random_caterpillar(rng.randint(1, 14), rng)
        assert block_connected_winner(g) == \
            decide(g, Variant.CONNECTED), g.edges()
    assert time.monotonic() - t0 < 300  # deadline: five minutes


def test_chordal_connected_sweep():
    t0 = time.monotonic()
    rng = random.Random(35)
    for n in [*(rng.randint(1, 16) for _ in range(200)), 200]:
        g = random_chordal(n, rng)
        assert block_connected_winner(g) == decide(g, Variant.CONNECTED), \
            g.edges()
    assert time.monotonic() - t0 < 120  # deadline: two minutes
    g = random_chordal(1000, rng)
    t0 = time.monotonic()
    block_connected_winner(g)
    assert time.monotonic() - t0 < 1  # deadline: one second


def test_cograph_sweep():
    t0 = time.monotonic()
    rng = random.Random(1010)
    for _ in range(200):
        g = random_cograph(rng.randint(1, 12), rng)
        assert component_free_winner(g) == decide(g, Variant.FREE), g.edges()
    assert time.monotonic() - t0 < 300  # deadline: five minutes


def _threshold(n):
    """Threshold graph whose odd vertices are joined to every earlier
    vertex: its unions and joins nest n - 1 levels deep."""
    return Graph(n, [(u, v) for v in range(1, n) if v % 2 for u in range(v)])


class _PeelingRandom:
    """Stands in for random.Random in random_cograph: keeps the vertex
    order, starts with a join, and cuts every group into all but its
    last vertex and that vertex, so the groups nest n - 1 deep."""

    def shuffle(self, order):
        pass

    def choice(self, seq):
        return seq[1]

    def randint(self, a, b):
        return 2

    def sample(self, population, k):
        return [population[-1]]


def test_random_cograph_deeper_than_the_recursion_limit():
    # the generator walks the nested groups from its own stack
    n = 1100
    assert n > sys.getrecursionlimit() and n % 2 == 0
    assert random_cograph(n, _PeelingRandom()) == _threshold(n)


def test_cograph_solver_on_threshold_graphs():
    g = _threshold(200)
    assert component_free_winner(g) == decide(g, Variant.FREE)
    # far past the default recursion limit: the join rule splits the
    # graph once, however deep its unions and joins nest
    t0 = time.monotonic()
    v = component_free_winner(_threshold(1500))
    assert time.monotonic() - t0 < 30  # deadline: thirty seconds
    # by hand: after the universal last vertex, the isolated vertex 1498
    # and the rest (which closes on any move) are one move each, worth
    # 1 ^ 1 = 0; every other opening can move to 0 or 1, so is worth 2
    assert v == Verdict(Player.FIRST, 1, 1499)


def test_disjoint_union_grundy_is_the_nim_sum():
    t0 = time.monotonic()
    rng = random.Random(1111)
    for _ in range(50):
        parts = []
        room = 14
        for _ in range(rng.randint(2, 4)):
            kind = rng.choice(("path", "cycle", "tree"))
            low = 3 if kind == "cycle" else 1
            if room < low:
                break
            size = rng.randint(low, min(6, room))
            room -= size
            if kind == "path":
                parts.append(make_path(size))
            elif kind == "cycle":
                parts.append(make_cycle(size))
            else:
                parts.append(random_tree(size, rng))
        if len(parts) < 2:
            parts.append(make_path(1))
        whole = disjoint_union(parts)
        direct = grundy(start_position(whole, Variant.FREE))
        by_parts = nim_sum(grundy(start_position(p, Variant.FREE))
                           for p in parts)
        assert direct == by_parts
    assert time.monotonic() - t0 < 120  # deadline: two minutes


def test_chordal_distance_two_pairs_span_everything():
    # in a biconnected chordal graph, the hull of any two vertices at
    # distance at most two is the whole vertex set
    t0 = time.monotonic()
    report = run_family("chordal-lemma", 12)
    assert report.passed, report.mismatches[:3]
    assert report.instances == 100
    assert time.monotonic() - t0 < 60  # deadline: one minute


def test_closure_axiom_sweep():
    t0 = time.monotonic()
    rng = random.Random(1313)
    for _ in range(1000):
        n = rng.randint(1, 12)
        g = random_gnp(n, rng.random(), rng)
        a = rng.getrandbits(n)
        b = a | rng.getrandbits(n)  # superset of a
        ha, hb = hull(g, a), hull(g, b)
        assert ha & a == a                      # extensive
        assert hb & ha == ha                    # monotone
        assert hull(g, ha) == ha                # idempotent
        assert is_p3_closed(g, ha)              # lands on a closed set
        assert hull(g, 0) == 0                  # empty set is closed
    assert time.monotonic() - t0 < 60  # deadline: one minute
