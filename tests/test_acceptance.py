"""End-to-end acceptance sweeps: every closed form and family solver is
replayed against the exhaustive engine at the full advertised sizes, with
a wall-clock deadline asserted for each sweep.  A sweep that draws the
instances of a verify family runs that family, so each solver's value
after every opening is compared with the engine's."""

import random
import sys
import time

from p3game import (Player, Variant, Verdict, component_free_values,
                    connected_block_values, connected_cycle_values, grundy,
                    hull, ladder_connected_values, make_clique, make_cycle,
                    make_ladder, make_path, make_star, mex, nim_sum,
                    opening_values, random_chordal, random_cograph,
                    random_gnp, random_tree, start_position)
from p3game.verify import FAMILIES, run_family

import reference
from helpers import disjoint_union, threshold_graph
from reference import is_p3_closed, lemma_breaks


def passes(family, max_n, seed=0):
    """Run one verify family and assert that every instance passed;
    return its instance count."""
    report = run_family(family, max_n, seed=seed)
    assert report.passed, report.mismatches[:3]
    return report.instances


def test_star_sweep():
    t0 = time.monotonic()
    assert passes("star", 12) == 13
    for t in range(0, 13):
        first_wins = mex(component_free_values(make_star(t))) != 0
        assert first_wins == (t % 2 == 0)
    assert time.monotonic() - t0 < 10  # deadline: ten seconds


def test_clique_sweep():
    t0 = time.monotonic()
    assert passes("clique", 12) == 12
    for n in range(1, 13):
        first_wins = mex(component_free_values(make_clique(n))) != 0
        assert first_wins == (n == 1)
    assert time.monotonic() - t0 < 10  # deadline: ten seconds


def test_connected_cycle_sweep():
    t0 = time.monotonic()
    assert passes("cycle-connected", 40) == 38
    for n in range(3, 41):
        first_wins = mex(connected_cycle_values(n)) != 0
        assert first_wins == (n % 3 == 2), n
    assert time.monotonic() - t0 < 120  # deadline: two minutes


def test_connected_path_sweep():
    t0 = time.monotonic()
    assert passes("path-connected", 40) == 40
    assert time.monotonic() - t0 < 120  # deadline: two minutes


def test_connected_path_sweep_reaches_600_vertices():
    # play here lasts hundreds of moves, which a search recursing once
    # or twice per move cannot fit under Python's default recursion
    # limit; the engine keeps its own stack
    t0 = time.monotonic()
    g = make_path(600)
    assert opening_values(g, Variant.CONNECTED) == connected_block_values(g)
    assert time.monotonic() - t0 < 60  # deadline: one minute


def test_ladder_sweep():
    t0 = time.monotonic()
    # the value after each opening against the engine, at every size up
    # to 39 rungs and at 58, 59, 60, 88, 89 and 90
    assert passes("ladder", 39) == 39
    for n in (58, 59, 60, 88, 89, 90):
        assert opening_values(make_ladder(n), Variant.CONNECTED) == \
            ladder_connected_values(n), n
    # the closed form, checked symbolically well past engine reach: the
    # first player wins exactly when the vertex count is a multiple of six
    for n in range(1, 1001):
        verdict = Verdict.from_openings(ladder_connected_values(n))
        assert (verdict.winner is Player.FIRST) == ((2 * n) % 6 == 0)
    assert time.monotonic() - t0 < 300  # deadline: five minutes


def test_free_path_sweep():
    t0 = time.monotonic()
    assert passes("path-free", 40) == 40
    assert time.monotonic() - t0 < 120  # deadline: two minutes


def test_free_cycle_sweep():
    t0 = time.monotonic()
    assert passes("cycle-free", 32) == 30
    assert time.monotonic() - t0 < 120  # deadline: two minutes


def test_tree_sweep():
    # every tree class up to 9 vertices, then 200 random trees of up to 40
    t0 = time.monotonic()
    assert passes("tree", 40, seed=88) == 95 + 200
    assert time.monotonic() - t0 < 300  # deadline: five minutes


def test_caterpillar_sweep():
    t0 = time.monotonic()
    assert passes("caterpillar", 14, seed=99) == 200
    assert time.monotonic() - t0 < 300  # deadline: five minutes


def test_chordal_connected_sweep():
    t0 = time.monotonic()
    rng = random.Random(35)
    for n in [*(rng.randint(1, 16) for _ in range(200)), 200]:
        g = random_chordal(n, rng)
        assert connected_block_values(g) == \
            opening_values(g, Variant.CONNECTED), g.edges()
    assert time.monotonic() - t0 < 120  # deadline: two minutes
    g = random_chordal(1000, rng)
    t0 = time.monotonic()
    connected_block_values(g)
    assert time.monotonic() - t0 < 1  # deadline: one second


def test_cograph_sweep():
    t0 = time.monotonic()
    assert passes("cograph", 12, seed=1010) == 200
    assert time.monotonic() - t0 < 300  # deadline: five minutes


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
    assert random_cograph(n, _PeelingRandom()) == threshold_graph(n)


def test_cograph_solver_on_threshold_graphs():
    # the engine takes boundary moves first, so each size costs it
    # about 3n hulls, not n^2 / 4
    for n in (200, 400, 600):
        g = threshold_graph(n)
        assert component_free_values(g) == opening_values(g, Variant.FREE)
    # far past the default recursion limit: the join rule splits the
    # graph once, however deep its unions and joins nest
    t0 = time.monotonic()
    v = Verdict.from_openings(component_free_values(threshold_graph(1500)))
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


def _lemma_samples(max_n):
    """The graphs of the chordal-lemma sweep up to max_n, at seed 0."""
    return [g for _, g in FAMILIES["chordal-lemma"].instances(
        max_n, random.Random(0))]


def test_chordal_distance_two_pairs_span_everything():
    # in a biconnected chordal graph, the hull of any two vertices at
    # distance at most two is the whole vertex set; the sweep of the
    # same samples checks the block solver that relies on it
    t0 = time.monotonic()
    samples = _lemma_samples(12)
    assert len(samples) == 100
    assert [lemma_breaks(g) for g in samples] == [[]] * 100
    assert passes("chordal-lemma", 12) == 100
    assert time.monotonic() - t0 < 60  # deadline: one minute


def test_a_hull_that_drops_a_vertex_breaks_the_chordal_lemma(monkeypatch):
    # the lemma check sees a hull that never reaches the last vertex
    rescan = reference.hull_by_rescan
    monkeypatch.setattr(reference, "hull_by_rescan",
                        lambda g, a: rescan(g, a) & ~(1 << (g.n - 1)))
    samples = _lemma_samples(6)
    assert len(samples) == 100
    assert all(lemma_breaks(g) for g in samples)


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
