"""Graph layer: construction invariants, family generators, JSON
round-trips with distinct diagnostics, and seeded sampler determinism."""

import json
import random

import networkx as nx
import pytest

from p3game import (CaterpillarSpec, Cotree, Graph, GraphFormatError,
                    bits, components, emit_cotree, emit_graph, graph_digest,
                    induced_subgraph, is_tree, make_caterpillar, make_clique,
                    make_cograph, make_cycle, make_ladder, make_path,
                    make_star, mask_of, parse_cotree, parse_graph,
                    random_biconnected_chordal, random_caterpillar_spec,
                    random_chordal, random_cotree, random_gnp, random_tree)
from p3game.graphs import (JOIN, UNION, cotree_leaves, is_connected, popcount,
                           validate_cotree)

from helpers import check_graph_invariants, graph_to_nx, has_induced_p4


# =====================================================================
# bitmask vertex sets
# =====================================================================

def test_bits_mask_roundtrip():
    rng = random.Random(1)
    for _ in range(200):
        mask = rng.getrandbits(40)
        ids = list(bits(mask))
        assert ids == sorted(ids)
        assert mask_of(ids) == mask
        assert popcount(mask) == len(ids) == bin(mask).count("1")
    assert list(bits(0)) == []
    assert mask_of([]) == 0


# =====================================================================
# core graph type
# =====================================================================

def test_graph_rejects_out_of_range_vertex():
    with pytest.raises(GraphFormatError, match="out of range"):
        Graph(3, [(0, 3)])


def test_graph_rejects_self_loop():
    with pytest.raises(GraphFormatError, match="self-loop"):
        Graph(3, [(1, 1)])


def test_graph_rejects_duplicate_edge():
    with pytest.raises(GraphFormatError, match="duplicate edge"):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphFormatError, match="duplicate edge"):
        Graph(3, [(0, 1), (0, 1)])


def test_graph_rejects_negative_vertex_count():
    with pytest.raises(GraphFormatError):
        Graph(-1, [])


def test_edges_sorted_and_counted():
    rng = random.Random(2)
    for _ in range(50):
        g = random_gnp(rng.randint(0, 12), rng.random(), rng)
        check_graph_invariants(g)
        es = g.edges()
        assert es == sorted(es)
        assert all(u < v for u, v in es)
        assert len(es) == g.edge_count()
        for u, v in es:
            assert g.has_edge(u, v) and g.has_edge(v, u)


def test_equality_ignores_edge_order_not_structure():
    a = Graph(4, [(0, 1), (2, 3)])
    b = Graph(4, [(2, 3), (0, 1)])
    c = Graph(4, [(0, 1), (1, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != Graph(5, [(0, 1), (2, 3)])


def test_neighborhood_of_set():
    g = make_path(5)  # 0-1-2-3-4
    assert g.neighborhood_of_set(mask_of([0])) == mask_of([1])
    assert g.neighborhood_of_set(mask_of([1, 3])) == mask_of([0, 2, 4])
    assert g.neighborhood_of_set(0) == 0


def test_complement_swaps_edges_and_non_edges():
    rng = random.Random(6)
    for n in (0, 1, 2, 5, 13, 70):
        g = random_gnp(n, rng.random(), rng)
        co = g.complement()
        check_graph_invariants(co)
        assert co == Graph(n, [(u, v) for u in range(n)
                               for v in range(u + 1, n)
                               if not g.has_edge(u, v)])
        assert co.complement() == g
        assert hash(co.complement()) == hash(g)
    assert make_clique(6).complement() == Graph(6, [])


def test_components_and_connectivity():
    g = Graph(5, [(0, 1), (1, 2)])  # P_3 plus two isolated vertices
    comps = components(g)
    assert comps == [mask_of([0, 1, 2]), mask_of([3]), mask_of([4])]
    assert not is_connected(g)
    assert is_connected(make_cycle(6))
    assert is_connected(Graph(1, []))
    assert is_connected(Graph(0, []))


def test_induced_subgraph_maps_vertices():
    g = make_cycle(5)
    sub, old_ids = induced_subgraph(g, mask_of([0, 1, 3]))
    assert old_ids == [0, 1, 3]
    assert sub.n == 3
    assert sub.edges() == [(0, 1)]  # only the old 0-1 edge survives
    check_graph_invariants(sub)


def test_induced_subgraph_random_consistency():
    rng = random.Random(3)
    for _ in range(50):
        g = random_gnp(rng.randint(1, 10), 0.5, rng)
        mask = rng.getrandbits(g.n)
        sub, old_ids = induced_subgraph(g, mask)
        check_graph_invariants(sub)
        for new_u, old_u in enumerate(old_ids):
            assert sub.degree(new_u) == popcount(g.adj[old_u] & mask)


def test_is_tree():
    assert is_tree(Graph(1, []))
    assert is_tree(make_path(7))
    assert is_tree(make_star(5))
    assert not is_tree(make_cycle(4))
    assert not is_tree(Graph(2, []))  # disconnected
    assert not is_tree(Graph(4, [(0, 1), (2, 3)]))


# =====================================================================
# family generators
# =====================================================================

def test_path_cycle_star_clique_shapes():
    for n in range(1, 12):
        p = make_path(n)
        assert (p.n, p.edge_count()) == (n, n - 1)
        check_graph_invariants(p)
    for n in range(3, 12):
        c = make_cycle(n)
        assert (c.n, c.edge_count()) == (n, n)
        assert all(c.degree(v) == 2 for v in range(n))
    for t in range(0, 12):
        s = make_star(t)
        assert (s.n, s.edge_count()) == (t + 1, t)
        assert s.degree(0) == t
    for n in range(1, 10):
        k = make_clique(n)
        assert (k.n, k.edge_count()) == (n, n * (n - 1) // 2)


def test_generator_argument_validation():
    with pytest.raises(ValueError):
        make_path(0)
    with pytest.raises(ValueError):
        make_cycle(2)
    with pytest.raises(ValueError):
        make_star(-1)
    with pytest.raises(ValueError):
        make_clique(0)
    with pytest.raises(ValueError):
        make_ladder(0)


def test_ladder_shape_up_to_100_rungs():
    for n in range(1, 101):
        g = make_ladder(n)
        assert g.n == 2 * n
        assert g.edge_count() == 3 * n - 2
        check_graph_invariants(g)
        for i in range(n):
            assert g.has_edge(i, n + i)  # rung
        for i in range(n - 1):
            assert g.has_edge(i, i + 1) and g.has_edge(n + i, n + i + 1)


def test_caterpillar_with_no_feet_is_a_path():
    for b in range(1, 13):
        spec = CaterpillarSpec(b, (0,) * b)
        assert make_caterpillar(spec) == make_path(b)


def test_caterpillar_numbering_and_shape():
    spec = CaterpillarSpec(3, (0, 1, 0))
    g = make_caterpillar(spec)
    assert g.n == 4
    assert g.edges() == [(0, 1), (1, 2), (1, 3)]
    assert nx.is_isomorphic(graph_to_nx(g), graph_to_nx(make_star(3)))
    # feet grouped by backbone vertex, backbone first
    spec = CaterpillarSpec(2, (2, 1))
    g = make_caterpillar(spec)
    assert g.edges() == [(0, 1), (0, 2), (0, 3), (1, 4)]


def test_caterpillar_spec_validation():
    with pytest.raises(ValueError):
        CaterpillarSpec(0, ())
    with pytest.raises(ValueError):
        CaterpillarSpec(2, (1,))
    with pytest.raises(ValueError):
        CaterpillarSpec(2, (1, -1))
    assert CaterpillarSpec(3, (1, 0, 2)).total_vertices == 6


# =====================================================================
# cotrees and cographs
# =====================================================================

def test_cotree_validation_rules():
    validate_cotree(0)  # a bare leaf is a valid cotree
    validate_cotree(Cotree(JOIN, (0, 1)))
    with pytest.raises(GraphFormatError, match="at least two children"):
        validate_cotree(Cotree(JOIN, (0,)))
    with pytest.raises(GraphFormatError, match="merged"):
        validate_cotree(Cotree(JOIN, (Cotree(JOIN, (0, 1)), 2)))
    with pytest.raises(GraphFormatError, match="op"):
        validate_cotree(Cotree("meet", (0, 1)))
    with pytest.raises(GraphFormatError, match="0..n-1"):
        validate_cotree(Cotree(JOIN, (0, 2)))
    with pytest.raises(GraphFormatError, match="0..n-1"):
        validate_cotree(Cotree(JOIN, (0, 0)))
    with pytest.raises(GraphFormatError, match="leaf"):
        validate_cotree(Cotree(JOIN, (0, True)))


def test_cotree_roundtrip():
    rng = random.Random(4)
    for _ in range(60):
        t = random_cotree(10, rng)
        assert parse_cotree(emit_cotree(t)) == t
    with pytest.raises(GraphFormatError, match="malformed JSON"):
        parse_cotree(b"[")
    with pytest.raises(GraphFormatError, match="exactly the keys"):
        parse_cotree(b'{"op": "join"}')


def test_make_cograph_realizations():
    # join of bare leaves is the clique
    assert make_cograph(Cotree(JOIN, (0, 1, 2, 3))) == make_clique(4)
    # union of bare leaves is the empty graph
    assert make_cograph(Cotree(UNION, (0, 1, 2))) == Graph(3, [])
    # join of a leaf with a union of two leaves is the star K_{1,2}
    g = make_cograph(Cotree(JOIN, (0, Cotree(UNION, (1, 2)))))
    assert g.edges() == [(0, 1), (0, 2)]
    assert make_cograph(0) == Graph(1, [])


def _cograph_by_edges(node):
    """(vertex set, edges) of a cotree, by the definition: a join adds
    every pair across two of its children."""
    if isinstance(node, int):
        return [node], []
    sides = [_cograph_by_edges(child) for child in node.children]
    edges = [e for _, side_edges in sides for e in side_edges]
    if node.op == JOIN:
        for i, (left, _) in enumerate(sides):
            for right, _ in sides[i + 1:]:
                edges += [(min(u, v), max(u, v)) for u in left for v in right]
    return [v for side, _ in sides for v in side], edges


def test_make_cograph_matches_the_cotree_definition():
    rng = random.Random(7)
    for _ in range(100):
        cotree = random_cotree(14, rng)
        vertices, edges = _cograph_by_edges(cotree)
        g = make_cograph(cotree)
        check_graph_invariants(g)
        assert g == Graph(len(vertices), edges)


def test_cographs_have_no_induced_p4():
    # guard: the predicate does recognize a real P_4
    assert has_induced_p4(make_path(4))
    rng = random.Random(5)
    for _ in range(30):
        assert not has_induced_p4(make_cograph(random_cotree(12, rng)))


# =====================================================================
# JSON graph serialization
# =====================================================================

def test_graph_roundtrip_is_canonical():
    rng = random.Random(6)
    for _ in range(60):
        g = random_gnp(rng.randint(0, 12), rng.random(), rng)
        data = emit_graph(g)
        assert data.endswith(b"\n")
        assert parse_graph(data) == g
        payload = json.loads(data)
        assert set(payload) == {"n", "edges"}
        assert payload["edges"] == sorted(payload["edges"])


def test_parse_graph_distinct_diagnostics():
    with pytest.raises(GraphFormatError, match="malformed JSON"):
        parse_graph(b"{nope")
    with pytest.raises(GraphFormatError, match="JSON object"):
        parse_graph(b"[1, 2]")
    with pytest.raises(GraphFormatError, match="exactly the keys"):
        parse_graph(b'{"n": 2}')
    with pytest.raises(GraphFormatError, match="out of range"):
        parse_graph(b'{"n": 2, "edges": [[0, 5]]}')
    with pytest.raises(GraphFormatError, match="self-loop"):
        parse_graph(b'{"n": 2, "edges": [[1, 1]]}')
    with pytest.raises(GraphFormatError, match="duplicate edge"):
        parse_graph(b'{"n": 2, "edges": [[0, 1], [1, 0]]}')
    with pytest.raises(GraphFormatError, match="nonnegative integer"):
        parse_graph(b'{"n": true, "edges": []}')
    with pytest.raises(GraphFormatError, match="pair of integers"):
        parse_graph(b'{"n": 2, "edges": [[0, 1, 2]]}')


def test_graph_digest_stable_and_sensitive():
    a = Graph(4, [(0, 1), (2, 3)])
    b = Graph(4, [(2, 3), (0, 1)])
    assert graph_digest(a) == graph_digest(b)
    assert len(graph_digest(a)) == 64
    assert graph_digest(a) != graph_digest(Graph(4, [(0, 1), (1, 2)]))
    assert graph_digest(a) != graph_digest(Graph(5, [(0, 1), (2, 3)]))


# =====================================================================
# seeded samplers
# =====================================================================

def test_random_tree_valid_and_deterministic():
    for n in (1, 2, 3, 8, 14):
        seen = set()
        for seed in range(10):
            t = random_tree(n, random.Random(seed))
            assert is_tree(t)
            assert t == random_tree(n, random.Random(seed))
            seen.add(t)
        if n >= 8:
            assert len(seen) > 1  # the sampler actually varies


def test_random_caterpillar_spec_bounds_and_determinism():
    for seed in range(30):
        spec = random_caterpillar_spec(14, random.Random(seed))
        assert 1 <= spec.total_vertices <= 14
        assert spec == random_caterpillar_spec(14, random.Random(seed))


def test_random_cotree_canonical_and_deterministic():
    for seed in range(30):
        t = random_cotree(12, random.Random(seed))
        n = validate_cotree(t)
        assert 1 <= n <= 12
        assert sorted(cotree_leaves(t)) == list(range(n))
        assert t == random_cotree(12, random.Random(seed))


def test_random_biconnected_chordal_properties():
    for seed in range(30):
        n = 3 + seed % 10
        g = random_biconnected_chordal(n, random.Random(seed))
        assert g.n == n
        check_graph_invariants(g)
        h = graph_to_nx(g)
        assert nx.is_chordal(h)
        if n >= 3:
            assert nx.is_biconnected(h)
        assert g == random_biconnected_chordal(n, random.Random(seed))


def test_random_chordal_properties():
    sizes = []
    for seed in range(60):
        n = 1 + seed % 30
        g = random_chordal(n, random.Random(seed))
        assert g.n == n
        check_graph_invariants(g)
        h = graph_to_nx(g)
        assert nx.is_chordal(h) and nx.is_connected(h)
        blocks = list(nx.biconnected_components(h))
        assert all(2 <= len(b) <= 8 for b in blocks)
        sizes += [len(b) for b in blocks]
        assert g == random_chordal(n, random.Random(seed))
    # bridges and larger blocks both occur
    assert {2, 3, 8} <= set(sizes)


def test_random_gnp_extremes():
    rng = random.Random(7)
    assert random_gnp(8, 0.0, rng).edge_count() == 0
    assert random_gnp(8, 1.0, rng) == make_clique(8)
