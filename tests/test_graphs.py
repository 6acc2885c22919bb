"""Graph layer: construction invariants, family generators, JSON
round-trips with distinct diagnostics, and seeded sampler determinism."""

import hashlib
import json
import random

import networkx as nx
import pytest

from p3game import (Graph, GraphFormatError, bits, components, emit_graph,
                    graph_digest, induced_subgraph, make_caterpillar,
                    make_clique, make_cycle, make_ladder, make_path,
                    make_star, mask_of, parse_graph,
                    random_biconnected_chordal, random_caterpillar,
                    random_chordal, random_cograph, random_gnp, random_tree)
from p3game.graphs import SIZED_FAMILIES

from helpers import (atlas_graphs, check_graph_invariants, graph_to_nx,
                     has_induced_p4)


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
        assert mask.bit_count() == len(ids) == bin(mask).count("1")
    assert list(bits(0)) == []
    assert mask_of([]) == 0


def test_bits_refuses_a_negative_mask():
    # ~m is a natural way to ask for a complement, and is an infinite set
    with pytest.raises(ValueError, match="negative"):
        list(bits(~5))
    assert list(bits(0)) == []


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
    # the message names the sorted pair, whichever way round it came
    for edges in ([(0, 1), (1, 0)], [(1, 0), (0, 1)], [(0, 1), (0, 1)]):
        with pytest.raises(GraphFormatError) as info:
            Graph(3, edges)
        assert str(info.value) == "duplicate edge (0, 1)"


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
            assert g.adj[u] >> v & 1 and g.adj[v] >> u & 1
        assert repr(g) == "Graph(n=%d, m=%d)" % (g.n, len(es))


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


def test_components_and_connectivity():
    g = Graph(5, [(0, 1), (1, 2)])  # P_3 plus two isolated vertices
    comps = components(g)
    assert comps == [mask_of([0, 1, 2]), mask_of([3]), mask_of([4])]
    assert components(make_cycle(6)) == [make_cycle(6).full_mask]
    assert components(Graph(1, [])) == [1]
    assert components(Graph(0, [])) == []


def _parts_by_networkx(g, within):
    """Components of g[within] from networkx, ordered by smallest member."""
    h = graph_to_nx(g).subgraph(bits(within))
    return sorted((mask_of(part) for part in nx.connected_components(h)),
                  key=lambda part: part & -part)


def test_seeded_components_split_like_the_plain_flood():
    # on every graph of up to seven vertices and on random G(n, p)
    # graphs, for random vertex sets: unseeded, components lists the
    # parts ordered by smallest member; seeded with any set that meets
    # every part, it finds the same parts, ordered by lowest seed
    rng = random.Random(13)
    graphs = list(atlas_graphs(7))
    graphs += [random_gnp(rng.randint(8, 40),
                          rng.choice((0.03, 0.08, 0.15, 0.3)), rng)
               for _ in range(300)]
    for g in graphs:
        for _ in range(3):
            within = rng.getrandbits(g.n) if g.n else 0
            expect = _parts_by_networkx(g, within)
            assert components(g, within) == expect
            assert components(g, within, within) == expect
            for extra in (0, within & rng.getrandbits(g.n or 1)):
                seeds = extra
                for part in expect:
                    seeds |= 1 << rng.choice(list(bits(part)))
                got = components(g, within, seeds)
                assert sorted(got) == sorted(expect), (g.edges(), within)
                lowest_seed = [part & seeds & -(part & seeds) for part in got]
                assert lowest_seed == sorted(lowest_seed)
    g = random_gnp(30, 0.1, rng)
    assert components(g) == components(g, g.full_mask) \
        == _parts_by_networkx(g, g.full_mask)


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
            assert (sub.adj[new_u].bit_count()
                    == (g.adj[old_u] & mask).bit_count())


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
        assert all(row.bit_count() == 2 for row in c.adj)
    for t in range(0, 12):
        s = make_star(t)
        assert (s.n, s.edge_count()) == (t + 1, t)
        assert s.adj[0].bit_count() == t
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
    with pytest.raises(ValueError):
        random_gnp(-1, 0.5, random.Random(0))


def test_ladder_shape_up_to_100_rungs():
    for n in range(1, 101):
        g = make_ladder(n)
        assert g.n == 2 * n
        assert g.edge_count() == 3 * n - 2
        check_graph_invariants(g)
        for i in range(n):
            assert g.adj[i] >> (n + i) & 1  # rung
        for i in range(n - 1):
            assert g.adj[i] >> (i + 1) & 1 and g.adj[n + i] >> (n + i + 1) & 1


def test_caterpillar_with_no_feet_is_a_path():
    for b in range(1, 13):
        assert make_caterpillar((0,) * b) == make_path(b)


def test_caterpillar_numbering_and_shape():
    g = make_caterpillar((0, 1, 0))
    assert g.n == 4
    assert g.edges() == [(0, 1), (1, 2), (1, 3)]
    assert nx.is_isomorphic(graph_to_nx(g), graph_to_nx(make_star(3)))
    # feet grouped by backbone vertex, backbone first
    g = make_caterpillar([2, 1])
    assert g.edges() == [(0, 1), (0, 2), (0, 3), (1, 4)]
    assert make_caterpillar((1, 0, 2)).n == 6


def test_caterpillar_spec_validation():
    with pytest.raises(ValueError, match="at least one vertex"):
        make_caterpillar(())
    with pytest.raises(ValueError, match="nonnegative"):
        make_caterpillar((2, 1, -1))


# =====================================================================
# cographs
# =====================================================================

def _cograph_by_definition(n, rng):
    """random_cograph(n, rng) by the definition, recursively: the same
    draws, and a join adds every edge across two of its groups."""
    order = list(range(n))
    rng.shuffle(order)

    def build(pool, join):
        if len(pool) == 1:
            return []
        k = rng.randint(2, len(pool))
        cuts = [0, *sorted(rng.sample(range(1, len(pool)), k - 1)), len(pool)]
        groups = [pool[a:b] for a, b in zip(cuts, cuts[1:])]
        edges = [e for grp in groups for e in build(grp, not join)]
        if join:
            edges += [(u, v) for i, left in enumerate(groups)
                      for right in groups[i + 1:] for u in left for v in right]
        return edges

    return Graph(n, build(order, rng.choice((False, True))))


def test_random_cograph_matches_the_definition():
    for seed in range(100):
        n = 1 + seed % 14
        g = random_cograph(n, random.Random(seed))
        check_graph_invariants(g)
        assert g == _cograph_by_definition(n, random.Random(seed))
    # past the small sizes, the two also leave their generators alike
    for n in (60, 200):
        for seed in range(5):
            rng, by_definition = random.Random(seed), random.Random(seed)
            assert random_cograph(n, rng) == \
                _cograph_by_definition(n, by_definition)
            assert rng.random() == by_definition.random()


def test_cographs_have_no_induced_p4():
    # guard: the predicate does recognize a real P_4
    assert has_induced_p4(make_path(4))
    rng = random.Random(5)
    for _ in range(30):
        assert not has_induced_p4(random_cograph(rng.randint(1, 12), rng))


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
    with pytest.raises(GraphFormatError, match='"edges" must be a list'):
        parse_graph(b'{"n": 2, "edges": {}}')
    for edge in (b"[0, 1, 2]", b"[0, true]", b"[0, 1.0]", b'["0", 1]',
                 b"5", b"[[0, 1]]"):
        with pytest.raises(GraphFormatError, match="pair of integers"):
            parse_graph(b'{"n": 2, "edges": [%s]}' % edge)
    # json.loads keeps a repeated key's last value: three isolated
    # vertices, and P2
    with pytest.raises(GraphFormatError, match='repeats the key "edges"'):
        parse_graph(b'{"n":3,"edges":[[0,1],[1,2]],"edges":[]}')
    with pytest.raises(GraphFormatError, match='repeats the key "n"'):
        parse_graph(b'{"n":3,"edges":[[0,1]],"n":2}')
    with pytest.raises(GraphFormatError, match="Unexpected UTF-8 BOM"):
        parse_graph(b'\xef\xbb\xbf{"n": 0, "edges": []}')


def _json_dumps_form(g):
    """The canonical bytes as json.dumps writes them, from the rows."""
    edges = [[u, v] for u in range(g.n) for v in bits(g.adj[u]) if u < v]
    return (json.dumps({"n": g.n, "edges": edges}, sort_keys=True,
                       separators=(",", ":")) + "\n").encode()


def test_emit_graph_writes_the_json_dumps_bytes():
    rng = random.Random(7)
    graphs = list(atlas_graphs(7)) + [Graph(0, [])]
    graphs += [random_gnp(n, rng.random(), rng)
               for n in (0, 1, 2, 13, 63, 64, 65, 100, 130)]
    for g in graphs:
        assert emit_graph(g) == _json_dumps_form(g), (g.n, g.edges())


def test_graph_digest_pins():
    # cache keys: a change of any canonical byte shows here
    assert graph_digest(Graph(0, [])) == \
        "11135209c729c6c8337e8c9c197d8472813dcddab8d3470ec3437ca861d1ae2c"
    assert graph_digest(make_path(3)) == \
        "0c9de9bdcb06746df64cb1a64b4d48906be6878d1576a7967b31a50ead506889"
    assert graph_digest(make_ladder(4)) == \
        "a1243195934ef4c4ee5784439f8621f5330bb49565279579539a778a9833415a"


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
            assert nx.is_tree(graph_to_nx(t))
            assert t == random_tree(n, random.Random(seed))
            seen.add(t)
        if n >= 8:
            assert len(seen) > 1  # the sampler actually varies


def test_random_tree_draws_are_pinned():
    # trees drawn in sequence from one generator, as the benchmark's
    # engine workloads draw theirs from one pool: the digest pins each
    # tree and how many numbers each call consumes, n = 1 and 2 included
    rng = random.Random(0)
    digest = hashlib.sha256()
    for n in (1, 2, 3, 30, 500, 3000):
        digest.update(emit_graph(random_tree(n, rng)))
    assert digest.hexdigest() == \
        "f976129d80b6868894701f619c2ac9e45363f64eb0e00f015d023e36f65e3cfd"


def test_random_caterpillar_valid_and_deterministic():
    for seed in range(30):
        n = 1 + seed % 14
        g = random_caterpillar(n, random.Random(seed))
        assert g.n == n and nx.is_tree(graph_to_nx(g))
        # removing the leaves leaves a path (or nothing)
        spine = g.full_mask & ~mask_of(v for v in range(n)
                                       if g.adj[v].bit_count() <= 1)
        body, _ = induced_subgraph(g, spine)
        assert body.n == 0 or (nx.is_tree(graph_to_nx(body)) and max(
            row.bit_count() for row in body.adj) <= 2)
        assert g == random_caterpillar(n, random.Random(seed))


def test_random_cograph_deterministic_and_varied():
    for n in (1, 2, 5, 12):
        seen = set()
        for seed in range(10):
            g = random_cograph(n, random.Random(seed))
            assert g.n == n
            assert g == random_cograph(n, random.Random(seed))
            seen.add(g)
        if n >= 5:
            assert len(seen) > 1  # the sampler actually varies


def test_every_sized_family_builds_from_its_minimum_and_rejects_below():
    # gen and verify check sizes against these minimums, and each
    # builder refuses a smaller size on its own
    for family, (least, build) in SIZED_FAMILIES.items():
        for size in (least, least + 1):
            check_graph_invariants(build(size, random.Random(0)))
        with pytest.raises(ValueError):
            build(least - 1, random.Random(0))


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


def test_random_chordal_draws_are_pinned():
    # both chordal builders at 60 and 200 vertices, seeds 0-4: one digest
    # pins the graphs, the other the draw that follows each, so a
    # rewrite that moves an edge or consumes one more number fails here
    pins = {
        random_biconnected_chordal: (
            "57855ccf166529c12e1fb69004ace5bd30927ff5703ca790e80ecc5557617d14",
            "660a8845b51250b48f831d6cba184f9662cc06b9a1de5ed14ae91e397fb3fdb5"),
        random_chordal: (
            "01dcffe796555be74622ee9a87c143ee761b6d1b01233794f2a9b6ee2f8668ff",
            "404a273e5de4a12fe270339200e099edd1efc946c6ad4db900410954668d2bf8"),
    }
    for build, pinned in pins.items():
        graphs, draws = hashlib.sha256(), hashlib.sha256()
        for n in (60, 200):
            for seed in range(5):
                rng = random.Random(seed)
                graphs.update(emit_graph(build(n, rng)))
                draws.update(repr(rng.random()).encode())
        assert (graphs.hexdigest(), draws.hexdigest()) == pinned, build


def test_random_gnp_extremes():
    rng = random.Random(7)
    assert random_gnp(8, 0.0, rng).edge_count() == 0
    assert random_gnp(8, 1.0, rng) == make_clique(8)
