"""Shared test utilities: conversion to/from networkx, enumeration of
small graphs (one representative per isomorphism class), disjoint
unions and their opening values, the graph invariant check run on
every generator output, and the value-semantics check of the immutable
records."""

import copy
import itertools
import pickle
from functools import lru_cache

import networkx as nx
import pytest

from p3game import Graph, Variant, bits, mask_of, mex, nim_sum


def nx_to_graph(g) -> Graph:
    nodes = sorted(g.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    return Graph(len(nodes), [(index[u], index[v]) for u, v in g.edges()])


def graph_to_nx(g: Graph):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


@lru_cache(maxsize=None)
def atlas_graphs(max_n: int) -> tuple:
    """All graphs with 1..max_n vertices (max_n <= 7), connected or not,
    one per isomorphism class."""
    assert max_n <= 7, "the atlas stops at seven vertices"
    return tuple(nx_to_graph(g) for g in nx.graph_atlas_g()
                 if 1 <= g.number_of_nodes() <= max_n)


@lru_cache(maxsize=None)
def connected_atlas_graphs(max_n: int) -> tuple:
    """All connected graphs with 1..max_n vertices (max_n <= 7), one per
    isomorphism class."""
    assert max_n <= 7, "the atlas stops at seven vertices"
    out = []
    for g in nx.graph_atlas_g():
        if 1 <= g.number_of_nodes() <= max_n and nx.is_connected(g):
            out.append(nx_to_graph(g))
    return tuple(out)


def disjoint_union(parts) -> Graph:
    """The graphs of ``parts`` side by side, each one's vertices
    numbered after those of the graphs before it."""
    offset, edges = 0, []
    for p in parts:
        edges.extend((u + offset, v + offset) for u, v in p.edges())
        offset += p.n
    return Graph(offset, edges)


def union_openings(lists, variant: Variant) -> list:
    """The value after each opening of ``disjoint_union`` of some parts,
    by vertex, from ``lists``, each part's own.  In the connected game
    play stays in the opened part, so the lists are concatenated; in the
    free game every other part adds its value (the mex of its list) by
    nim-sum."""
    if variant is Variant.CONNECTED:
        return [v for values in lists for v in values]
    total = nim_sum(mex(values) for values in lists)
    return [v ^ total ^ mex(values) for values in lists for v in values]


def has_induced_p4(g: Graph) -> bool:
    """Whether some four vertices of g induce a path: among four
    vertices, degrees 1, 1, 2, 2 inside the four mean exactly P_4."""
    for quad in itertools.combinations(range(g.n), 4):
        inside = mask_of(quad)
        if sorted((g.adj[v] & inside).bit_count() for v in quad) == \
                [1, 1, 2, 2]:
            return True
    return False


def check_graph_invariants(g: Graph) -> None:
    """Re-derive the simple/symmetric/in-range invariants from the
    adjacency rows.  Raises AssertionError on violation."""
    assert len(g.adj) == g.n
    full = g.full_mask
    for v in range(g.n):
        row = g.adj[v]
        assert row & ~full == 0, "neighbor id out of range at vertex %d" % v
        assert not (row >> v) & 1, "self-loop at vertex %d" % v
        for w in bits(row):
            assert (g.adj[w] >> v) & 1, "asymmetric edge (%d, %d)" % (v, w)


def check_immutable_value(value, twin, others, names) -> None:
    """Assert that ``value`` behaves as an immutable value with fields
    ``names``, in positional order: it equals ``twin`` (a separate
    object built from the same fields) with the same hash, differs from
    each of ``others`` and from the tuple of its own fields, refuses to
    set or delete any field or a new attribute, and comes back equal
    from pickle, copy and deepcopy."""
    assert type(value).__match_args__ == names
    fields = tuple(getattr(value, name) for name in names)
    assert value is not twin and value == twin and not value != twin
    assert hash(value) == hash(twin)
    assert value != fields and fields != value
    for other in others:
        assert value != other and not value == other
    for name in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in names) == fields
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                   copy.deepcopy(value)):
        assert type(copied) is type(value) and copied == value
