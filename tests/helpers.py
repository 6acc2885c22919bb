"""Shared test utilities: conversion to/from networkx and enumeration of
small graphs (one representative per isomorphism class)."""

from functools import lru_cache

import networkx as nx

from p3game import Graph


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
