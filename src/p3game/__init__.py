"""p3game: solvers for the P3-convexity labelling game on graphs.

Two players alternately label vertices of a graph; after each move the
labeled set is replaced by its P3-hull (any vertex with two labeled
neighbors is absorbed, repeatedly).  Under normal play, whoever cannot
move loses.  The package covers two rule sets: the free game, where any
unlabeled vertex may be chosen, and the connected game, where after the
first move every chosen vertex must be within distance two of the
labeled set.

Layout:

* :mod:`p3game.graphs` builds and serializes graphs (paths, cycles,
  stars, cliques, ladders, caterpillars, plus seeded random families).
* :mod:`p3game.closure` computes P3-hulls (a set is closed exactly
  when it is its own hull) and enumerates legal moves for both
  variants.
* :mod:`p3game.engine` is the exhaustive Sprague-Grundy engine: exact
  values by memoized search, the ground truth everything else is
  checked against.
* :mod:`p3game.solvers` holds two structural solvers, one
  block-cut-tree recurrence for the connected game (paths, trees,
  caterpillars and chordal graphs) and one for the free game that sums
  its components: paths and cycles as heaps of the octal game Officers,
  every other component by the join rule (cographs, stars, cliques and
  wheels among them).  Closed forms cover the connected game on cycles
  and ladders.
* :mod:`p3game.verify` sweeps each solver against the engine.
* :mod:`p3game.cli` is the command-line harness (solve, verify, gen,
  play).

Quick start::

    from p3game import make_path, start_position, Variant, grundy
    grundy(start_position(make_path(7), Variant.CONNECTED))
"""

from .graphs import (Graph, GraphFormatError, bits, components, emit_graph,
                     graph_digest, induced_subgraph, is_tree,
                     make_caterpillar, make_clique, make_cycle, make_ladder,
                     make_path, make_star, mask_of, parse_graph,
                     random_biconnected_chordal, random_caterpillar,
                     random_chordal, random_cograph, random_gnp, random_tree)
from .closure import (IllegalMoveError, Position, Variant, apply_move, hull,
                      legal_moves, start_position)
from .engine import (DEFAULT_BUDGET, Player, ResourceLimitError,
                     TranspositionTable, Verdict, best_move, decide,
                     grundy, mex, nim_sum)
from .solvers import (block_connected_winner, component_free_values,
                      component_free_winner, connected_block_values,
                      connected_cycle_grundy, connected_cycle_winner,
                      free_path_grundy_table, ladder_connected_winner,
                      tree_connected_grundy)
from .verify import FAMILIES, VerifyReport, run_family

__version__ = "0.1.0"

__all__ = [
    # graphs
    "Graph", "GraphFormatError",
    "bits", "mask_of", "components", "induced_subgraph", "is_tree",
    "make_path", "make_cycle", "make_star", "make_clique", "make_ladder",
    "make_caterpillar",
    "parse_graph", "emit_graph", "graph_digest",
    "random_tree", "random_caterpillar", "random_cograph",
    "random_biconnected_chordal", "random_chordal", "random_gnp",
    # closure
    "Variant", "Position", "IllegalMoveError",
    "hull", "legal_moves", "apply_move",
    "start_position",
    # engine
    "Player", "Verdict", "TranspositionTable", "ResourceLimitError",
    "DEFAULT_BUDGET", "mex", "nim_sum", "grundy", "decide", "best_move",
    # solvers
    "connected_cycle_winner", "connected_cycle_grundy",
    "free_path_grundy_table", "ladder_connected_winner",
    "connected_block_values", "block_connected_winner",
    "tree_connected_grundy",
    "component_free_values", "component_free_winner",
    # verify
    "VerifyReport", "FAMILIES", "run_family",
]
