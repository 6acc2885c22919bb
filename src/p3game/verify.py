"""Verification sweeps: family solvers checked against the exhaustive
engine on every instance small enough to afford.

Every family is one entry of the FAMILIES table: its smallest size, the
error for a smaller one, and its instances, each paired with the call
that makes the solver's claim: the value after each opening, by vertex.
run_family makes each claim, runs one engine search (opening_values) per
instance, and returns a VerifyReport listing any disagreement; an
instance whose solver or engine raises is a disagreement too.  A claim
must equal the engine's list value for value, so a wrong winner, value
or witness is a disagreement, and so is a wrong value above the mex
that leaves the verdict right.  Reports are
deterministic for a given seed: instances are generated by a seeded RNG
and compared in instance order.  Elapsed time is kept out of the JSON
projection so identical runs stay byte-identical; it appears only in the
human-readable table.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

from . import solvers
from .closure import Variant
from .engine import ResourceLimitError, opening_values
from .graphs import SIZED_FAMILIES, Graph

FREE, CONNECTED = Variant.FREE, Variant.CONNECTED


@dataclass
class VerifyReport:
    family: str
    instances: int
    mismatches: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_json_dict(self) -> dict:
        return {"family": self.family,
                "instances": self.instances,
                "mismatches": self.mismatches,
                "passed": self.passed}

    def human_table(self) -> str:
        width = max(map(len, FAMILIES))
        header = "%-*s %10s %11s %7s %9s" % (
            width, "family", "instances", "mismatches", "result", "elapsed")
        row = "%-*s %10d %11d %7s %8.2fs" % (
            width, self.family, self.instances, len(self.mismatches),
            "PASS" if self.passed else "FAIL", self.elapsed)
        return header + "\n" + row


# ---------------------------------------------------------------------
# the families
# ---------------------------------------------------------------------

class Family(NamedTuple):
    """One sweep.  ``instances(least, max_n, rng)`` yields (descriptor,
    graph, variant, claim) in sweep order, where ``claim()`` calls the
    solver; ``too_small`` is the error, formatted with ``least``, for a
    max_n below the smallest size ``least``."""

    least: int
    too_small: str
    instances: Callable


def _each_size(family, too_small, variant, claim, key="n"):
    """A sweep with one instance per size of a sized family, claimed by
    claim(size, graph)."""
    smallest, build = SIZED_FAMILIES[family]

    def instances(least, max_n, rng):
        for n in range(least, max_n + 1):
            g = build(n, rng)
            yield {key: n}, g, variant, partial(claim, n, g)
    return Family(smallest, too_small, instances)


def _samples(family, too_small, count, variant, claim):
    """A sweep over ``count`` random graphs of a sized family, each of a
    size drawn from least..max_n and claimed by claim(size, graph)."""
    smallest, build = SIZED_FAMILIES[family]

    def instances(least, max_n, rng):
        for k in range(count):
            n = rng.randint(least, max_n)
            g = build(n, rng)
            yield ({"sample": k, "n": n, "edges": g.edges()}, g, variant,
                   partial(claim, n, g))
    return Family(smallest, too_small, instances)


def _next_rooted(levels):
    """Beyer–Hedetniemi successor: the rooted tree after ``levels`` in
    decreasing order of level sequences, or None after the star.  A
    level sequence lists each vertex's depth in preorder."""
    p = len(levels) - 1
    while levels[p] == 1:
        p -= 1
    if p == 0:
        return None
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    out = levels[:p]
    for i in range(p, len(levels)):
        out.append(out[i - p + q])
    return out


def _first_subtree(levels):
    """(first subtree of the root, the rest of the tree), each as a
    level sequence rooted at depth 0."""
    m = levels.index(1, 2) if 1 in levels[2:] else len(levels)
    return [d - 1 for d in levels[1:m]], [0] + levels[m:]


def _free_tree_levels(n: int):
    """Level sequences of the free trees with n >= 2 vertices, one per
    isomorphism class, in the order of Wright, Richmond, Odlyzko & McKay
    1986, "Constant time generation of free trees": the rooted trees
    from the path rooted at its centre down to the star whose root's
    first subtree has (height, size, level sequence) at most that of the
    rest of the tree.  Their generator jumps over the others; this one
    filters them out."""
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while levels is not None:
        left, rest = _first_subtree(levels)
        if (max(left), len(left), left) <= (max(rest), len(rest), rest):
            yield levels
        levels = _next_rooted(levels)


def enumerate_trees(max_n: int):
    """All isomorphism classes of trees with 1..max_n vertices, as
    (n, index, Graph) in a fixed order; vertex i of a class is its i-th
    vertex in preorder from a centre.  There are 1, 1, 1, 2, 3, 6, 11,
    23 and 47 classes of 1 to 9 vertices."""
    out = []
    if max_n >= 1:
        out.append((1, 0, Graph(1, [])))
    for n in range(2, max_n + 1):
        for idx, levels in enumerate(_free_tree_levels(n)):
            last = [0] * n  # last[d]: the latest vertex at depth d
            edges = []
            for v, d in enumerate(levels):
                if d:
                    edges.append((last[d - 1], v))
                last[d] = v
            out.append((n, idx, Graph(n, edges)))
    return out


# A family's claim is claim(size, graph).  Each claim names its
# solver as solvers.<name> inside its body, so the solver is looked up
# when the claim is made and a patched solver is the one checked.

def _block(n, g):
    return solvers.connected_block_values(g)


def _free(n, g):
    return solvers.component_free_values(g)


_TREES = _samples("tree", "trees need at least %d vertex", 200, CONNECTED,
                  _block)

FAMILIES = {
    "path-free": _each_size("path", "paths need at least %d vertex", FREE,
                            _free),
    "path-connected": _each_size("path", "paths need at least %d vertex",
                                 CONNECTED, _block),
    "cycle-free": _each_size("cycle", "cycles need at least %d vertices",
                             FREE, _free),
    "cycle-connected": _each_size(
        "cycle", "cycles need at least %d vertices", CONNECTED,
        lambda n, g: solvers.connected_cycle_values(n)),
    "ladder": _each_size("ladder", "ladders need at least %d rung",
                         CONNECTED,
                         lambda n, g: solvers.ladder_connected_values(n)),
    # every isomorphism class up to 9 vertices, then 200 random trees
    "tree": _TREES._replace(
        instances=lambda least, max_n, rng: itertools.chain(
            (({"class": [n, idx]}, t, CONNECTED, partial(_block, n, t))
             for n, idx, t in enumerate_trees(min(max_n, 9))),
            _TREES.instances(least, max_n, rng))),
    "caterpillar": _samples("caterpillar",
                            "caterpillars need at least %d vertex", 200,
                            CONNECTED, _block),
    "cograph": _samples("cograph", "cographs need at least %d vertex", 200,
                        FREE, _free),
    "star": _each_size("star", "stars need at least %d leaves", FREE,
                       _free, key="t"),
    "clique": _each_size("clique", "cliques need at least %d vertex", FREE,
                         _free),
    # On a chordal graph with no cut vertex, the hull of any two vertices
    # at distance <= 2 is the whole vertex set: the lemma that makes the
    # block solver exact on one chordal block.
    "chordal-lemma": _samples(
        "chordal", "biconnected chordal graphs need at least %d vertices",
        100, CONNECTED, _block),
    # chordal graphs with cut vertices, whose blocks the lemma closes
    "chordal-connected": _samples(
        "glued-chordal", "chordal graphs need at least %d vertex", 200,
        CONNECTED, _block),
}


def run_family(family: str, max_n: int, seed: int = 0, budget=None) -> VerifyReport:
    """Check one family's solver against the engine on its instances up
    to size max_n, drawing samples from random.Random(seed).

    An unknown family or a max_n below the family's smallest size raises
    ValueError.  An instance whose solver or engine raises anything but
    ResourceLimitError is a mismatch whose solver side is the error."""
    if family not in FAMILIES:
        raise ValueError("unknown family %r (choose from %s)"
                         % (family, ", ".join(sorted(FAMILIES))))
    least, too_small, instances = FAMILIES[family]
    if max_n < least:
        raise ValueError(too_small % least)
    start = time.monotonic()
    count = 0
    mismatches = []
    for descriptor, g, variant, claim in instances(least, max_n,
                                                   random.Random(seed)):
        count += 1
        try:
            solver_val = claim()
            oracle_val = opening_values(g, variant, budget=budget)
        except ResourceLimitError:
            raise
        except Exception as exc:
            solver_val = {"error": "%s: %s" % (type(exc).__name__, exc)}
            oracle_val = None
        if solver_val != oracle_val:
            mismatches.append({"instance": descriptor,
                               "solver": solver_val,
                               "oracle": oracle_val})
    return VerifyReport(family, count, mismatches, time.monotonic() - start)
