"""Verification sweeps: family solvers checked against the exhaustive
engine on every instance small enough to afford.

Every family is one line of the FAMILIES table, a Family of plain
data: the SIZED_FAMILIES entry that builds its graphs, the variant, the
call that makes the solver's claim (the value after each opening, by
vertex) from the graph alone, and how its instances are chosen.  Its
smallest size is the one SIZED_FAMILIES gives and `gen` checks, and a
smaller max_n gets the same error in every family.  An instance is a
(descriptor, graph) pair; a per-size descriptor is {"n": size}, the
size `gen --n` takes.  run_family makes each claim, runs one engine
search (opening_values) per instance, and returns a VerifyReport
listing any disagreement; an instance whose solver or engine raises is
a disagreement too.  A claim must equal the engine's list value for
value, so a wrong winner, value or witness is a disagreement, and so is
a wrong value above the mex that leaves the verdict right.  Reports are
deterministic for a given seed: instances are generated by a seeded RNG
and compared in instance order.  Elapsed time is kept out of the JSON
projection so identical runs stay byte-identical; it appears only in the
human-readable table.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple

from . import solvers
from .closure import Variant
from .engine import (DEFAULT_BUDGET, ResourceLimitError, TranspositionTable,
                     opening_values)
from .graphs import SIZED_FAMILIES, Graph

FREE, CONNECTED = Variant.FREE, Variant.CONNECTED


class VerifyReport:
    """One family's sweep: how many instances it checked, the
    disagreements, and the seconds it took."""

    __slots__ = ("family", "instances", "mismatches", "elapsed")

    def __init__(self, family: str, instances: int, mismatches: list,
                 elapsed: float):
        self.family = family
        self.instances = instances
        self.mismatches = mismatches
        self.elapsed = elapsed

    def __repr__(self):
        return ("VerifyReport(family=%r, instances=%r, mismatches=%r, "
                "elapsed=%r)" % (self.family, self.instances,
                                 self.mismatches, self.elapsed))

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

class Family(namedtuple("Family", "sized variant claim samples classes",
                        defaults=(0, 0))):
    """One sweep, declared as data.  ``sized`` names its graphs in
    SIZED_FAMILIES, which gives their smallest size and builder;
    ``variant`` is the game the engine plays on them; ``claim(graph)``
    calls the solver.  ``samples`` counts the random graphs of the
    sweep, each of a size drawn from the smallest to max_n; 0 means one
    instance per size instead, described by ``{"n": size}``.
    ``classes`` is a vertex limit: the sweep opens with every
    isomorphism class of trees up to it (and up to max_n)."""

    __slots__ = ()

    def instances(self, max_n: int, rng: random.Random):
        """(descriptor, graph) in sweep order."""
        least, build = SIZED_FAMILIES[self.sized]
        for n, idx, t in enumerate_trees(min(max_n, self.classes)):
            yield {"class": [n, idx]}, t
        if not self.samples:
            for n in range(least, max_n + 1):
                yield {"n": n}, build(n, rng)
        for k in range(self.samples):
            n = rng.randint(least, max_n)
            g = build(n, rng)
            yield {"sample": k, "n": n, "edges": g.edges()}, g


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


# A family's claim is claim(graph).  Each claim names its
# solver as solvers.<name> inside its body, so the solver is looked up
# when the claim is made and a patched solver is the one checked.

def _block(g):
    return solvers.connected_block_values(g)


def _free(g):
    return solvers.component_free_values(g)


FAMILIES = {
    "path-free": Family("path", FREE, _free),
    "path-connected": Family("path", CONNECTED, _block),
    "cycle-free": Family("cycle", FREE, _free),
    "cycle-connected": Family(
        "cycle", CONNECTED, lambda g: solvers.connected_cycle_values(g.n)),
    "ladder": Family(
        "ladder", CONNECTED,
        lambda g: solvers.ladder_connected_values(g.n // 2)),
    # every isomorphism class up to 9 vertices, then 200 random trees
    "tree": Family("tree", CONNECTED, _block, samples=200, classes=9),
    "caterpillar": Family("caterpillar", CONNECTED, _block, samples=200),
    "cograph": Family("cograph", FREE, _free, samples=200),
    "star": Family("star", FREE, _free),
    "clique": Family("clique", FREE, _free),
    # On a chordal graph with no cut vertex, the hull of any two vertices
    # at distance <= 2 is the whole vertex set: the lemma that makes the
    # block solver exact on one chordal block.
    "chordal-lemma": Family("chordal", CONNECTED, _block, samples=100),
    # chordal graphs with cut vertices, whose blocks the lemma closes
    "chordal-connected": Family("glued-chordal", CONNECTED, _block,
                                samples=200),
}


def run_family(family: str, max_n: int, seed: int = 0,
               budget: int = DEFAULT_BUDGET) -> VerifyReport:
    """Check one family's solver against the engine on its instances up
    to size max_n, drawing samples from random.Random(seed), each
    searched in a new table of ``budget`` entries.

    An unknown family or a max_n below the family's smallest size in
    SIZED_FAMILIES raises ValueError before any instance is built; a
    budget below 1 raises it at the first instance, before any
    comparison.  An instance whose solver or engine raises anything but
    ResourceLimitError is a mismatch whose solver side is the error."""
    if family not in FAMILIES:
        raise ValueError("unknown family %r (choose from %s)"
                         % (family, ", ".join(sorted(FAMILIES))))
    fam = FAMILIES[family]
    least = SIZED_FAMILIES[fam.sized][0]
    if max_n < least:
        raise ValueError("--family %s needs --max-n >= %d" % (family, least))
    start = time.monotonic()
    count = 0
    mismatches = []
    for descriptor, g in fam.instances(max_n, random.Random(seed)):
        count += 1
        table = TranspositionTable(g, budget)
        try:
            solver_val = fam.claim(g)
            oracle_val = opening_values(g, fam.variant, table)
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
