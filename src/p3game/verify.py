"""Verification sweeps: family solvers checked against the exhaustive
engine on every instance small enough to afford.

Each sweep returns a VerifyReport listing any disagreement.  Reports are
deterministic for a given seed: instances are generated by a seeded RNG
and compared in instance order.  Elapsed time is kept out of the JSON
projection so identical runs stay byte-identical; it appears only in the
human-readable table.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from . import graphs, solvers
from .closure import (IllegalMoveError, Variant, apply_move, hull,
                      start_position)
from .engine import decide, grundy
from .graphs import (Graph, bits, make_caterpillar, make_clique, make_cograph,
                     make_cycle, make_ladder, make_path, make_star)


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
        header = "%-16s %10s %11s %7s %9s" % (
            "family", "instances", "mismatches", "result", "elapsed")
        row = "%-16s %10d %11d %7s %8.2fs" % (
            self.family, self.instances, len(self.mismatches),
            "PASS" if self.passed else "FAIL", self.elapsed)
        return header + "\n" + row


def _report(family, rows, budget=None):
    """Collect mismatch dicts from an iterable of (descriptor, solver,
    oracle) triples where None on either side means 'not derived'."""
    start = time.monotonic()
    count = 0
    mismatches = []
    for descriptor, solver_val, oracle_val in rows:
        count += 1
        if solver_val != oracle_val:
            mismatches.append({"instance": descriptor,
                               "solver": solver_val,
                               "oracle": oracle_val})
    return VerifyReport(family, count, mismatches, time.monotonic() - start)


def _verdict_fields(v):
    """Comparable projection of a Verdict: winner always, value when the
    solver derived one."""
    return {"winner": v.winner.value, "grundy": v.grundy}


def _witness_child_value(g, variant, witness, budget):
    """The engine's value of the position the witness opening leads to,
    or "illegal" when the witness is not a legal opening."""
    try:
        child = apply_move(start_position(g, variant), witness)
    except IllegalMoveError:
        return "illegal"
    return grundy(child, budget=budget)


def _verdict_row(solver_v, g, variant, budget):
    """(solver, oracle) projections of a solver's Verdict and the
    engine's.  The claim is the winner alone when the solver derives no
    value, else winner and value.  A witness is a claim too: the engine
    must value the child it leads to at 0; when it does not, both sides
    carry the witness and that child value."""
    oracle_v = decide(g, variant, budget=budget)
    sv, ov = _verdict_fields(solver_v), _verdict_fields(oracle_v)
    if sv["grundy"] is None:
        # formula-level solver: winner is its whole claim
        sv, ov = sv["winner"], ov["winner"]
    witness = solver_v.witness
    if witness is not None:
        child = _witness_child_value(g, variant, witness, budget)
        if child != 0:
            sv = {"verdict": sv, "witness": witness, "child": 0}
            ov = {"verdict": ov, "witness": witness, "child": child}
    return sv, ov


# ---------------------------------------------------------------------
# individual families
# ---------------------------------------------------------------------

def verify_path_free(max_n: int, seed: int = 0, budget=None) -> VerifyReport:
    if max_n < 1:
        raise ValueError("paths need at least 1 vertex")
    table = solvers.free_path_grundy_table(max_n)

    def rows():
        for n in range(1, max_n + 1):
            solver_val = table[(n, False, False)]
            oracle_val = grundy(start_position(make_path(n), Variant.FREE),
                                budget=budget)
            yield {"n": n}, solver_val, oracle_val

    return _report("path-free", rows())


def verify_path_connected(max_n: int, seed: int = 0, budget=None) -> VerifyReport:
    if max_n < 1:
        raise ValueError("paths need at least 1 vertex")

    def rows():
        for n in range(1, max_n + 1):
            solver_val = solvers.connected_path_grundy(n)
            oracle_val = grundy(start_position(make_path(n), Variant.CONNECTED),
                                budget=budget)
            yield {"n": n}, solver_val, oracle_val

    return _report("path-connected", rows())


def verify_cycle_free(max_n: int, seed: int = 0, budget=None) -> VerifyReport:
    if max_n < 3:
        raise ValueError("cycles need at least 3 vertices")

    def rows():
        for n in range(3, max_n + 1):
            sv, ov = _verdict_row(solvers.free_cycle_winner(n),
                                  make_cycle(n), Variant.FREE, budget)
            yield {"n": n}, sv, ov

    return _report("cycle-free", rows())


def verify_cycle_connected(max_n: int, seed: int = 0, budget=None) -> VerifyReport:
    if max_n < 3:
        raise ValueError("cycles need at least 3 vertices")

    def rows():
        for n in range(3, max_n + 1):
            solver_val = solvers.connected_cycle_grundy(n)
            oracle_val = grundy(start_position(make_cycle(n), Variant.CONNECTED),
                                budget=budget)
            yield {"n": n}, solver_val, oracle_val

    return _report("cycle-connected", rows())


def verify_ladder(max_n: int, seed: int = 0, budget=None) -> VerifyReport:
    if max_n < 1:
        raise ValueError("ladders need at least 1 rung")

    def rows():
        for n in range(1, max_n + 1):
            sv, ov = _verdict_row(solvers.ladder_connected_winner(n),
                                  make_ladder(n), Variant.CONNECTED,
                                  budget)
            yield {"n": n}, sv, ov

    return _report("ladder", rows())


def verify_star(max_n: int, seed: int = 0, budget=None) -> VerifyReport:
    if max_n < 0:
        raise ValueError("stars need at least 0 leaves")

    def rows():
        for t in range(0, max_n + 1):
            sv, ov = _verdict_row(solvers.star_free_winner(t),
                                  make_star(t), Variant.FREE, budget)
            yield {"t": t}, sv, ov

    return _report("star", rows())


def verify_clique(max_n: int, seed: int = 0, budget=None) -> VerifyReport:
    if max_n < 1:
        raise ValueError("cliques need at least 1 vertex")

    def rows():
        for n in range(1, max_n + 1):
            sv, ov = _verdict_row(solvers.clique_free_winner(n),
                                  make_clique(n), Variant.FREE, budget)
            yield {"n": n}, sv, ov

    return _report("clique", rows())


def enumerate_trees(max_n: int):
    """All isomorphism classes of trees with 1..max_n vertices, as Graphs
    (canonical representatives; requires max_n <= 9 at reasonable cost)."""
    import networkx as nx

    out = []
    if max_n >= 1:
        out.append((1, 0, Graph(1, [])))
    for n in range(2, max_n + 1):
        for idx, t in enumerate(nx.nonisomorphic_trees(n)):
            out.append((n, idx, Graph(n, list(t.edges()))))
    return out


def verify_tree(max_n: int, seed: int = 0, samples: int = 200,
                budget=None) -> VerifyReport:
    rng = random.Random(seed)
    if max_n < 1:
        raise ValueError("trees need at least 1 vertex")

    def rows():
        for n, idx, tree in enumerate_trees(min(max_n, 9)):
            solver_val = solvers.tree_connected_grundy(tree)
            oracle_val = grundy(start_position(tree, Variant.CONNECTED),
                                budget=budget)
            yield {"class": [n, idx]}, solver_val, oracle_val
        for k in range(samples):
            n = rng.randint(1, max_n)
            tree = graphs.random_tree(n, rng)
            solver_val = solvers.tree_connected_grundy(tree)
            oracle_val = grundy(start_position(tree, Variant.CONNECTED),
                                budget=budget)
            yield {"sample": k, "n": n}, solver_val, oracle_val

    return _report("tree", rows())


def verify_caterpillar(max_n: int, seed: int = 0, samples: int = 200,
                       budget=None) -> VerifyReport:
    rng = random.Random(seed)

    def rows():
        for k in range(samples):
            spec = graphs.random_caterpillar_spec(max_n, rng)
            sv, ov = _verdict_row(solvers.caterpillar_connected_winner(spec),
                                  make_caterpillar(spec), Variant.CONNECTED,
                                  budget)
            yield {"sample": k, "backbone": spec.backbone,
                   "feet": list(spec.feet)}, sv, ov

    return _report("caterpillar", rows())


def verify_cograph(max_n: int, seed: int = 0, samples: int = 200,
                   budget=None) -> VerifyReport:
    rng = random.Random(seed)

    def rows():
        for k in range(samples):
            cotree = graphs.random_cotree(max_n, rng)
            sv, ov = _verdict_row(solvers.cograph_free_winner(cotree),
                                  make_cograph(cotree), Variant.FREE, budget)
            yield {"sample": k,
                   "leaves": len(graphs.cotree_leaves(cotree))}, sv, ov

    return _report("cograph", rows())


def verify_chordal_lemma(max_n: int, seed: int = 0, samples: int = 100,
                         budget=None) -> VerifyReport:
    """On a chordal graph with no cut vertex, the hull of any two
    vertices at distance <= 2 is the whole vertex set.  Checked for
    every qualifying pair of every sampled graph."""
    rng = random.Random(seed)
    if max_n < 3:
        raise ValueError("biconnected chordal graphs need at least 3 vertices")

    def rows():
        for k in range(samples):
            n = rng.randint(3, max_n)
            g = graphs.random_biconnected_chordal(n, rng)
            bad = []
            for x in range(g.n):
                near = g.adj[x] | g.neighborhood_of_set(g.adj[x])
                for y in bits(near):
                    if y <= x:
                        continue
                    if hull(g, (1 << x) | (1 << y)) != g.full_mask:
                        bad.append([x, y])
            yield {"sample": k, "n": n, "edges": g.edges()}, bad, []

    return _report("chordal-lemma", rows())


FAMILIES = {
    "path-free": verify_path_free,
    "path-connected": verify_path_connected,
    "cycle-free": verify_cycle_free,
    "cycle-connected": verify_cycle_connected,
    "ladder": verify_ladder,
    "tree": verify_tree,
    "caterpillar": verify_caterpillar,
    "cograph": verify_cograph,
    "star": verify_star,
    "clique": verify_clique,
    "chordal-lemma": verify_chordal_lemma,
}


def run_family(family: str, max_n: int, seed: int = 0, budget=None) -> VerifyReport:
    if family not in FAMILIES:
        raise ValueError("unknown family %r (choose from %s)"
                         % (family, ", ".join(sorted(FAMILIES))))
    return FAMILIES[family](max_n, seed=seed, budget=budget)
