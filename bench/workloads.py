"""Workloads of the p3game benchmark: the instances each one runs, the
pass that runs them, and the checks on every answer.

A workload is a list of tasks.  A pass runs every task once, in order,
from one thread: each task starts only after the previous one returned
(a closed loop with one caller).  Answers are checked after the timed
passes, never inside them.

Inputs come from ``--seed`` alone.  The random graphs (trees and
G(n, p) graphs in the engine workloads, and the small graphs behind the
CLI calls) are drawn once from ``POOL_SEED`` and the run seed relabels
their vertices: search cost varies up to twentyfold between shapes, and
the slowest CLI calls set the p95 latency, so drawing new shapes per
seed would make the times measure the draw, not the program.  The seed
still changes every input graph the engine sees, and with it every
witness.  The samples of the verify sweeps are drawn from the run seed
itself.
"""

from __future__ import annotations

import io
import json
import os
import random
import time

import hostspeed

#: Seed of the fixed pool of random instance shapes (see module docstring).
POOL_SEED = 0
#: The seed whose answers are pinned in pins.json.
PIN_SEED = 0
#: Shortest stretch of tasks timed between two host-speed probes.
GROUP_S = 0.03
#: Every workload ends with CLI_GRAPHS distinct small graphs solved
#: CLI_PASSES times through one cache: the first round misses, the
#: others hit.
CLI_GRAPHS = 100
CLI_PASSES = 3

# Each engine instance is (kind, n, count[, p]).  path/cycle/ladder are
# single fixed graphs; tree/gnp draw ``count`` shapes from the pool.
# ``families`` maps verify family -> max_n.
WORKLOADS = {
    "engine-free": {
        "variant": "free",
        "instances": [("path", 17, 1), ("path", 18, 1), ("tree", 17, 3),
                      ("gnp", 20, 2, 0.15)],
        "families": {},
    },
    "engine-connected": {
        "variant": "connected",
        "instances": [("ladder", 24, 1), ("ladder", 30, 1), ("cycle", 30, 1),
                      ("tree", 24, 6), ("gnp", 24, 4, 0.12)],
        "families": {},
    },
    "sweep": {
        "variant": "both",
        "instances": [],
        "families": {
            "path-free": 16, "path-connected": 26, "cycle-free": 16,
            "cycle-connected": 26, "ladder": 18, "tree": 9,
            "caterpillar": 11, "cograph": 9, "star": 13, "clique": 10,
            "chordal-lemma": 16,
        },
    },
}


# ---------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------
# Tasks call the program through module attributes (p3game.engine.decide,
# p3game.verify.run_family, p3game.cli.main) so that the traced run, which
# replaces those attributes with wrappers, sees every call.

class EngineTask:
    """decide() on one graph; the answer is the verdict as a dict."""

    def __init__(self, name, graph, variant, kind, n):
        self.name, self.graph, self.variant = name, graph, variant
        self.kind, self.n = kind, n

    def run(self, p3, cache_dir):
        return p3.engine.decide(self.graph, self.variant).to_json_dict()


class FamilyTask:
    """One verify sweep; the answer is its instance and mismatch counts."""

    def __init__(self, family, max_n, seed):
        self.name = family
        self.family, self.max_n, self.seed = family, max_n, seed

    def run(self, p3, cache_dir):
        report = p3.verify.run_family(self.family, self.max_n, seed=self.seed)
        return {"instances": report.instances,
                "mismatches": len(report.mismatches)}


class CliTask:
    """One in-process ``p3game solve --cache`` call."""

    def __init__(self, index, round_, path, graph, variant):
        self.name = "cli%03d" % index
        self.index, self.round, self.path = index, round_, path
        self.graph, self.variant = graph, variant

    @property
    def is_miss(self):
        return self.round == 0

    def run(self, p3, cache_dir):
        out, err = io.StringIO(), io.StringIO()
        code = p3.cli.main(["solve", "--graph", self.path,
                            "--variant", self.variant.value,
                            "--cache", cache_dir],
                           stdout=out, stderr=err)
        return {"exit": code, "stdout": out.getvalue()}


# ---------------------------------------------------------------------
# building a workload
# ---------------------------------------------------------------------

def _relabel(p3, g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return p3.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _engine_tasks(p3, spec, seed):
    if not spec["instances"]:
        return []
    variant = p3.Variant(spec["variant"])
    pool = random.Random(POOL_SEED)
    relabel = random.Random("relabel-%d" % seed)
    fixed = {"path": ("P", p3.make_path), "cycle": ("C", p3.make_cycle),
             "ladder": ("L", p3.make_ladder)}
    tasks = []
    for kind, n, count, *p in spec["instances"]:
        if kind in fixed:
            prefix, make = fixed[kind]
            tasks.append(EngineTask("%s%d" % (prefix, n), make(n), variant,
                                    kind, n))
            continue
        for k in range(count):
            if kind == "tree":
                shape = p3.random_tree(n, pool)
            else:
                shape = p3.random_gnp(n, p[0], pool)
            tasks.append(EngineTask("%s%d#%d" % (kind, n, k),
                                    _relabel(p3, shape, relabel), variant,
                                    kind, n))
    return tasks


def _cli_graphs(p3, count, seed):
    """``count`` distinct small graphs, trees and G(n, 0.3) in turn,
    drawn from the pool and relabelled by the seed.  Sizes rotate over
    n = 5..8, small enough that a solve costs mostly CLI overhead."""
    pool = random.Random("cli-%d" % POOL_SEED)
    relabel = random.Random("cli-relabel-%d" % seed)
    shapes, seen = [], set()
    while len(shapes) < count:
        n = 5 + (len(shapes) // 2) % 4
        g = (p3.random_tree(n, pool) if len(shapes) % 2
             else p3.random_gnp(n, 0.3, pool))
        data = p3.emit_graph(g)
        if data not in seen:
            seen.add(data)
            shapes.append(g)
    seen, out = set(), []
    for shape in shapes:
        # isomorphic shapes can relabel alike; draw again until distinct
        # (the shapes are distinct labellings, so a free one exists)
        while True:
            g = _relabel(p3, shape, relabel)
            data = p3.emit_graph(g)
            if data not in seen:
                break
        seen.add(data)
        out.append((g, data))
    return out


def build(p3, spec, seed, graph_dir):
    """Tasks of one workload, in pass order, and the CLI graph files they
    read, as (path, bytes) pairs for the caller to write."""
    tasks = _engine_tasks(p3, spec, seed)
    tasks += [FamilyTask(family, max_n, seed)
              for family, max_n in spec["families"].items()]
    files, graphs = [], []
    for i, (g, data) in enumerate(_cli_graphs(p3, CLI_GRAPHS, seed)):
        path = os.path.join(graph_dir, "g%03d.json" % i)
        files.append((path, data))
        if spec["variant"] == "both":
            # graph kinds alternate too, so pair them off: each kind
            # appears in both variants
            variant = p3.Variant.FREE if i // 2 % 2 == 0 else p3.Variant.CONNECTED
        else:
            variant = p3.Variant(spec["variant"])
        graphs.append((path, g, variant))
    for round_ in range(CLI_PASSES):
        tasks += [CliTask(i, round_, path, g, variant)
                  for i, (path, g, variant) in enumerate(graphs)]
    return tasks, files


def write_files(files):
    for path, data in files:
        with open(path, "wb") as fh:
            fh.write(data)


# ---------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------

def run_pass(p3, tasks, cache_dir):
    """Run every task once.  Returns (answers, starts, seconds, scaled
    seconds), one entry per task; ``starts`` are perf_counter readings
    and an exception becomes an {"error": ...} answer.

    Tasks run in groups of at least GROUP_S seconds, with a host-speed
    probe between groups that rescales the group's times (see
    hostspeed)."""
    clock = time.perf_counter
    n = len(tasks)
    answers, starts = [None] * n, [0.0] * n
    raw, scaled = [0.0] * n, [0.0] * n
    first, before = 0, hostspeed.probe()
    group_start = clock()
    for i, task in enumerate(tasks):
        t0 = starts[i] = clock()
        try:
            answers[i] = task.run(p3, cache_dir)
        except (Exception, SystemExit) as exc:
            answers[i] = {"error": repr(exc)}
        raw[i] = clock() - t0
        if clock() - group_start >= GROUP_S or i == n - 1:
            after = hostspeed.probe()
            factor = hostspeed.factor(before, after)
            for j in range(first, i + 1):
                scaled[j] = raw[j] * factor
            first, before, group_start = i + 1, after, clock()
    return answers, starts, raw, scaled


# ---------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------

FIELDS = ("winner", "grundy", "witness")


def _oracle(p3, task):
    """Fields of the verdict an independent route derives, or {}."""
    F, C = p3.Variant.FREE, p3.Variant.CONNECTED
    kind, n, g, variant = task.kind, task.n, task.graph, task.variant
    if (kind, variant) == ("path", F):
        return {"grundy": p3.free_path_grundy_table(n)[(n, False, False)]}
    if (kind, variant) == ("cycle", C):
        return {"grundy": p3.connected_cycle_grundy(n)}
    if (kind, variant) == ("ladder", C):
        v = p3.ladder_connected_winner(n)
        return {"winner": v.winner.value, "witness": v.witness}
    if (kind, variant) == ("tree", C):
        return {"grundy": p3.tree_connected_grundy(g)}
    if (kind, variant) == ("gnp", F):
        parts = [p3.grundy(p3.start_position(p3.induced_subgraph(g, comp)[0], F))
                 for comp in p3.components(g)]
        return {"grundy": p3.nim_sum(parts)}
    return {}


def witness_errors(p3, graph, variant, verdict):
    """The witness is the lowest-numbered move to a value-0 child."""
    value, witness = verdict.get("grundy"), verdict.get("witness")
    errors = []
    if verdict.get("winner") != ("first" if value else "second"):
        errors.append("winner %r disagrees with value %r"
                      % (verdict.get("winner"), value))
    if not value:
        if witness is not None:
            errors.append("witness %r given for a second-player win" % witness)
        return errors
    start = p3.start_position(graph, variant)
    table = p3.TranspositionTable(graph)
    for x in p3.bits(p3.legal_moves(start)):
        child = p3.grundy(p3.apply_move(start, x), table=table)
        if x == witness:
            if child != 0:
                errors.append("witness %d leads to value %d" % (x, child))
            return errors
        if child == 0:
            errors.append("move %d wins and is below witness %r" % (x, witness))
            return errors
    return errors + ["witness %r is not a legal opening" % (witness,)]


class Checker:
    """Checks answers against pins (at PIN_SEED; seed-free fields at
    every seed), family solvers and witness validity.  Expensive
    derivations are done once per task and reused across passes."""

    def __init__(self, seed, pins):
        self.seed, self.pins = seed, pins
        self._expect = {}
        self._witness = {}

    def errors(self, p3, task, answer):
        """Reasons the answer is wrong; empty when it is right."""
        if answer is None or "error" in answer:
            return ["raised %s" % (answer or {}).get("error")]
        at_pin_seed = self.seed == PIN_SEED
        if isinstance(task, FamilyTask):
            pin = self.pins.get("families", {}).get(task.family)
            errors = []
            if answer["mismatches"]:
                errors.append("%d solver/engine mismatches" % answer["mismatches"])
            if pin is None and at_pin_seed:
                errors.append("no pinned instance count for %s" % task.name)
            elif pin is not None and answer["instances"] != pin:
                errors.append("%d instances, pin says %d" % (answer["instances"], pin))
            return errors
        if isinstance(task, CliTask):
            if answer["exit"] != 0:
                return ["exit code %r" % answer["exit"]]
            try:
                verdict = json.loads(answer["stdout"])
            except ValueError:
                return ["stdout is not JSON: %r" % answer["stdout"][:80]]
            pins = self.pins.get("cli", [])
            pin = pins[task.index] if task.index < len(pins) else None
        else:
            verdict = answer
            pin = self.pins.get("engine", {}).get(task.name)
        if pin is None and at_pin_seed:
            return ["no pinned answer for %s" % task.name]
        return self._verdict_errors(p3, task, verdict, pin, at_pin_seed)

    def _verdict_errors(self, p3, task, verdict, pin, pin_witness):
        if task.name not in self._expect:
            if isinstance(task, CliTask):
                expect = ("decide", p3.decide(task.graph, task.variant).to_json_dict())
            else:
                expect = ("solver", _oracle(p3, task))
            self._expect[task.name] = expect
        source, expect = self._expect[task.name]
        wants = [(source, f, v) for f, v in expect.items()]
        if pin is not None:
            # winner and value do not depend on the vertex labels, so a
            # pin holds at every seed; the witness only at PIN_SEED
            wants += [("pin", f, v) for f, v in zip(FIELDS, pin)
                      if f != "witness" or pin_witness]
        errors = ["%s %r, %s says %r" % (f, verdict.get(f), src, v)
                  for src, f, v in wants if verdict.get(f) != v]
        key = (task.name,) + tuple(verdict.get(f) for f in FIELDS)
        if key not in self._witness:
            self._witness[key] = witness_errors(p3, task.graph,
                                                task.variant, verdict)
        return errors + self._witness[key]


def pins_from_answers(tasks, answers):
    """The pins.json entry of one workload, from the answers of a pass."""
    out = {"engine": {}, "families": {}, "cli": []}
    for task, answer in zip(tasks, answers):
        if isinstance(task, EngineTask):
            out["engine"][task.name] = [answer[f] for f in FIELDS]
        elif isinstance(task, FamilyTask):
            out["families"][task.family] = answer["instances"]
        elif task.is_miss:
            verdict = json.loads(answer["stdout"])
            out["cli"].append([verdict[f] for f in FIELDS])
    return {k: v for k, v in out.items() if v}
