"""p3game benchmark: seeded workloads driven through the public API from
one process and one thread, with every answer checked.

    python3 bench/run.py --workload engine-free --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run sets the workload up several times, then runs
passes over its tasks until ``--seconds`` have gone by, and reports the
end-to-end metrics.  With ``--trace 1`` it runs one plain pass and one
traced pass, replays recorded hull and legal-move inputs, times the
tier-1 test suite, and reports the per-layer metrics; the spans go to
``bench/traces/<workload>.spans``.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.

The program is imported from ``src/`` next to this directory; nothing
needs installing.  Scratch files (graph files, CLI caches, pytest's
temporary directories) live under ``bench/.tmp`` and are removed at
exit.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import inspect
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 5
COST_REPEATS = 9
TIER1_TIMEOUT_S = 150
#: Directory p3game's bytecode is written to and read from (see
#: load_p3game); main points it into the run's scratch directory.
pycache = None

FAMILIES = ("path-free", "path-connected", "cycle-free", "cycle-connected",
            "ladder", "tree", "caterpillar", "cograph", "star", "clique",
            "chordal-lemma")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "cli_solve_ms_p50": "ms",
    "cli_solve_ms_p95": "ms",
}

PER_LAYER = {
    "closure.hull.calls": "count",
    "closure.hull.self_s": "s",
    "closure.hull.us_per_call": "us",
    "closure.hull.absorbed_per_call": "vertices",
    "closure.legal_moves.calls": "count",
    "closure.legal_moves.self_s": "s",
    "closure.legal_moves.us_per_call": "us",
    "engine.positions_stored": "count",
    "engine.memo_lookups": "count",
    "engine.memo_hit_ratio": "ratio",
    "engine.distinct_child_ratio": "ratio",
    "engine.table.self_s": "s",
    "engine.self_s": "s",
    "engine.us_per_position": "us",
    "graphs.build_s": "s",
    "solvers.calls": "count",
    "solvers.self_s": "s",
    **{"verify.%s.s" % f: "s" for f in FAMILIES},
    "verify.engine_s": "s",
    "verify.self_s": "s",
    "cli.self_s": "s",
    "cli.cache.load_ms": "ms",
    "cli.cache.hit_ratio": "ratio",
    "cli.solve.miss_ms_p50": "ms",
    "cli.solve.hit_ms_p50": "ms",
    "cli.solve.samples": "count",
    "tests.tier1_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.span_cost_us": "us",
    "trace.residual_s": "s",
    "trace.host_speed": "ratio",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
    "trace.absent_wrappers": "count",
}


def load_p3game():
    """Import p3game afresh, dropping any earlier import of it.

    With ``pycache`` set, bytecode is read from and written to that
    directory only, so the import time does not depend on whether
    ``src/`` holds a ``__pycache__`` (or a stale one) from an earlier
    test run.  Without it nothing is written and ``src/`` is read as is.
    """
    for name in [m for m in sys.modules
                 if m == "p3game" or m.startswith("p3game.")]:
        del sys.modules[name]
    saved = sys.pycache_prefix, sys.dont_write_bytecode
    if pycache is not None:
        sys.pycache_prefix, sys.dont_write_bytecode = pycache, False
    try:
        p3 = importlib.import_module("p3game")
        importlib.import_module("p3game.cli")
    finally:
        sys.pycache_prefix, sys.dont_write_bytecode = saved
    return p3


def set_up(spec, seed, tmp):
    """Import the program and build the workload SETUP_REPS times.
    Returns the last build and the scaled seconds (see hostspeed) each
    set-up and each build took.  An untimed import first compiles the
    program into ``pycache`` and loads the modules it needs from
    elsewhere, so every timed import loads p3game's own bytecode.

    Writing the CLI graph files to disk is left out of the timing: on a
    shared disk it took 2 to 33 ms for the same 100 small files, more
    than the rest of the set-up, and the program has no part in it."""
    totals, builds = [], []
    load_p3game()
    for _ in range(SETUP_REPS):
        graph_dir = tempfile.mkdtemp(prefix="graphs", dir=tmp)
        before = hostspeed.probe()
        t0 = time.perf_counter()
        p3 = load_p3game()
        t1 = time.perf_counter()
        tasks, files = workloads.build(p3, spec, seed, graph_dir)
        t2 = time.perf_counter()
        factor = hostspeed.factor(before, hostspeed.probe())
        totals.append((t2 - t0) * factor)
        builds.append((t2 - t1) * factor)
        workloads.write_files(files)
    gc.collect()
    return p3, tasks, totals, builds


def install_tracer(p3):
    """Wrap the calls between p3game's layers (see README.md)."""
    tracer = spans.Tracer()
    engine, verify, cli = p3.engine, p3.verify, p3.cli
    tracer.wrap(engine, "hull", "closure.hull", sample=True)
    tracer.wrap(engine, "legal_moves_raw", "closure.legal_moves", sample=True)
    table = getattr(engine, "TranspositionTable", None)
    if table is not None:
        tracer.wrap(table, "lookup", "engine.table.lookup",
                    hit=lambda value: value is not None)
        tracer.wrap(table, "store", "engine.table.store")
    else:
        tracer.absent.append("p3game.engine.TranspositionTable")
    tracer.wrap(engine, "decide", "engine.decide")
    tracer.wrap(cli, "decide", "engine.decide")
    tracer.wrap(verify, "decide", "verify.engine")
    tracer.wrap(verify, "grundy", "verify.engine")
    tracer.wrap(verify, "run_family", lambda args: "verify." + args[0])
    solvers = p3.solvers
    for name, obj in list(vars(solvers).items()):
        if (inspect.isfunction(obj) and obj.__module__ == solvers.__name__
                and not name.startswith("_")):
            tracer.wrap(solvers, name, "solvers." + name)
    tracer.wrap(cli, "main", "cli.solve")
    cache = getattr(cli, "ResultCache", None)
    if cache is not None:
        tracer.wrap(cache, "__init__", "cli.cache.load")
        tracer.wrap(cache, "get", "cli.cache.get",
                    hit=lambda value: value is not None)
        tracer.wrap(cache, "put", "cli.cache.put")
    else:
        tracer.absent.append("p3game.cli.ResultCache")
    return tracer


def _popcount(x):
    return bin(x).count("1")


def _scaled(measure):
    """measure() rescaled by host speed (see hostspeed)."""
    before = hostspeed.probe()
    value = measure()
    return value * hostspeed.factor(before, hostspeed.probe())


def wrapper_cost(kind):
    """spans.wrapper_cost in scaled seconds: the median of COST_REPEATS
    measurements, each between its own probes, so that one probe that
    caught a pause of the host does not skew it."""
    runs = []
    for _ in range(COST_REPEATS):
        before = hostspeed.probe()
        inside, outside = spans.wrapper_cost(kind)
        factor = hostspeed.factor(before, hostspeed.probe())
        runs.append((inside * factor, outside * factor))
    return tuple(statistics.median(run[i] for run in runs) for i in (0, 1))


def span_factors(tracer, starts, raw, scaled):
    """The host-speed factor of each span: that of the task it ran in."""
    factors = [s / r if r else 1.0 for r, s in zip(raw, scaled)]
    return array("d", (factors[bisect.bisect_right(starts, t) - 1]
                       for t in tracer.start))


def layer_metrics(p3, tracer, tasks, plain, traced, build_s, cost):
    """Per-layer metrics from the traced pass (counts, self times),
    replays of its samples, and the plain pass (CLI latencies).  Every
    time is scaled by host speed, and span times are net of the wrapper
    cost ``cost`` (see spans.Tracer.totals)."""
    factors = span_factors(tracer, *traced[1:])
    totals = tracer.totals(factors, cost)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    hull_samples = tracer.samples.get("closure.hull", [])
    hull_calls, lookups = calls("closure.hull"), calls("engine.table.lookup")
    stored = calls("engine.table.store")
    closure_s = own("closure.hull", "closure.legal_moves")
    table_s = own("engine.table.lookup", "engine.table.store")
    engine_s = own("engine.decide", "verify.engine")
    solver_names = [n for n in totals if n.startswith("solvers.")]
    family_spans = ["verify." + f for f in FAMILIES]
    cli_spans = [n for n in totals if n.startswith("cli.")]
    misses = [d * 1e3 for t, d in zip(tasks, plain[3])
              if isinstance(t, workloads.CliTask) and t.is_miss]
    hits = [d * 1e3 for t, d in zip(tasks, plain[3])
            if isinstance(t, workloads.CliTask) and not t.is_miss]
    plain_wall, traced_wall = sum(plain[3]), sum(traced[3])
    unattributed = traced_wall - sum(
        (e - s) * f for p, s, e, f in zip(tracer.parent, tracer.start,
                                          tracer.end, factors) if p < 0)
    return {
        "closure.hull.calls": hull_calls,
        "closure.hull.self_s": own("closure.hull"),
        "closure.hull.us_per_call": _scaled(lambda: spans.replay_us(
            getattr(p3.engine, "hull", None), hull_samples)),
        "closure.hull.absorbed_per_call": ratio(
            sum(_popcount(out) - _popcount(args[1]) for args, out in hull_samples),
            len(hull_samples)),
        "closure.legal_moves.calls": calls("closure.legal_moves"),
        "closure.legal_moves.self_s": own("closure.legal_moves"),
        "closure.legal_moves.us_per_call": _scaled(lambda: spans.replay_us(
            getattr(p3.engine, "legal_moves_raw", None),
            tracer.samples.get("closure.legal_moves", []))),
        "engine.positions_stored": stored,
        "engine.memo_lookups": lookups,
        "engine.memo_hit_ratio": ratio(tracer.hits.get("engine.table.lookup", 0),
                                       lookups),
        "engine.distinct_child_ratio": ratio(lookups, hull_calls),
        "engine.table.self_s": table_s,
        "engine.self_s": engine_s,
        "engine.us_per_position": ratio(engine_s + closure_s + table_s, stored) * 1e6,
        "graphs.build_s": build_s,
        "solvers.calls": sum(calls(n) for n in solver_names),
        "solvers.self_s": own(*solver_names),
        **{name + ".s": incl(name) for name in family_spans},
        "verify.engine_s": incl("verify.engine"),
        "verify.self_s": own(*family_spans),
        "cli.self_s": own(*cli_spans),
        "cli.cache.load_ms": ratio(incl("cli.cache.load"), calls("cli.cache.load")) * 1e3,
        "cli.cache.hit_ratio": ratio(tracer.hits.get("cli.cache.get", 0),
                                     calls("cli.cache.get")),
        "cli.solve.miss_ms_p50": statistics.median(misses) if misses else 0.0,
        "cli.solve.hit_ms_p50": statistics.median(hits) if hits else 0.0,
        "cli.solve.samples": len(misses) + len(hits),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.span_cost_us": sum(cost[spans.PLAIN]) * 1e6,
        "trace.residual_s": plain_wall - unattributed - sum(
            t[2] for t in totals.values()),
        "trace.host_speed": ratio(plain_wall, sum(plain[2])),
        "trace.unattributed_s": unattributed,
        "trace.spans": len(tracer.name),
        "trace.absent_wrappers": len(tracer.absent),
    }


def _pass(p3, tasks, tmp):
    return workloads.run_pass(p3, tasks, tempfile.mkdtemp(prefix="cache", dir=tmp))


def _check(checker, p3, tasks, answer_lists):
    """(attempted, failed) over the answers of every pass.  All passes
    of a run build the same tasks, so the first pass's serve for all."""
    attempted = failed = 0
    for answers in answer_lists:
        for task, answer in zip(tasks, answers):
            attempted += 1
            errors = checker.errors(p3, task, answer)
            if errors:
                failed += 1
                if failed <= 10:
                    print("FAIL %s: %s" % (task.name, "; ".join(errors)),
                          file=sys.stderr)
    return attempted, failed


def measure(spec, seed, seconds, tmp, pins):
    """End-to-end metrics of one workload: (metrics, attempted, failed).

    Passes repeat until ``seconds`` have gone by, each on a fresh
    set-up.  Times are scaled by host speed (see hostspeed).  wall_s is
    the median pass; the CLI latencies pool every call of every pass."""
    setups, answer_lists, walls, cli = [], [], [], []
    first = None
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        p3, tasks, totals, _ = set_up(spec, seed, tmp)
        first = first or (p3, tasks)
        setups += totals
        answers, _, raw, scaled = _pass(p3, tasks, tmp)
        answer_lists.append(answers)
        walls.append(sum(scaled))
        print("pass %d: %.3f s, %.3f s scaled" % (len(walls), sum(raw), walls[-1]),
              file=sys.stderr)
        cli += [d * 1e3 for t, d in zip(tasks, scaled)
                if isinstance(t, workloads.CliTask)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = _check(workloads.Checker(seed, pins), *first,
                               answer_lists)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
        "cli_solve_ms_p50": statistics.median(cli),
        "cli_solve_ms_p95": statistics.quantiles(cli, n=20)[18],
    }, attempted, failed


def measure_traced(spec, seed, tmp, pins, trace_path=None):
    """Per-layer metrics of one workload, except tests.tier1_s:
    (metrics, attempted, failed).  One plain pass, then one traced pass
    on the same set-up, then a measurement of each wrapper kind's cost;
    the spans go to ``trace_path``."""
    p3, tasks, _, builds = set_up(spec, seed, tmp)
    plain = _pass(p3, tasks, tmp)
    tracer = install_tracer(p3)
    try:
        traced = _pass(p3, tasks, tmp)
    finally:
        tracer.uninstall()
    cost = {kind: wrapper_cost(kind)
            for kind in set(tracer.kinds.values()) | {spans.PLAIN}}
    attempted, failed = _check(workloads.Checker(seed, pins), p3, tasks,
                               [plain[0], traced[0]])
    if tracer.absent:
        print("absent from the program: %s" % ", ".join(tracer.absent),
              file=sys.stderr)
    metrics = layer_metrics(p3, tracer, tasks, plain, traced,
                            statistics.median(builds), cost)
    if trace_path is not None:
        tracer.write(trace_path)
    return metrics, attempted, failed


def tier1_seconds(tmp):
    """Wall time of the tier-1 suite, run so that it writes only under
    ``tmp``: no bytecode, no pytest cache, no pytest-benchmark store
    (.benchmarks), temporary files under tmp."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", TMPDIR=tmp,
               PYTHONPATH=os.pathsep.join(
                   p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider", "-p", "no:benchmark",
           "--basetemp", os.path.join(tmp, "pytest")]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=TIER1_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        print("tier-1 suite exited %d:\n%s" % (proc.returncode, proc.stdout[-2000:]),
              file=sys.stderr)
    return elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "p3game", "__init__.py")):
        print("error: p3game sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        pins = json.load(fh)[args.workload]

    scratch = os.path.join(HERE, ".tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run", dir=scratch)
    global pycache
    pycache = os.path.join(tmp, "pycache")
    try:
        spec = workloads.WORKLOADS[args.workload]
        if args.trace:
            os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
            metrics, attempted, failed = measure_traced(
                spec, args.seed, tmp, pins,
                os.path.join(HERE, "traces", args.workload + ".spans"))
            metrics["tests.tier1_s"] = tier1_seconds(tmp)
            units = PER_LAYER
        else:
            metrics, attempted, failed = measure(spec, args.seed, args.seconds,
                                                 tmp, pins)
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
