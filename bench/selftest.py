"""Self-tests of the benchmark on tiny instances.

    python3 -m pytest -q -p no:cacheprovider bench/selftest.py

The file name keeps it out of the repository's own test collection.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import types

import run
import spans
import workloads

sys.path.insert(0, run.SRC)

TINY = {
    "variant": "free",
    "instances": [("path", 7, 1), ("tree", 7, 2), ("gnp", 8, 1, 0.3)],
    "families": {"path-free": 6, "star": 4},
}
#: Tasks per pass of TINY: P7, two trees, one G(n, p), two families, CLI.
TINY_TASKS = 1 + 2 + 1 + 2 + workloads.CLI_GRAPHS * workloads.CLI_PASSES

COUNTS = ("closure.hull.calls", "closure.legal_moves.calls",
          "engine.positions_stored", "engine.memo_lookups",
          "engine.memo_hit_ratio", "engine.distinct_child_ratio",
          "closure.hull.absorbed_per_call", "solvers.calls",
          "cli.cache.hit_ratio", "cli.solve.samples", "trace.spans",
          "trace.absent_wrappers")


def tiny_pins(tmp):
    p3 = run.load_p3game()
    tasks, files = workloads.build(p3, TINY, workloads.PIN_SEED, str(tmp))
    workloads.write_files(files)
    answers = workloads.run_pass(p3, tasks, str(tmp / "pin-cache"))[0]
    return workloads.pins_from_answers(tasks, answers)


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == ["bench"]


def test_plain_run_reports_every_end_to_end_metric(tmp_path):
    metrics, attempted, failed = run.measure(TINY, 3, 0, str(tmp_path), {})
    assert set(metrics) == set(run.END_TO_END)
    assert all(value > 0 for value in metrics.values())
    assert (attempted, failed) == (TINY_TASKS, 0)


def test_traced_counts_repeat_exactly(tmp_path):
    first, attempted, failed = run.measure_traced(TINY, 3, str(tmp_path), {})
    second, _, _ = run.measure_traced(TINY, 3, str(tmp_path), {})
    assert set(first) == set(run.PER_LAYER) - {"tests.tier1_s"}
    assert failed == 0 and attempted == 2 * TINY_TASKS
    assert first["closure.hull.calls"] > 0 and first["solvers.calls"] > 0
    assert first["verify.path-free.s"] > 0 and first["verify.engine_s"] > 0
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


def test_pins_catch_a_wrong_answer(tmp_path):
    pins = tiny_pins(tmp_path)
    seed = workloads.PIN_SEED
    _, attempted, failed = run.measure(TINY, seed, 0, str(tmp_path), pins)
    assert failed == 0
    wrong = copy.deepcopy(pins)
    winner, value, witness = wrong["engine"]["P7"]
    wrong["engine"]["P7"] = [winner, value + 1, witness]
    _, attempted, failed = run.measure(TINY, seed, 0, str(tmp_path), wrong)
    assert failed == 1 and failed / attempted > 0


def test_witness_check_rejects_a_losing_opening():
    p3 = run.load_p3game()
    g = p3.make_path(7)                       # value 1, lowest winning move 1
    good = p3.decide(g, p3.Variant.FREE).to_json_dict()
    assert workloads.witness_errors(p3, g, p3.Variant.FREE, good) == []
    bad = dict(good, witness=good["witness"] + 1)
    assert workloads.witness_errors(p3, g, p3.Variant.FREE, bad)


def test_missing_name_is_reported_absent():
    tracer = spans.Tracer()
    tracer.wrap(types.ModuleType("empty"), "hull", "closure.hull")
    assert tracer.absent == ["empty.hull"]


def test_span_file_round_trip_and_self_time(tmp_path):
    holder = types.ModuleType("holder")
    holder.inner = lambda: sum(range(1000))
    holder.outer = lambda: holder.inner() + holder.inner()
    tracer = spans.Tracer()
    tracer.wrap(holder, "inner", "inner")
    tracer.wrap(holder, "outer", "outer")
    holder.outer()
    tracer.uninstall()
    totals = tracer.totals()
    calls, incl, own = totals["outer"]
    assert calls == 1 and totals["inner"][0] == 2
    assert abs(own - (incl - totals["inner"][1])) < 1e-9
    # wrapper cost: inside off each span, outside off its parent per child
    net = tracer.totals(cost={spans.PLAIN: (1e-7, 1e-6)})
    assert abs(net["inner"][2] - (totals["inner"][2] - 2e-7)) < 1e-12
    assert abs(net["outer"][2] - (own - 1e-7 - 2e-6)) < 1e-12
    assert abs(net["outer"][1] - (net["outer"][2] + net["inner"][1])) < 1e-12
    path = str(tmp_path / "t.spans")
    tracer.write(path)
    names, arrays = spans.read_spans(path)
    assert names == tracer.names
    assert list(arrays["parent"]) == list(tracer.parent)
    assert list(arrays["start"]) == list(tracer.start)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".tmp", "traces", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


if __name__ == "__main__":
    import pytest
    sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", __file__]))
