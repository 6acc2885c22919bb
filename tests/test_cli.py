"""Command-line behavior: exit codes, stream discipline (JSON on stdout,
tables and diagnostics on stderr), the append-only verdict cache, graph
generation, and interactive play backed by the engine."""

import ast
import errno
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from p3game import (Player, TranspositionTable, Variant, Verdict,
                    apply_move, best_move, decide, emit_graph, graph_digest,
                    grundy, legal_moves, make_cycle, make_ladder, make_path,
                    mex, parse_graph, random_biconnected_chordal,
                    random_caterpillar, random_cograph, random_tree,
                    start_position)
from p3game import cli, solvers, verify
from p3game.cli import CacheCorruptionError, ResultCache, main
from p3game.graphs import SIZED_FAMILIES, bits, random_gnp
from p3game.verify import FAMILIES, enumerate_trees, run_family

from helpers import connected_atlas_graphs, graph_to_nx

ROOT = Path(__file__).resolve().parent.parent


def run_cli(argv, stdin_text=""):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = main(argv, stdin=io.StringIO(stdin_text),
                stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


def write_graph(tmp_path, g, name="g.json"):
    path = tmp_path / name
    path.write_bytes(emit_graph(g))
    return str(path)


# =====================================================================
# solve
# =====================================================================

def test_solve_emits_full_verdict_json(tmp_path):
    path = write_graph(tmp_path, make_cycle(5))
    code, out, err = run_cli(["solve", "--graph", path,
                              "--variant", "connected"])
    assert code == 0
    assert json.loads(out) == {"grundy": 1, "winner": "first", "witness": 0}
    # sorted keys make reruns byte-identical
    assert out == run_cli(["solve", "--graph", path,
                           "--variant", "connected"])[1]


def test_solve_winner_mode_projects_out_the_value(tmp_path):
    path = write_graph(tmp_path, make_cycle(5))
    code, out, _ = run_cli(["solve", "--graph", path,
                            "--variant", "connected", "--mode", "winner"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"winner": "first", "witness": 0}


def test_solve_missing_file_is_a_usage_error(tmp_path):
    code, out, err = run_cli(["solve", "--graph", str(tmp_path / "absent"),
                              "--variant", "free"])
    assert code == 2
    assert out == ""
    assert "error:" in err and "cannot read graph file" in err


def test_solve_malformed_graph_is_a_usage_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(["solve", "--graph", str(path),
                            "--variant", "free"])
    assert code == 2
    assert "error:" in err


def test_solve_deeply_nested_graph_json_is_a_usage_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(["solve", "--graph", str(path),
                              "--variant", "free"])
    assert code == 2 and out == ""
    assert err == "error: malformed JSON in graph: nested too deeply\n"


def test_solve_empty_graph_is_a_usage_error(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"n": 0, "edges": []}')
    code, out, err = run_cli(["solve", "--graph", str(path),
                              "--variant", "free"])
    assert code == 2
    assert out == ""
    assert err == "error: cannot decide the game on an empty graph\n"


@pytest.mark.parametrize("n", [2 ** 61, 2 ** 64], ids=["no-memory", "no-index"])
@pytest.mark.parametrize("command", [
    ["solve", "--variant", "free"],
    ["play", "--variant", "free", "--human", "first"],
])
def test_graph_too_large_to_allocate_is_a_resource_limit(tmp_path, n,
                                                          command):
    # both sizes fail before anything is allocated: 2**61 rows exceed any
    # memory, and 2**64 does not fit a list index
    path = tmp_path / "huge.json"
    path.write_text('{"n": %d, "edges": []}' % n)
    code, out, err = run_cli(command + ["--graph", str(path)])
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["a-file", "under-a-file"])
def test_solve_cache_directory_that_cannot_be_made_is_a_usage_error(
        tmp_path, where):
    path = write_graph(tmp_path, make_path(3))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cache = blocker if where == "a-file" else blocker / "cache"
    code, out, err = run_cli(["solve", "--graph", path, "--variant", "free",
                              "--cache", str(cache)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot open cache directory %s:" % cache)


def test_cached_solve_reads_the_graph_once_and_makes_no_directory(
        tmp_path, monkeypatch):
    path = write_graph(tmp_path, make_ladder(3))
    cache = tmp_path / "missing" / "cache"
    argv = ["solve", "--graph", path, "--variant", "connected",
            "--cache", str(cache)]
    calls = {"makedirs": 0, "parse_graph": 0, "graph_digest": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, call)
    counted(os, "makedirs")
    counted(cli, "parse_graph")
    counted(cli, "graph_digest")

    code, miss, _ = run_cli(argv)  # the first miss makes the directory
    assert code == 0 and (cache / "results.jsonl").is_file()
    assert calls["makedirs"] >= 1  # os.makedirs calls itself per level
    calls.update(makedirs=0, parse_graph=0, graph_digest=0)
    code, hit, _ = run_cli(argv)
    assert code == 0 and hit == miss
    assert calls == {"makedirs": 0, "parse_graph": 1, "graph_digest": 1}


def test_solve_rejects_unknown_variant(tmp_path):
    path = write_graph(tmp_path, make_path(3))
    code, out, err = run_cli(["solve", "--graph", path, "--variant", "both"])
    assert code == 2
    assert out == ""
    assert err.startswith("usage: p3game solve")
    assert "argument --variant: invalid choice: 'both'" in err


# =====================================================================
# budgets
# =====================================================================

def test_budget_flag_triggers_resource_exit(tmp_path):
    path = write_graph(tmp_path, make_path(12))
    code, out, err = run_cli(["solve", "--graph", path, "--variant", "free",
                              "--budget", "3"])
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit:")


def test_budget_env_var_is_honored(tmp_path, monkeypatch):
    path = write_graph(tmp_path, make_path(12))
    monkeypatch.setenv("P3_BUDGET", "3")
    code, _, err = run_cli(["solve", "--graph", path, "--variant", "free"])
    assert code == 3
    assert err.startswith("resource limit:")


@pytest.mark.parametrize("value", ["abc", "-5", "0", "1.5"])
def test_budget_env_var_must_be_a_positive_integer(tmp_path, monkeypatch,
                                                   value):
    path = write_graph(tmp_path, make_path(4))
    monkeypatch.setenv("P3_BUDGET", value)
    code, _, err = run_cli(["solve", "--graph", path, "--variant", "free"])
    assert code == 2
    assert "P3_BUDGET must be a positive integer" in err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_budget_flag_must_be_a_positive_integer(tmp_path, value):
    path = write_graph(tmp_path, make_path(4))
    code, out, err = run_cli(["solve", "--graph", path, "--variant", "free",
                              "--budget", value])
    assert code == 2
    assert out == ""
    assert err == "error: --budget must be a positive integer, got %s\n" % value


def test_budget_flag_wins_over_env_var(tmp_path, monkeypatch):
    path = write_graph(tmp_path, make_path(4))
    monkeypatch.setenv("P3_BUDGET", "abc")  # never consulted
    code, out, _ = run_cli(["solve", "--graph", path, "--variant", "free",
                            "--budget", "100000"])
    assert code == 0
    assert json.loads(out)["winner"] in ("first", "second")


# =====================================================================
# verdict cache
# =====================================================================

def test_cache_round_trip_and_line_format(tmp_path):
    g = make_cycle(6)
    path = write_graph(tmp_path, g)
    cache_dir = str(tmp_path / "cache")
    argv = ["solve", "--graph", path, "--variant", "free",
            "--cache", cache_dir]
    code1, out1, _ = run_cli(argv)
    code2, out2, _ = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2

    lines = (tmp_path / "cache" / "results.jsonl").read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record) == {"graph", "variant", "verdict"}
    assert record["graph"] == graph_digest(g)
    assert record["variant"] == "free"
    assert record["verdict"] == decide(g, Variant.FREE).to_json_dict()


def test_cache_keys_include_the_variant(tmp_path):
    path = write_graph(tmp_path, make_cycle(5))
    cache_dir = str(tmp_path / "cache")
    for variant in ("free", "connected"):
        assert run_cli(["solve", "--graph", path, "--variant", variant,
                        "--cache", cache_dir])[0] == 0
    lines = (tmp_path / "cache" / "results.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert {json.loads(l)["variant"] for l in lines} == {"free", "connected"}


def test_cache_stays_single_line_across_reruns(tmp_path):
    path = write_graph(tmp_path, make_path(7))
    cache_dir = str(tmp_path / "cache")
    argv = ["solve", "--graph", path, "--variant", "connected",
            "--cache", cache_dir]
    for _ in range(3):
        assert run_cli(argv)[0] == 0
    lines = (tmp_path / "cache" / "results.jsonl").read_text().splitlines()
    assert len(lines) == 1


def test_conflicting_cache_lines_are_rejected(tmp_path):
    g = make_path(3)
    path = write_graph(tmp_path, g)
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    digest = graph_digest(g)
    rows = [{"graph": digest, "variant": "free",
             "verdict": {"winner": "first", "grundy": 1, "witness": 0}},
            {"graph": digest, "variant": "free",
             "verdict": {"winner": "second", "grundy": 0, "witness": None}}]
    (cache_dir / "results.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in rows))
    code, out, err = run_cli(["solve", "--graph", path, "--variant", "free",
                              "--cache", str(cache_dir)])
    assert code == 2
    assert "conflicting cache lines" in err


def _solve_with_cache_lines(tmp_path, lines):
    path = write_graph(tmp_path, make_path(3))
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    good = json.dumps({"graph": "0" * 64, "variant": "free",
                       "verdict": {"winner": "first", "grundy": 1,
                                   "witness": 0}})
    (cache_dir / "results.jsonl").write_text(
        "".join(line + "\n" for line in [good] + lines), encoding="utf-8")
    return run_cli(["solve", "--graph", path, "--variant", "free",
                    "--cache", str(cache_dir)])


def test_truncated_cache_line_is_a_parse_error(tmp_path):
    code, out, err = _solve_with_cache_lines(
        tmp_path, ['{"graph": "ab", "variant": "fr'])
    assert code == 2 and out == ""
    assert "line 2 is not a cache record" in err
    assert "Traceback" not in err


def test_deeply_nested_cache_line_is_a_parse_error(tmp_path):
    code, out, err = _solve_with_cache_lines(
        tmp_path, ["[" * 5000 + "]" * 5000])
    assert code == 2 and out == ""
    assert "line 2 is not a cache record: RecursionError" in err


def test_non_json_cache_line_is_a_parse_error(tmp_path):
    code, out, err = _solve_with_cache_lines(tmp_path, ["", "not json at all"])
    assert code == 2 and out == ""
    assert "line 3 is not a cache record" in err


@pytest.mark.parametrize("record", [
    {"graph": "ab", "verdict": {}},
    {"graph": "ab", "variant": "free",
     "verdict": {"winner": "first", "grundy": 1}},
    {"graph": ["ab"], "variant": "free", "verdict": {}},
    ["ab", "free"],
], ids=["no-variant", "verdict-without-witness", "list-digest", "not-an-object"])
def test_cache_line_missing_a_field_is_a_parse_error(tmp_path, record):
    code, out, err = _solve_with_cache_lines(tmp_path, [json.dumps(record)])
    assert code == 2 and out == ""
    assert "line 2 is not a cache record" in err


def test_cached_verdict_with_an_extra_key_is_a_parse_error(tmp_path):
    # the key is not a Verdict field, so two lines that differ only in
    # it would hold equal verdicts; such a line is corrupt instead
    g = make_path(3)
    verdict = dict(decide(g, Variant.FREE).to_json_dict(), note="hand edit")
    record = {"graph": graph_digest(g), "variant": "free", "verdict": verdict}
    code, out, err = _solve_with_cache_lines(tmp_path, [json.dumps(record)])
    assert code == 2 and out == ""
    assert "line 2 is not a cache record: ValueError" in err


@pytest.mark.parametrize("verdict", [
    {"grundy": -1, "winner": "third", "witness": "x"},
    {"grundy": 0, "winner": "first", "witness": 0},
    {"grundy": 0, "winner": "second", "witness": 4},
], ids=["unknown-winner", "first-at-zero", "second-with-witness"])
def test_cache_line_with_an_impossible_verdict_is_a_parse_error(tmp_path,
                                                                verdict):
    g = make_path(3)
    record = {"graph": graph_digest(g), "variant": "free",
              "verdict": verdict}
    code, out, err = _solve_with_cache_lines(tmp_path, [json.dumps(record)])
    assert code == 2 and out == ""
    assert "line 2 is not a cache record: ValueError" in err


@pytest.mark.parametrize("witness", [3, 99])
def test_cached_witness_that_is_not_a_vertex_is_refused(tmp_path, witness):
    # every vertex of P3 opens the game, and nothing else does; the
    # value 7 is wrong too, but only a search could tell
    record = {"graph": graph_digest(make_path(3)), "variant": "free",
              "verdict": {"winner": "first", "grundy": 7,
                          "witness": witness}}
    code, out, err = _solve_with_cache_lines(tmp_path, [json.dumps(record)])
    assert code == 2 and out == ""
    assert err == "error: %s holds witness %d for graph %s, which has 3 " \
        "vertices\n" % (tmp_path / "cache" / "results.jsonl", witness,
                        record["graph"])


class _FullDisk:
    """A file open for appending on a full disk."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("failing", ["open", "write"])
def test_cache_that_cannot_be_appended_to_is_a_usage_error(tmp_path,
                                                           monkeypatch,
                                                           failing):
    # chmod cannot stop root from writing, so the failure is patched in
    path = write_graph(tmp_path, make_path(3))
    cache_dir = tmp_path / "cache"

    def appending_fails(file, mode="r", *args, **kwargs):
        if "a" not in mode:
            return open(file, mode, *args, **kwargs)
        if failing == "open":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return _FullDisk()

    monkeypatch.setattr(cli, "open", appending_fails, raising=False)
    code, out, err = run_cli(["solve", "--graph", path, "--variant", "free",
                              "--cache", str(cache_dir)])
    assert code == 2 and out == ""
    assert err == "error: cannot write cache file %s: [Errno %d] %s\n" % (
        cache_dir / "results.jsonl", errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_two_records_on_one_line_are_a_parse_error(tmp_path):
    record = json.dumps({"graph": "ab", "variant": "free",
                         "verdict": {"winner": "second", "grundy": 0,
                                     "witness": None}})
    code, out, err = _solve_with_cache_lines(
        tmp_path, [record, record + " " + record.replace("ab", "cd")])
    assert code == 2 and out == ""
    assert "line 3 is not a cache record" in err


def test_line_separator_inside_a_record_does_not_shift_line_numbers(tmp_path):
    # U+2028 is legal raw inside a JSON string, and only \n ends a line
    record = json.dumps({"graph": "a\u2028b", "variant": "free",
                         "verdict": {"winner": "second", "grundy": 0,
                                     "witness": None}}, ensure_ascii=False)
    assert "\u2028" in record
    code, out, err = _solve_with_cache_lines(
        tmp_path, [record, '{"graph": "ab", "variant": "fr'])
    assert code == 2 and out == ""
    assert "line 3 is not a cache record" in err


def test_cache_with_crlf_line_ends_is_read(tmp_path):
    g = make_cycle(5)
    path = write_graph(tmp_path, g)
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    verdict = decide(g, Variant.FREE).to_json_dict()
    rows = [{"graph": "0" * 64, "variant": "free", "verdict": verdict},
            {"graph": graph_digest(g), "variant": "free", "verdict": verdict}]
    data = "".join(json.dumps(r) + "\r\n" for r in rows).encode()
    (cache_dir / "results.jsonl").write_bytes(data)
    code, out, err = run_cli(["solve", "--graph", path, "--variant", "free",
                              "--cache", str(cache_dir)])
    assert code == 0 and json.loads(out) == verdict
    # a hit appends nothing
    assert (cache_dir / "results.jsonl").read_bytes() == data
    assert len(ResultCache(str(cache_dir))) == 2


def test_cache_skips_blank_lines_and_starts_empty_without_a_file(tmp_path):
    cache_dir = tmp_path / "cache"
    cache = ResultCache(str(cache_dir))
    assert len(cache) == 0
    assert cache.get("ab", Variant.FREE) is None
    assert not (cache_dir / "results.jsonl").exists()
    verdict = Verdict(Player.SECOND, 0, None)
    record = {"winner": "second", "grundy": 0, "witness": None}
    lines = ["", json.dumps({"graph": "ab", "variant": "free",
                             "verdict": record}),
             "   ", "\t", json.dumps({"graph": "ab", "variant": "connected",
                                     "verdict": record}), "", ""]
    (cache_dir / "results.jsonl").write_text("\n".join(lines))
    cache = ResultCache(str(cache_dir))
    assert len(cache) == 2
    assert cache.get("ab", Variant.CONNECTED) == verdict


def test_cache_refuses_to_overwrite_an_entry(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    verdict = Verdict(Player.FIRST, 2, 1)
    cache.put("deadbeef", Variant.FREE, verdict)
    cache.put("deadbeef", Variant.FREE,
              Verdict(Player.FIRST, 2, 1))  # same value: fine
    with pytest.raises(CacheCorruptionError):
        cache.put("deadbeef", Variant.FREE, Verdict(Player.SECOND, 0, None))
    assert len(cache) == 1


def test_cache_soundness_on_a_random_sample(tmp_path):
    # cold and warm runs must emit identical bytes, and every cached
    # verdict must equal a freshly computed one
    rng = random.Random(77)
    cache_dir = str(tmp_path / "cache")
    for i in range(100):
        n = rng.randint(1, 6)
        if rng.random() < 0.5:
            g = random_tree(n, rng)
        else:
            g = random_gnp(n, rng.random(), rng)
        variant = rng.choice(["free", "connected"])
        path = write_graph(tmp_path, g, name="s%d.json" % i)
        argv = ["solve", "--graph", path, "--variant", variant,
                "--cache", cache_dir]
        code1, cold, _ = run_cli(argv)
        code2, warm, _ = run_cli(argv)
        assert code1 == code2 == 0
        assert cold == warm
        fresh = decide(g, Variant(variant)).to_json_dict()
        assert json.loads(cold) == fresh


def test_put_after_a_last_line_without_newline_starts_a_new_line(tmp_path):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    g = make_cycle(6)
    verdict = decide(g, Variant.FREE).to_json_dict()
    record = json.dumps({"graph": graph_digest(g), "variant": "free",
                         "verdict": verdict}, sort_keys=True)
    (cache_dir / "results.jsonl").write_text(record)
    for h in (make_path(5), make_cycle(5), make_path(5), make_cycle(5)):
        code, out, err = run_cli(["solve", "--graph", write_graph(tmp_path, h),
                                  "--variant", "free",
                                  "--cache", str(cache_dir)])
        assert (code, err) == (0, "")
    lines = (cache_dir / "results.jsonl").read_text().split("\n")
    assert lines[0] == record and lines[-1] == ""
    assert len(lines) == 4


def _load(cache_dir):
    """The entries of a ResultCache over cache_dir, or its error text."""
    try:
        return dict(ResultCache(str(cache_dir))._entries)
    except CacheCorruptionError as exc:
        return str(exc)


def _cold_load(cache_dir, monkeypatch):
    """_load with no earlier load remembered."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_validated", (b"", {}, 0))
        return _load(cache_dir)


def _cache_lines(count, start=0):
    return [json.dumps({"graph": "%064x" % i, "variant": "free",
                        "verdict": {"winner": "first", "grundy": i % 3 + 1,
                                    "witness": i % 5}}) + "\n"
            for i in range(start, start + count)]


def _rewrite_line(lines, i, text):
    return lines[:i] + [text + "\n"] + lines[i + 1:]


@pytest.mark.parametrize("change", [
    "corrupt-earlier-line", "conflicting-earlier-line", "truncated",
    "shorter-different-file", "deleted", "appended", "crlf-appended",
    "last-line-unterminated", "corrupt-appended-line",
    "conflicting-appended-line"])
def test_warm_cache_load_equals_a_cold_one(tmp_path, monkeypatch, change):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    path = cache_dir / "results.jsonl"
    lines = _cache_lines(20)
    path.write_text("".join(lines))
    assert len(_load(cache_dir)) == 20  # remembered from here on
    conflict = json.loads(lines[4])
    conflict["verdict"] = {"winner": "second", "grundy": 0, "witness": None}
    data = {
        "corrupt-earlier-line": "".join(_rewrite_line(lines, 7, "{\"graph\"")),
        "conflicting-earlier-line": "".join(
            _rewrite_line(lines, 15, json.dumps(conflict))),
        "truncated": "".join(lines)[:1000],
        "shorter-different-file": "".join(_cache_lines(5, start=50)),
        "appended": "".join(lines + _cache_lines(3, start=20)),
        "crlf-appended": "".join(lines) + "\r\n".join(
            l.rstrip("\n") for l in _cache_lines(3, start=20)) + "\r",
        "last-line-unterminated": "".join(lines + _cache_lines(1, start=20))
        .rstrip("\n") + "\n\n" + lines[0][:-1],
        "corrupt-appended-line": "".join(lines) + "\n[1, 2]\n",
        "conflicting-appended-line": "".join(lines) + json.dumps(conflict),
    }.get(change)
    if data is None:
        path.unlink()
    else:
        path.write_text(data)
    warm = _load(cache_dir)
    assert warm == _cold_load(cache_dir, monkeypatch)
    expected = {"corrupt-earlier-line": "line 8 is not a cache record",
                "conflicting-earlier-line": "conflicting cache lines",
                "truncated": "is not a cache record",
                "corrupt-appended-line": "line 22 is not a cache record",
                "conflicting-appended-line": "conflicting cache lines"
                }.get(change)
    if expected:
        assert expected in warm
    else:
        assert isinstance(warm, dict)
    # and a load after that one, with this file remembered, agrees too
    assert _load(cache_dir) == warm


def test_reload_decodes_only_the_lines_appended_since(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    (cache_dir / "results.jsonl").write_text("".join(_cache_lines(100)))
    decoded = []
    decode = cli._decode_record
    monkeypatch.setattr(cli, "_decode_record",
                        lambda line: decoded.append(line) or decode(line))
    assert len(ResultCache(str(cache_dir))) == 100
    decoded.clear()
    cache = ResultCache(str(cache_dir))
    assert len(cache) == 100 and decoded == []
    cache.put("ab", Variant.FREE, Verdict(Player.SECOND, 0, None))
    assert len(ResultCache(str(cache_dir))) == 101
    assert len(decoded) == 1


def test_warm_get_returns_the_frozen_verdict_of_a_cold_load(tmp_path,
                                                            monkeypatch):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    (cache_dir / "results.jsonl").write_text("".join(_cache_lines(10)))
    digest = "%064x" % 7
    with monkeypatch.context() as m:
        m.setattr(cli, "_validated", (b"", {}, 0))
        cold = ResultCache(str(cache_dir)).get(digest, Variant.FREE)
    ResultCache(str(cache_dir))  # remembered from here on
    warm = ResultCache(str(cache_dir)).get(digest, Variant.FREE)
    assert warm == cold == Verdict(Player.FIRST, 7 % 3 + 1, 7 % 5)
    with pytest.raises(AttributeError):
        warm.grundy = 0


# =====================================================================
# verify
# =====================================================================

def test_verify_cycle_connected_sweep_passes(tmp_path):
    code, out, err = run_cli(["verify", "--family", "cycle-connected",
                              "--max-n", "15"])
    assert code == 0
    assert out == ""  # no --json: stdout stays clean
    assert "PASS" in err
    assert "13" in err  # instances 3..15


def test_verify_json_report_is_deterministic():
    argv = ["verify", "--family", "cycle-connected", "--max-n", "15",
            "--json"]
    code1, out1, _ = run_cli(argv)
    code2, out2, _ = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report == {"family": "cycle-connected", "instances": 13,
                      "mismatches": [], "passed": True}


def test_verify_ladder_family_passes():
    code, out, err = run_cli(["verify", "--family", "ladder",
                              "--max-n", "7", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] and report["instances"] == 7


@pytest.mark.parametrize("family,max_n,instances", [
    ("ladder", 7, 7), ("chordal-lemma", 8, 100)])
def test_verify_json_output_is_pinned_byte_for_byte(family, max_n,
                                                    instances):
    code, out, _ = run_cli(["verify", "--family", family,
                            "--max-n", str(max_n), "--json"])
    assert code == 0
    assert out == ('{"family": "%s", "instances": %d, "mismatches": [], '
                   '"passed": true}\n' % (family, instances))


def test_tree_enumeration_matches_networkx():
    trees = enumerate_trees(12)
    counts = [sum(1 for n, _, _ in trees if n == size)
              for size in range(1, 13)]
    assert counts == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]
    assert [(n, idx) for n, idx, _ in trees] == [
        (size, idx) for size, count in enumerate(counts, 1)
        for idx in range(count)]
    for size in range(1, 10):
        ours = [graph_to_nx(t) for n, _, t in trees if n == size]
        assert all(nx.is_tree(t) for t in ours)
        for theirs in nx.nonisomorphic_trees(size):
            assert sum(nx.is_isomorphic(t, theirs) for t in ours) == 1


def _run_python(*args):
    """Run this interpreter with ``args`` on the package under test."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=300)


def test_tree_sweep_runs_without_networkx():
    script = ("import sys\n"
              "from p3game.cli import main\n"
              "code = main(['verify', '--family', 'tree', '--max-n', '9'])\n"
              "print(code, 'networkx' in sys.modules)\n")
    proc = _run_python("-c", script)
    assert proc.stdout == "0 False\n", proc.stderr


def test_importing_the_cli_loads_no_dataclasses_typing_or_inspect():
    # every process that answers pays for its imports; -S keeps out the
    # modules a site-packages .pth file may import on its own.  hashlib
    # waits for the first graph_digest, which must still hash the same
    script = ("import sys, p3game.cli\n"
              "print(sorted({'dataclasses', 'typing', 'inspect', 'hashlib',"
              " '_hashlib'} & set(sys.modules)))\n"
              "from p3game import emit_graph, graph_digest, make_cycle\n"
              "import hashlib\n"
              "g = make_cycle(5)\n"
              "print(graph_digest(g)"
              " == hashlib.sha256(emit_graph(g)).hexdigest())\n")
    proc = _run_python("-S", "-c", script)
    assert proc.stdout == "[]\nTrue\n", proc.stderr


def test_verify_report_repr_and_defaults():
    report = verify.VerifyReport("tree", 3)
    other = verify.VerifyReport("tree", 3)
    assert (report.family, report.instances, report.mismatches,
            report.elapsed) == ("tree", 3, [], 0.0)
    assert report.mismatches is not other.mismatches  # a fresh list each
    assert report.passed
    assert repr(report) == ("VerifyReport(family='tree', instances=3, "
                            "mismatches=[], elapsed=0.0)")
    report.mismatches.append({"instance": {"n": 4}})
    report.elapsed = 1.5
    assert not report.passed
    assert repr(report) == (
        "VerifyReport(family='tree', instances=3, "
        "mismatches=[{'instance': {'n': 4}}], elapsed=1.5)")
    assert repr(verify.VerifyReport(family="star", instances=1,
                                    mismatches=[], elapsed=0.25)) == (
        "VerifyReport(family='star', instances=1, mismatches=[], "
        "elapsed=0.25)")


def test_verify_table_columns_line_up_for_every_family():
    for family in FAMILIES:
        header, row = verify.VerifyReport(family, 1).human_table().split("\n")
        # the family column is left-aligned, the others right-aligned
        ends = [[m.end() for m in re.finditer(r"\S+", line)][1:]
                for line in (header, row)]
        assert row.startswith(family + " ")
        assert ends[0] == ends[1], family


def test_verify_rejects_unknown_family():
    code, out, err = run_cli(["verify", "--family", "moebius",
                              "--max-n", "4"])
    assert code == 2
    assert out == ""
    assert err.startswith("usage: p3game verify")
    assert "argument --family: invalid choice: 'moebius'" in err
    with pytest.raises(ValueError, match="unknown family"):
        run_family("moebius", 4)


def test_every_family_sweep_passes_at_small_size():
    sizes = {"path-free": 6, "path-connected": 6, "cycle-free": 6,
             "cycle-connected": 6, "ladder": 4, "star": 5, "clique": 5,
             "tree": 6, "caterpillar": 7, "cograph": 6, "chordal-lemma": 6,
             "chordal-connected": 9}
    assert set(sizes) == set(FAMILIES)
    # one instance per size from the family's smallest; the tree sweep
    # adds every isomorphism class (14 up to 6 vertices) to its samples
    counts = {"path-free": 6, "path-connected": 6, "cycle-free": 4,
              "cycle-connected": 4, "ladder": 4, "star": 6, "clique": 5,
              "tree": 214, "caterpillar": 200, "cograph": 200,
              "chordal-lemma": 100, "chordal-connected": 200}
    for family, max_n in sizes.items():
        report = run_family(family, max_n)
        assert report.passed, (family, report.mismatches[:3])
        assert report.instances == counts[family], family


def test_sampled_families_draw_pinned_graphs():
    # every instance of the sampled sweeps at seed 0, at the sizes the
    # benchmark sweeps them; a generator change that moves any draw
    # changes what verify checks, and this digest
    sizes = {"tree": 9, "caterpillar": 11, "cograph": 9,
             "chordal-lemma": 16, "chordal-connected": 16}
    digest = hashlib.sha256()
    count = 0
    for family, max_n in sizes.items():
        for _, g in FAMILIES[family].instances(max_n, random.Random(0)):
            digest.update(emit_graph(g))
            count += 1
    assert count == 95 + 200 + 200 + 200 + 100 + 200
    assert digest.hexdigest() == \
        "166c170a4ea2856090c6a3c4a5a337ae872650a41d4b3b01ec92d50fcf19bc80"


def test_sweep_instance_counts_match_the_bench_pins():
    # the benchmark's sweep checks each family's instance count against
    # bench/pins.json; a change that moves a count fails here first
    bench = ROOT / "bench"
    pins = json.loads((bench / "pins.json").read_text())["sweep"]["families"]
    tree = ast.parse((bench / "workloads.py").read_text())
    workloads = next(ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and node.targets[0].id == "WORKLOADS")
    sizes = workloads["sweep"]["families"]
    assert set(sizes) == set(pins)
    for family, max_n in sizes.items():
        count = sum(1 for _ in FAMILIES[family].instances(max_n,
                                                          random.Random(0)))
        assert count == pins[family], family


# family, a max_n just below its floor, and the floor, written here by
# hand as a pin apart from SIZED_FAMILIES; each id says the floor in
# words
BELOW_THE_FLOOR = [
    ("path-free", 0, 1, "paths need at least 1 vertex"),
    ("path-connected", 0, 1, "paths need at least 1 vertex"),
    ("cycle-free", 2, 3, "cycles need at least 3 vertices"),
    ("cycle-connected", 2, 3, "cycles need at least 3 vertices"),
    ("ladder", 0, 1, "ladders need at least 1 rung"),
    ("clique", 0, 1, "cliques need at least 1 vertex"),
    ("star", -1, 0, "stars need at least 0 leaves"),
    ("caterpillar", 0, 1, "caterpillars need at least 1 vertex"),
    ("cograph", 0, 1, "cographs need at least 1 vertex"),
    ("chordal-connected", 0, 1, "chordal graphs need at least 1 vertex"),
    ("tree", 0, 1, "trees need at least 1 vertex"),
    ("chordal-lemma", 2, 3,
     "biconnected chordal graphs need at least 3 vertices"),
]


@pytest.mark.parametrize(
    "family,max_n,floor", [case[:3] for case in BELOW_THE_FLOOR],
    ids=["%s-%d-%s" % (f, m, words) for f, m, _, words in BELOW_THE_FLOOR])
def test_verify_below_the_family_minimum_is_a_usage_error(family, max_n,
                                                          floor):
    # a range with no instance would otherwise check nothing and pass;
    # every family words the error alike, from its SIZED_FAMILIES floor
    assert {case[0] for case in BELOW_THE_FLOOR} == set(FAMILIES)
    code, out, err = run_cli(["verify", "--family", family,
                              "--max-n", str(max_n), "--json"])
    assert code == 2
    assert out == ""
    assert err == "error: --family %s needs --max-n >= %d\n" % (family,
                                                                 floor)
    assert run_family(family, floor).instances > 0


def _one_more(values, *_):
    return [v + 1 for v in values]


# family, max_n, (module, name) to patch, wrong answer from the true one
# and the call's arguments, descriptor key sets of the family's instances
WRONG_ANSWERS = [
    ("path-free", 6, (solvers, "component_free_values"), _one_more,
     [{"n"}]),
    ("path-connected", 6, (solvers, "connected_block_values"), _one_more,
     [{"n"}]),
    ("cycle-free", 6, (solvers, "component_free_values"), _one_more,
     [{"n"}]),
    ("cycle-connected", 6, (solvers, "connected_cycle_values"), _one_more,
     [{"n"}]),
    ("ladder", 4, (solvers, "ladder_connected_values"), _one_more,
     [{"n"}]),
    ("tree", 6, (solvers, "connected_block_values"), _one_more,
     [{"class"}, {"sample", "n", "edges"}]),
    ("caterpillar", 7, (solvers, "connected_block_values"), _one_more,
     [{"sample", "n", "edges"}]),
    ("cograph", 6, (solvers, "component_free_values"), _one_more,
     [{"sample", "n", "edges"}]),
    ("star", 5, (solvers, "component_free_values"), _one_more,
     [{"n"}]),
    ("clique", 5, (solvers, "component_free_values"), _one_more,
     [{"n"}]),
    ("chordal-lemma", 6, (solvers, "connected_block_values"), _one_more,
     [{"sample", "n", "edges"}]),
    ("chordal-connected", 9, (solvers, "connected_block_values"),
     _one_more, [{"sample", "n", "edges"}]),
]


@pytest.mark.parametrize("family,max_n,target,wrong,keys", WRONG_ANSWERS,
                         ids=[entry[0] for entry in WRONG_ANSWERS])
def test_verify_catches_a_wrong_answer_in_every_family(
        monkeypatch, family, max_n, target, wrong, keys):
    module, name = target
    original = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: wrong(original(*args), *args))
    report = run_family(family, max_n)
    # every answer is wrong, so every instance is a mismatch
    assert report.instances > 0
    assert len(report.mismatches) == report.instances
    assert {frozenset(m["instance"]) for m in report.mismatches} == \
        {frozenset(k) for k in keys}


@pytest.mark.parametrize("family,wrong", [
    ("chordal-connected", 178), ("tree", 198), ("cograph", 138)])
def test_verify_catches_a_wrong_value_above_the_mex(monkeypatch, family,
                                                    wrong):
    # one more on every value above the mex keeps every verdict, so only
    # a comparison of whole lists sees it
    flagged = []

    def above_the_mex(solver):
        def patched(g):
            values = solver(g)
            value = mex(values)
            flagged.append(any(v > value for v in values))
            return [v + 1 if v > value else v for v in values]
        return patched
    for name in ("connected_block_values", "component_free_values"):
        monkeypatch.setattr(solvers, name,
                            above_the_mex(getattr(solvers, name)))
    report = run_family(family, 9)
    descriptors = [d for d, _ in FAMILIES[family].instances(
        9, random.Random(0))]
    assert len(flagged) == report.instances == len(descriptors)
    assert [m["instance"] for m in report.mismatches] == \
        [d for d, hit in zip(descriptors, flagged) if hit]
    assert len(report.mismatches) == wrong


# every family with a first-player win, with the solver that makes its
# claim
LIST_SOLVERS = [("path-free", "component_free_values", 9),
                ("path-connected", "connected_block_values", 6),
                ("cycle-free", "component_free_values", 9),
                ("cycle-connected", "connected_cycle_values", 8),
                ("ladder", "ladder_connected_values", 6),
                ("tree", "connected_block_values", 6),
                ("star", "component_free_values", 4),
                ("clique", "component_free_values", 3),
                ("caterpillar", "connected_block_values", 7),
                ("cograph", "component_free_values", 6),
                ("chordal-connected", "connected_block_values", 9)]


def test_every_family_claims_the_value_after_each_opening():
    # every claim is a list of ints, one per vertex, and every family
    # with a witness faces the check below; on one chordal block any
    # second label closes the block, so every opening is worth 1 and
    # chordal-lemma has no witness
    assert {f for f, _, _ in LIST_SOLVERS} == set(FAMILIES) - {"chordal-lemma"}
    for family, fam in FAMILIES.items():
        assert fam.sized in SIZED_FAMILIES, family
        least = SIZED_FAMILIES[fam.sized][0]
        for _, g in fam.instances(least + 3, random.Random(0)):
            values = fam.claim(g)
            assert type(values) is list and len(values) == g.n, family
            assert all(type(v) is int for v in values), family
            if family == "chordal-lemma":
                assert values == [1] * g.n


def _far_witness(claim):
    """A claim whose winner and value are right but whose witness is no
    vertex, or None for a second-player win: each 0 replaced by its
    mex + 1, which keeps the mex, and one 0 appended past the last
    vertex."""
    value = mex(claim)
    if value == 0:
        return None
    return [v or value + 1 for v in claim] + [0]


@pytest.mark.parametrize("family,solver,max_n", LIST_SOLVERS,
                         ids=[f for f, _, _ in LIST_SOLVERS])
def test_verify_rejects_a_witness_that_is_not_a_legal_opening(
        monkeypatch, family, solver, max_n):
    original = getattr(solvers, solver)
    wins = []

    def far_witness(*args):
        claim = original(*args)
        wrong = _far_witness(claim)
        if wrong is None:
            return claim
        wins.append((claim, wrong))
        return wrong

    monkeypatch.setattr(solvers, solver, far_witness)
    report = run_family(family, max_n)
    # every first-player win, and only those, is flagged
    assert wins and len(report.mismatches) == len(wins)
    for m, (claim, wrong) in zip(report.mismatches, wins):
        assert m["solver"] == wrong and m["oracle"] == claim
        # the winner and value claims still agree; the witness does not
        verdict = Verdict.from_openings(claim)
        assert Verdict.from_openings(wrong) == \
            Verdict(verdict.winner, verdict.grundy, len(claim))


def test_verify_reports_a_raising_solver_as_a_mismatch(monkeypatch):
    # a solver bug is a failed check (exit 1), not a usage error (exit 2)
    original = solvers.connected_cycle_values

    def broken(n):
        if n == 5:
            raise ValueError("cycle solver broke")
        return original(n)

    monkeypatch.setattr(solvers, "connected_cycle_values", broken)
    code, out, err = run_cli(["verify", "--family", "cycle-connected",
                              "--max-n", "6", "--json"])
    assert code == 1
    report = json.loads(out)
    assert report["instances"] == 4
    assert report["mismatches"] == [
        {"instance": {"n": 5},
         "solver": {"error": "ValueError: cycle solver broke"},
         "oracle": None}]


@pytest.mark.parametrize("family", ["path-free", "ladder"])
def test_verify_budget_caps_every_engine_search(family):
    # every claim is checked through opening_values, which the budget
    # reaches, in the free and in the connected game
    code, out, err = run_cli(["verify", "--family", family, "--max-n", "12",
                              "--budget", "5", "--json"])
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit: ")


@pytest.mark.parametrize("budget", [0, -3])
def test_verify_rejects_a_nonpositive_budget_before_the_sweep(budget):
    # the budget is the caller's error, not a mismatch of every instance
    with pytest.raises(ValueError, match="budget must be positive"):
        run_family("path-free", 4, budget=budget)


def test_verify_rejects_a_witness_that_leaves_a_winning_child(monkeypatch):
    # the corner is the ladder's winning opening; its neighbour is not
    original = solvers.ladder_connected_values

    def next_to_the_corner(n):
        values = original(n)
        values[0], values[1] = values[1], values[0]
        return values

    monkeypatch.setattr(solvers, "ladder_connected_values",
                        next_to_the_corner)
    code, out, _ = run_cli(["verify", "--family", "ladder", "--max-n", "7",
                            "--json"])
    assert code == 1
    report = json.loads(out)
    assert report["instances"] == 7
    assert [m["instance"]["n"] for m in report["mismatches"]] == [3, 6]
    for m in report["mismatches"]:
        claim, truth = m["solver"], m["oracle"]
        assert truth[:2] == [0, 3] and claim == [3, 0] + truth[2:]
        assert Verdict.from_openings(claim) == Verdict(Player.FIRST, 1, 1)
        assert Verdict.from_openings(truth) == Verdict(Player.FIRST, 1, 0)


def test_verify_catches_a_wrong_ladder_value_that_keeps_every_verdict(
        monkeypatch):
    # a 3 raised to 4 leaves the mex and the lowest 0 where they were,
    # so only the list, not a verdict, shows the error
    original = solvers.ladder_connected_values
    monkeypatch.setattr(solvers, "ladder_connected_values",
                        lambda n: [4 if v == 3 else v for v in original(n)])
    report = run_family("ladder", 13)
    assert report.instances == 13
    assert [m["instance"]["n"] for m in report.mismatches] == [3, 6, 9, 12]
    for m in report.mismatches:
        assert m["solver"] != m["oracle"]
        assert Verdict.from_openings(m["solver"]) == \
            Verdict.from_openings(m["oracle"])


# =====================================================================
# argument parsing and the process entry point
# =====================================================================

def _run_capturing_streams(argv):
    """Exit code, stdout and stderr of main, including what argparse
    prints on --help or a usage error."""
    code, out, err = run_cli(argv)
    # the verify table's elapsed column is the one nondeterministic field
    return code, out, re.sub(r"\d+\.\d+s\b", "", err)


def test_shared_parser_answers_like_a_fresh_one(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    cycle = write_graph(tmp_path, make_cycle(5))
    path12 = write_graph(tmp_path, make_path(12), name="p12.json")
    calls = [
        (["solve", "--graph", cycle, "--variant", "connected"], None),
        (["solve", "--graph", cycle, "--variant", "both"], None),
        (["verify", "--family", "ladder", "--max-n", "4", "--json"], None),
        (["verify", "--family", "ladder", "--max-n", "4"], None),
        (["solve", "--graph", cycle, "--variant", "connected",
          "--mode", "winner"], None),
        # the budget is read from the environment per call, not cached
        (["solve", "--graph", path12, "--variant", "free"], "3"),
        (["solve", "--graph", path12, "--variant", "free"], None),
        (["verify", "--help"], None),
        # the top-level parser alone: no command, or none it knows
        ([], None),
        (["-h"], None),
        (["bogus"], None),
        # a command's own parser, help and errors included
        (["solve", "--help"], None),
        (["gen", "--help"], None),
        (["play", "--help"], None),
        (["solve", "--graph", cycle, "--var", "free"], None),
        (["solve", "--variant", "free"], None),
        (["verify", "--family", "moebius"], None),
        # left over by the command's parser, reported by the top level
        (["solve", "--graph", cycle, "--variant", "free", "extra"], None),
    ]

    def run_all():
        results = []
        for argv, budget in calls:
            if budget is None:
                monkeypatch.delenv("P3_BUDGET", raising=False)
            else:
                monkeypatch.setenv("P3_BUDGET", budget)
            results.append(_run_capturing_streams(argv))
        return results

    cli._shared_parser.cache_clear()
    shared = run_all()
    info = cli._shared_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)

    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    fresh = run_all()
    assert shared == fresh
    # main enters a command's parser directly; the top-level parser
    # that would have handed argv to it answers alike
    monkeypatch.setattr(cli, "_parse_args",
                        lambda parser, argv: parser.parse_args(argv))
    assert run_all() == shared
    assert [code for code, _, _ in shared] == \
        [0, 2, 0, 0, 0, 3, 0, 0, 2, 0, 2, 0, 0, 0, 0, 2, 2, 2]
    assert "invalid choice: 'both'" in shared[1][2]
    assert shared[7][1].startswith("usage: p3game verify")
    assert shared[9][1].startswith("usage: p3game [-h]")
    assert shared[11][1].startswith("usage: p3game solve")
    assert shared[16][2].endswith("invalid choice: 'moebius' (choose from "
                                  + ", ".join(map(repr, sorted(FAMILIES)))
                                  + ")\n")
    assert shared[17][2].startswith("usage: p3game [-h]")
    assert shared[17][2].endswith("unrecognized arguments: extra\n")


def test_process_entry_point_matches_in_process_main(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    path = write_graph(tmp_path, make_ladder(6))

    def calls(cache_dir):
        solve = ["solve", "--graph", path, "--variant", "connected",
                 "--cache", str(tmp_path / cache_dir)]
        return [solve, solve,
                ["verify", "--family", "ladder", "--max-n", "4", "--json"],
                ["solve", "--graph", path, "--variant", "both"]]

    in_process = [_run_capturing_streams(argv) for argv in calls("a")]
    for argv, (code, out, err) in zip(calls("b"), in_process):
        proc = _run_python("-m", "p3game", *argv)
        assert proc.returncode == code
        assert proc.stdout == out
        if code == 2:
            assert proc.stderr == err
    assert [code for code, _, _ in in_process] == [0, 0, 0, 2]
    assert (tmp_path / "a" / "results.jsonl").read_bytes() == \
        (tmp_path / "b" / "results.jsonl").read_bytes()


# =====================================================================
# gen
# =====================================================================

def test_gen_ladder_to_file(tmp_path):
    out_path = tmp_path / "ladder.json"
    code, out, _ = run_cli(["gen", "--family", "ladder", "--n", "3",
                            "-o", str(out_path)])
    assert code == 0 and out == ""
    g = parse_graph(out_path.read_bytes())
    assert g.n == 6 and g.edge_count() == 7
    assert g == make_ladder(3)


def test_gen_caterpillar_to_stdout():
    code, out, _ = run_cli(["gen", "--family", "caterpillar", "--n", "9",
                            "--seed", "3", "-o", "-"])
    assert code == 0
    assert out.endswith("\n")
    g = parse_graph(out.encode())
    assert g == random_caterpillar(9, random.Random(3))


def test_gen_cograph_is_seeded():
    code, out, _ = run_cli(["gen", "--family", "cograph", "--n", "9",
                            "--seed", "3", "-o", "-"])
    assert code == 0
    assert parse_graph(out.encode()) == random_cograph(9, random.Random(3))


def test_gen_tree_is_seeded_and_deterministic():
    argv = ["gen", "--family", "tree", "--n", "9", "--seed", "5", "-o", "-"]
    code1, out1, _ = run_cli(argv)
    code2, out2, _ = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert parse_graph(out1.encode()) == random_tree(9, random.Random(5))


def test_gen_chordal_is_seeded(tmp_path):
    code, out, _ = run_cli(["gen", "--family", "chordal", "--n", "7",
                            "--seed", "2", "-o", "-"])
    assert code == 0
    assert parse_graph(out.encode()) == \
        random_biconnected_chordal(7, random.Random(2))


def test_gen_star_with_no_leaves_is_a_single_vertex():
    code, out, _ = run_cli(["gen", "--family", "star", "--n", "0", "-o", "-"])
    assert code == 0
    assert parse_graph(out.encode()).n == 1


@pytest.mark.parametrize("argv, fragment", [
    (["gen", "--family", "cycle", "--n", "2", "-o", "-"], "needs --n >= 3"),
    (["gen", "--family", "path", "-o", "-"], "needs --n >= 1"),
    (["gen", "--family", "caterpillar", "-o", "-"], "needs --n >= 1"),
    (["gen", "--family", "cograph", "--n", "0", "-o", "-"], "needs --n >= 1"),
    # caterpillars and cographs are sized families, drawn from --n alone
    (["gen", "--family", "caterpillar", "--feet", "0,1,0", "-o", "-"],
     "unrecognized arguments: --feet"),
    (["gen", "--family", "cograph", "--cotree", "t.json", "-o", "-"],
     "unrecognized arguments: --cotree"),
])
def test_gen_parameter_errors(argv, fragment):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert fragment in err


def test_gen_to_an_unwritable_path_is_a_usage_error(tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(["gen", "--family", "path", "--n", "3",
                              "-o", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write graph file %s:" % target)
    assert not target.exists()


# =====================================================================
# play
# =====================================================================

def test_play_engine_first_wins_a_winning_cycle(tmp_path):
    # connected game on C_5 is a first-player win, so the engine moving
    # first beats any scripted opposition
    path = write_graph(tmp_path, make_cycle(5))
    replies = "".join("%d\n" % v for v in range(5)) * 5
    code, out, _ = run_cli(["play", "--graph", path, "--variant",
                            "connected", "--human", "second"], replies)
    assert code == 0
    assert out.startswith("connected game on 5 vertices")
    assert "engine plays" in out
    assert "no legal moves for you; engine wins." in out


def test_play_engine_second_wins_a_losing_cycle(tmp_path):
    # connected game on C_6 is a second-player win, so the engine moving
    # second beats any scripted opposition
    path = write_graph(tmp_path, make_cycle(6))
    replies = "".join("%d\n" % v for v in range(6)) * 6
    code, out, _ = run_cli(["play", "--graph", path, "--variant",
                            "connected", "--human", "first"], replies)
    assert code == 0
    assert "no legal moves for you; engine wins." in out


def test_play_short_free_game_script(tmp_path):
    path = write_graph(tmp_path, make_path(2))
    code, out, _ = run_cli(["play", "--graph", path, "--variant", "free",
                            "--human", "first"], "0\n")
    assert code == 0
    assert "engine plays 1" in out
    assert "no legal moves for you; engine wins." in out


def test_play_illegal_moves_reprompt_without_burning_the_turn(tmp_path):
    path = write_graph(tmp_path, make_path(4))
    script = "9\nx\n" + "".join("%d\n" % v for v in range(4)) * 4
    code, out, _ = run_cli(["play", "--graph", path, "--variant",
                            "connected", "--human", "first"], script)
    assert code == 0
    assert "illegal move '9'" in out
    assert "illegal move 'x'" in out
    assert out.count("win") >= 1


def test_play_quit_and_eof_end_the_session(tmp_path):
    path = write_graph(tmp_path, make_cycle(4))
    for script in ("q\n", "quit\n", ""):
        code, out, _ = run_cli(["play", "--graph", path, "--variant", "free",
                                "--human", "first"], script)
        assert code == 0
        assert out.rstrip().endswith("session ended.")


def test_best_move_is_optimal_from_every_reachable_position():
    # the play command must never lose a won position, which reduces to
    # best_move always picking a zero-valued child when one exists
    for g in connected_atlas_graphs(6):
        for variant in (Variant.FREE, Variant.CONNECTED):
            table = TranspositionTable(g, 1_000_000)
            seen = set()
            stack = [start_position(g, variant)]
            while stack:
                pos = stack.pop()
                if pos.labeled in seen:
                    continue
                seen.add(pos.labeled)
                moves = sorted(bits(legal_moves(pos)))
                if not moves:
                    assert best_move(pos, table) is None
                    continue
                value = grundy(pos, table)
                chosen = best_move(pos, table)
                assert chosen in moves
                if value != 0:
                    assert grundy(apply_move(pos, chosen), table) == 0
                else:
                    assert chosen == moves[0]
                for x in moves:
                    stack.append(apply_move(pos, x))
