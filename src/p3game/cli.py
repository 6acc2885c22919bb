"""Command-line front end: solve instances, verify solvers against the
engine, generate family graphs, and play against the engine.

Conventions: machine-readable JSON goes to standard output (sorted keys,
so identical invocations are byte-identical); human-readable tables and
diagnostics go to standard error.  Exit codes: 0 success/pass,
1 verification mismatch, 2 usage or parse error, 3 resource limit.
The node budget comes from --budget, else the P3_BUDGET environment
variable, else the engine default.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import random
import sys

from .closure import (Position, Variant, apply_move, legal_moves,
                      start_position)
from .engine import (DEFAULT_BUDGET, Player, ResourceLimitError,
                     TranspositionTable, Verdict, best_move, decide)
from .graphs import (SIZED_FAMILIES, GraphFormatError, bits, emit_graph,
                     graph_digest, parse_graph)
from .verify import FAMILIES, run_family


class CacheCorruptionError(RuntimeError):
    """A cache line is unreadable, or a cache entry disagrees with a newly
    computed or stored verdict."""


# a stripped line holds exactly one record: raw_decode stops after the
# first JSON value, so trailing data is caught by comparing offsets
_decode_record = json.JSONDecoder().raw_decode

# (bytes, entries, line count) of the longest newline-terminated head of
# the cache file the last load validated.  Entries and errors depend on
# a file's bytes alone, so a file that starts with these bytes needs
# only its remainder decoded, whichever directory it sits in.
_validated = (b"", {}, 0)


class ResultCache:
    """Append-only store of verdicts, one JSON object per line, keyed by
    (graph content hash, variant).  An existing entry is never replaced;
    attempting to record a different verdict for the same key raises, and
    so does a line that is not a complete record.

    Loading decodes only the lines past the head the previous load in
    this process validated (see _validated), so a reload after an append
    costs one read of the file plus one decode per new line.  Entries
    are frozen Verdicts, shared with later loads.  A record's verdict
    has exactly the keys winner, grundy and witness."""

    FILENAME = "results.jsonl"

    def __init__(self, directory: str):
        global _validated
        self.path = os.path.join(directory, self.FILENAME)
        self._entries: dict[tuple[str, str], Verdict] = {}
        # put starts a new line when the file ends inside one
        self._unterminated = False
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except (FileNotFoundError, NotADirectoryError):
            # no file, or no directory yet: make it for the first put;
            # a file in the directory's path makes makedirs raise
            os.makedirs(directory, exist_ok=True)
            return
        self._unterminated = data[-1:] not in (b"", b"\n", b"\r")
        head, entries, lines = _validated
        if data.startswith(head):
            self._entries = dict(entries)
        else:
            head, lines = b"", 0
        # the cut follows a \n byte: it ends a line, a \r before it is
        # in the head, and no UTF-8 sequence spans it
        cut = data.rfind(b"\n") + 1
        if cut > len(head):
            lines = self._validate(data[len(head):cut], lines)
            _validated = (data[:cut], dict(self._entries), lines)
        self._validate(data[cut:], lines)

    def _validate(self, data: bytes, lines: int) -> int:
        """Add the records of ``data``, whose first line is line
        ``lines + 1`` of the file, and return the number of its last
        line.  Raises CacheCorruptionError naming the first bad line."""
        # undecodable bytes become U+FFFD and fail as non-JSON below;
        # \r\n and lone \r end lines as in text mode, and only these:
        # splitlines would also split on U+2028 and form feeds
        text = data.decode("utf-8", "replace")
        text = text.replace("\r\n", "\n").replace("\r", "\n")
        for number, line in enumerate(text.split("\n"), lines + 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = _decode_record(line)
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
                key = (obj["graph"], obj["variant"])
                fields = obj["verdict"]
                prior = self._entries.get(key)  # key must hash
                # solve prints these; check them here, not there
                verdict = Verdict(Player(fields["winner"]), fields["grundy"],
                                  fields["witness"])
                if len(fields) != 3:  # else unequal lines, equal verdicts
                    raise ValueError("verdict has an extra key")
            except (ValueError, LookupError, TypeError,
                    RecursionError) as exc:
                raise CacheCorruptionError(
                    "%s line %d is not a cache record: %s: %s"
                    % (self.path, number, type(exc).__name__, exc))
            if prior is not None and prior != verdict:
                raise CacheCorruptionError(
                    "conflicting cache lines for %r" % (key,))
            self._entries[key] = verdict
        return lines + text.count("\n")

    def get(self, digest: str, variant: Variant):
        return self._entries.get((digest, variant.value))

    def put(self, digest: str, variant: Variant, verdict: Verdict) -> None:
        key = (digest, variant.value)
        prior = self._entries.get(key)
        if prior is not None:
            if prior != verdict:
                raise CacheCorruptionError(
                    "refusing to overwrite cached verdict for %r" % (key,))
            return
        self._entries[key] = verdict
        record = {"graph": digest, "variant": variant.value,
                  "verdict": verdict.to_json_dict()}
        line = json.dumps(record, sort_keys=True) + "\n"
        if self._unterminated:
            line, self._unterminated = "\n" + line, False
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line)

    def __len__(self):
        return len(self._entries)


def _resolve_budget(args) -> int:
    value, source = args.budget, "--budget"
    if value is None:
        value, source = os.environ.get("P3_BUDGET"), "P3_BUDGET"
        if value is None:
            return DEFAULT_BUDGET
    try:
        budget = int(value)
        if budget < 1:
            raise ValueError
    except ValueError:
        raise GraphFormatError(
            "%s must be a positive integer, got %r" % (source, value))
    return budget


def _read_graph_file(path: str):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise GraphFormatError("cannot read graph file %s: %s" % (path, exc))
    return parse_graph(data)


# ---------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------

def cmd_solve(args, stdout, stderr) -> int:
    g = _read_graph_file(args.graph)
    if g.n < 1:
        raise GraphFormatError("cannot decide the game on an empty graph")
    variant = Variant(args.variant)
    budget = _resolve_budget(args)
    try:
        cache = ResultCache(args.cache) if args.cache else None
    except OSError as exc:
        raise GraphFormatError(
            "cannot open cache directory %s: %s" % (args.cache, exc))
    digest = graph_digest(g)

    # explicit None test: an empty cache is falsy through __len__
    verdict = cache.get(digest, variant) if cache is not None else None
    if verdict is None:
        verdict = decide(g, variant, TranspositionTable(g, budget))
        if cache is not None:
            try:
                cache.put(digest, variant, verdict)
            except OSError as exc:
                raise GraphFormatError(
                    "cannot write cache file %s: %s" % (cache.path, exc))
    elif (verdict.witness or 0) >= g.n:
        # the openings are exactly the vertices, in both variants; a
        # second-player win has no witness and passes as 0
        raise CacheCorruptionError(
            "%s holds witness %d for graph %s, which has %d vertices"
            % (cache.path, verdict.witness, digest, g.n))

    payload = verdict.to_json_dict()
    if args.mode == "winner":
        del payload["grundy"]
    print(json.dumps(payload, sort_keys=True), file=stdout)
    return 0


# ---------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------

def cmd_verify(args, stdout, stderr) -> int:
    budget = _resolve_budget(args)
    try:
        report = run_family(args.family, args.max_n, seed=args.seed,
                            budget=budget)
    except ValueError as exc:
        print("error: %s" % exc, file=stderr)
        return 2
    print(report.human_table(), file=stderr)
    if args.json:
        print(json.dumps(report.to_json_dict(), sort_keys=True), file=stdout)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------
# play
# ---------------------------------------------------------------------

def _print_board(pos: Position, stdout) -> None:
    labeled = sorted(bits(pos.labeled))
    print("labeled: %s" % (labeled if labeled else "{}"), file=stdout)


def cmd_play(args, stdout, stderr, stdin) -> int:
    g = _read_graph_file(args.graph)
    variant = Variant(args.variant)
    budget = _resolve_budget(args)
    table = TranspositionTable(g, budget)
    pos = start_position(g, variant)
    human_to_move = args.human == "first"
    mover_name = {True: "you", False: "engine"}

    print("%s game on %d vertices; enter a vertex id, or q to quit."
          % (variant.value, g.n), file=stdout)
    _print_board(pos, stdout)
    while True:
        moves = legal_moves(pos)
        if moves == 0:
            # normal play: whoever cannot move loses
            loser, winner = mover_name[human_to_move], mover_name[not human_to_move]
            print("no legal moves for %s; %s win%s." %
                  (loser, winner, "" if winner == "you" else "s"), file=stdout)
            return 0
        if human_to_move:
            print("your move %s: " % sorted(bits(moves)), file=stdout)
            line = stdin.readline()
            if not line or line.strip().lower() in ("q", "quit"):
                print("session ended.", file=stdout)
                return 0
            try:
                choice = int(line.strip())
                pos = apply_move(pos, choice)
            except ValueError:
                print("illegal move %r; legal moves: %s"
                      % (line.strip(), sorted(bits(moves))), file=stdout)
                continue
        else:
            choice = best_move(pos, table)
            print("engine plays %d" % choice, file=stdout)
            pos = apply_move(pos, choice)
        _print_board(pos, stdout)
        human_to_move = not human_to_move


# ---------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------

def _gen_graph(args):
    least, build = SIZED_FAMILIES[args.family]
    if args.n is None or args.n < least:
        raise GraphFormatError(
            "--family %s needs --n >= %d" % (args.family, least))
    return build(args.n, random.Random(args.seed))


def cmd_gen(args, stdout, stderr) -> int:
    data = emit_graph(_gen_graph(args))
    if args.output == "-":
        stdout.write(data.decode())
    else:
        try:
            with open(args.output, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise GraphFormatError(
                "cannot write graph file %s: %s" % (args.output, exc))
    return 0


# ---------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p3game",
        description="Solvers and an exhaustive engine for the P3-convexity "
                    "labelling game on graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one graph instance")
    p_solve.add_argument("--graph", required=True, help="graph JSON file")
    p_solve.add_argument("--variant", required=True,
                         choices=[v.value for v in Variant])
    p_solve.add_argument("--mode", default="grundy",
                         choices=["winner", "grundy"],
                         help="emit winner+witness only, or the full value")
    p_solve.add_argument("--budget", type=int, default=None,
                         help="node budget (table entries)")
    p_solve.add_argument("--cache", default=None,
                         help="directory for the append-only verdict cache")

    p_verify = sub.add_parser("verify",
                              help="sweep a family solver against the engine")
    p_verify.add_argument("--family", required=True,
                          choices=sorted(FAMILIES))
    p_verify.add_argument("--max-n", required=True, type=int, dest="max_n")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--json", action="store_true",
                          help="also emit the report as JSON on stdout")
    p_verify.add_argument("--budget", type=int, default=None)

    p_play = sub.add_parser("play", help="interactive game against the engine")
    p_play.add_argument("--graph", required=True)
    p_play.add_argument("--variant", required=True,
                        choices=[v.value for v in Variant])
    p_play.add_argument("--human", required=True, choices=["first", "second"])
    p_play.add_argument("--budget", type=int, default=None)

    p_gen = sub.add_parser("gen", help="generate a family graph file")
    p_gen.add_argument("--family", required=True,
                       choices=list(SIZED_FAMILIES))
    p_gen.add_argument("--n", type=int, default=None,
                       help="vertex count; leaf count for star, rung count "
                            "for ladder")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", required=True,
                       help="output path, or - for stdout")
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first main call and reused by every
    later call in the process.  Building it costs about 1 ms, ten times
    a cached solve of a small graph (about 0.1 ms, a third of it in
    parsing argv; see README).  It captures nothing from the
    environment: help width is read when help is printed, and P3_BUDGET
    when a command runs."""
    return build_parser()


def _parse_args(parser: argparse.ArgumentParser, argv: list):
    """``parser.parse_args(argv)``, parsed once: when argv[0] names a
    command, that command's parser takes argv[1:], as the top-level
    parser would hand them on, and the top-level parser reports what it
    leaves over.  Any other argv goes to the top-level parser."""
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error("unrecognized arguments: %s" % " ".join(extras))
    return args


def main(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    # argparse prints usage errors and --help to the process streams and
    # exits; route both to the caller's streams and return the code
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            args = _parse_args(_shared_parser(),
                               sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code
    try:
        if args.command == "solve":
            return cmd_solve(args, stdout, stderr)
        if args.command == "verify":
            return cmd_verify(args, stdout, stderr)
        if args.command == "play":
            return cmd_play(args, stdout, stderr, stdin)
        return cmd_gen(args, stdout, stderr)
    except (GraphFormatError, CacheCorruptionError) as exc:
        print("error: %s" % exc, file=stderr)
        return 2
    except (ResourceLimitError, MemoryError, OverflowError) as exc:
        # the last two: a graph whose "n" is too large to allocate its
        # rows for, whose error may carry no message
        print("resource limit: %s" % (str(exc) or "out of memory"),
              file=stderr)
        return 3
