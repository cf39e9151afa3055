"""The parser's own output: help, usage and argument errors.

`main` parses a call that names a subcommand with that subcommand's parser
as the root, where `types` has only the action named by argv[1] if it names
one, and both otherwise.  It builds the whole command tree only for the
top-level help, a bad or missing command and leftover arguments.  The
frozen file tests/data/cli_surface.json holds, per argument vector and
COLUMNS width, the exit code (from `main`'s return or its `SystemExit`),
stdout and stderr, written once with `capture` by release 8.0.0, which
built the whole tree on every call, under Python 3.11.  The cases cover the
top-level help, each subcommand's help, an empty argv, a bad command or
flag, missing required flags, bad choices and bad integers, and the
top-level "unrecognized arguments" error that follows a good command.
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from sixpoints import cli, verify

FROZEN = Path(__file__).parent / "data" / "cli_surface.json"

COLUMNS = ("80", "57")
M = ["--type", "1", "--mults", "1,1,1,1,1,1"]
CASES = [
    [], ["-h"], ["--help"], ["bogus"], ["--bogus"], ["Betti"], ["-h", "betti"],
    ["types", "-h"], ["types", "list", "-h"], ["types", "classify", "-h"],
    ["hilbert", "-h"], ["betti", "-h"], ["tables", "-h"], ["verify", "-h"],
    ["types"], ["types", "bogus"], ["types", "classify"], ["tables"],
    ["hilbert", "--type", "1"], ["betti", "--mults", "1,1,1,1,1,1"],
    ["hilbert", *M, "--format", "xml"], ["tables", "--which", "3"],
    ["hilbert", *M, "--tmax", "x"], ["verify", "--seed", "x"],
    ["betti", *M, "--tmax", "3"], ["betti", *M, "extra"], ["types", "list", "extra"],
]


def capture(argv) -> dict:
    """Exit code, stdout and stderr of one `main` call, with the payload
    writer's stream folded into stdout."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv, out=stdout)
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


@pytest.fixture(scope="module")
def frozen():
    return {(" ".join(e["argv"]), e["columns"]): e for e in json.loads(FROZEN.read_text())}


def test_frozen_file_covers_exactly_the_cases(frozen):
    assert set(frozen) == {(" ".join(argv), c) for argv in CASES for c in COLUMNS}


@pytest.mark.parametrize("columns", COLUMNS)
@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv) or "(empty)")
def test_parser_output_is_byte_identical(frozen, monkeypatch, argv, columns):
    monkeypatch.setenv("COLUMNS", columns)
    want = frozen[" ".join(argv), columns]
    assert capture(argv) == {k: want[k] for k in ("code", "stdout", "stderr")}


def test_main_reads_sys_argv_when_given_none(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (["betti", *M], ["betti", *M, "extra"], ["bogus"], []):
        monkeypatch.setattr(sys, "argv", ["sixpoints", *argv])
        assert capture(None) == capture(argv)


def _subparsers(parser, dest) -> dict:
    (sub,) = [a for a in parser._actions if a.dest == dest]
    return sub.choices


def _commands(parser) -> list[str]:
    return list(_subparsers(parser, "command"))


def _types_actions(argv) -> list[str]:
    """The actions of the `types` root parser `main` builds for ``argv``."""
    root = cli._Parser(prog="sixpoints types")
    cli._add_types(root, argv)
    return list(_subparsers(root, "types_command"))


def test_only_the_named_subcommand_is_built():
    # the tree holds every subcommand, and its types every action
    tree = cli.build_parser()
    types = _subparsers(tree, "command")["types"]
    assert (_commands(tree), list(_subparsers(types, "types_command"))) == (
        list(cli.COMMANDS), list(cli.TYPES_ACTIONS))
    # a types call builds the action it names
    for action in cli.TYPES_ACTIONS:
        for argv in (["types", action], ["types", action, "--format", "json"]):
            assert _types_actions(argv) == [action]
    both = list(cli.TYPES_ACTIONS)
    for argv in (["types"], ["types", "bogus"], ["types", "-h"], ["types", "Classify"],
                 ["types", ["list"]], []):
        assert _types_actions(argv) == both


def test_main_builds_one_subcommand_per_call(monkeypatch):
    """A call that names a subcommand builds that subcommand's parser as the
    root, and for `types` the parser of the action it names; the tree is
    built only for the top-level help, a bad or missing command and
    leftover arguments.  Counted per `_Parser` made, by prog, and per tree."""
    made, trees = [], []
    init, build = cli._Parser.__init__, cli.build_parser
    monkeypatch.setattr(cli._Parser, "__init__",
                        lambda self, *a, **kw: made.append(kw["prog"]) or init(self, *a, **kw))
    monkeypatch.setattr(cli, "build_parser", lambda: trees.append("tree") or build())

    def built(argv):
        made.clear()
        trees.clear()
        capture(argv)
        return made[:], len(trees)

    for argv in (["hilbert", *M], ["betti", *M], ["tables", "--which", "1"], ["verify", "-h"],
                 ["betti", "--type", "1"], ["hilbert", "-h"]):
        assert built(argv) == ([f"sixpoints {argv[0]}"], 0)
    for action in cli.TYPES_ACTIONS:
        assert built(iter(["types", action, "-h"])) == (
            ["sixpoints types", f"sixpoints types {action}"], 0)
    assert built(["types", "list"]) == (["sixpoints types", "sixpoints types list"], 0)
    whole = 1 + len(cli.COMMANDS) + len(cli.TYPES_ACTIONS)
    for argv in ([], ["-h"], ["bogus"], ["-h", "betti"]):
        progs, tree = built(argv)
        assert (progs[0], len(progs), tree) == ("sixpoints", whole, 1)
    # leftover arguments: the root, then the whole tree for its error
    progs, tree = built(["betti", *M, "extra"])
    assert (progs[:2], len(progs), tree) == (["sixpoints betti", "sixpoints"], 1 + whole, 1)
    progs, tree = built(["types", "list", "extra"])
    assert (progs[:3], len(progs), tree) == (
        ["sixpoints types", "sixpoints types list", "sixpoints"], 2 + whole, 1)


def _tree_main(argv, out) -> int:
    """`main` as it was when every call parsed with the tree."""
    try:
        args = cli.build_parser().parse_args(argv)
        result = args.handler(args)
        cli._WRITERS[args.format](result, out)
    except cli._UsageError as exc:
        print(exc.parser.format_usage(), file=sys.stderr, end="")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except cli.ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return result.code


def _corpus(count: int, seed: int) -> list[list[str]]:
    """Seeded argument vectors: a command (none, a bad one, each of COMMANDS,
    each `types` action), for half of them the flags a call needs, then 0-7
    tokens from every subcommand's flags and values, help flags and their
    abbreviation, `--`, an `=` form, a negative number and stray words."""
    needs = {"hilbert": M, "betti": M, "tables": ["--which", "2"],
             "types classify": ["--neg", "0: AB"]}
    commands = ["", "bogus", *cli.COMMANDS, *(f"types {a}" for a in cli.TYPES_ACTIONS)]
    tokens = ["list", "classify", "--neg", "0: AB, CD; 2: ABCDEF", "0: AB", "--type", "1",
              "86", "--mults", "1,1,1,1,1,1", "2,1,0,0,0,0", "1,1", "--format", "json",
              "csv", "text", "xml", "--tmax", "3", "x", "--which", "2", "3", "--seed",
              "--samples", "0", "-h", "--help", "--he", "--", "--format=json", "-1",
              "--t", "--s", "--mu", "extra", "Betti", "hilbert"]
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        command = rng.choice(commands)
        argv = command.split()
        if rng.random() < 0.5:
            argv += needs.get(command, [])
        corpus.append(argv + rng.choices(tokens, k=rng.randint(0, 7)))
    return corpus


def _stub_suite(seed=0, samples_per_type=verify.DEFAULT_SAMPLES):
    # the real suite's argument checks, without the suite
    verify._check_count(samples_per_type)
    verify._check_seed(seed)
    return verify.InvariantReport(seed, (verify.CheckResult("stub", True, str(samples_per_type)),))


@pytest.mark.parametrize("columns", COLUMNS)
def test_main_matches_the_whole_tree_on_a_seeded_corpus(monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    monkeypatch.setattr(verify, "run_invariant_suite", _stub_suite)
    corpus = _corpus(2000, seed=30)
    codes = set()
    for argv in corpus:
        got = capture(argv)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = _tree_main(argv, stdout)
            except SystemExit as exc:
                code = exc.code
        assert got == {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}, argv
        codes.add(code)
    assert codes == {0, 1}  # help and successful calls, and rejected ones
