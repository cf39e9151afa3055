"""The parser's own output: help, usage and argument errors.

`main` builds only the parser of the subcommand named by argv[0], and the
whole command tree otherwise; for `types`, only the action named by argv[1]
if it names one, and both otherwise.  The frozen file
tests/data/cli_surface.json holds, per argument vector and COLUMNS width,
the exit code (from `main`'s return or its `SystemExit`), stdout and stderr,
written once with `capture` by release 8.0.0, which built the whole tree on
every call, under Python 3.11.  The cases cover the top-level help, each
subcommand's help, an empty argv, a bad command or flag, missing required
flags, bad choices and bad integers, and the top-level "unrecognized
arguments" error that follows a good command.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from sixpoints import cli

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


def _types_actions(parser) -> list[str]:
    return list(_subparsers(_subparsers(parser, "command")["types"], "types_command"))


def test_only_the_named_subcommand_is_built():
    assert _commands(cli.build_parser(["betti"])) == ["betti"]
    assert _commands(cli.build_parser(["types"])) == ["types"]
    full = list(cli.COMMANDS)
    for other in ([], ["bogus"], ["-h"], ["Betti"], [["betti"]], ["-h", "betti"]):
        assert _commands(cli.build_parser(other)) == full
    # one level down: a types call builds the action it names
    for action in cli.TYPES_ACTIONS:
        for argv in (["types", action], ["types", action, "--format", "json"]):
            parser = cli.build_parser(argv)
            assert (_commands(parser), _types_actions(parser)) == (["types"], [action])
    both = list(cli.TYPES_ACTIONS)
    for argv in (["types"], ["types", "bogus"], ["types", "-h"], ["types", "Classify"],
                 ["types", ["list"]], [], ["bogus", "list"]):
        assert _types_actions(cli.build_parser(argv)) == both


def test_main_builds_one_subcommand_per_call(monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv: built.append(list(argv)) or build(argv))
    capture(["betti", *M])
    capture(["bogus"])
    capture(iter(["types", "list"]))
    capture([])
    assert built == [["betti", *M], ["bogus"], ["types", "list"], []]
