"""Golden CLI outputs: `hilbert`, `betti` and `tables --which 2` must print
byte-identical payloads to the ones frozen in tests/data/golden_cli.json.

The frozen file holds, per argument vector, the exit code and stdout.  It was
written once, by the release that still peeled one curve per reduction step;
a refactor that changes any byte of these payloads is a behaviour change, not
a cleanup.
"""

import io
import json
from pathlib import Path

import pytest

from sixpoints.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_cli.json"

TYPES = ("1", "48", "67", "86", "90")
MULTS = ("0,0,0,0,0,0", "1,1,1,1,1,1", "3,3,3,3,3,3", "3,1,0,2,0,1",
         "20,45,100,63,81,37")
FORMATS = ("text", "json", "csv")

CASES = (
    [[cmd, "--type", t, "--mults", m, "--format", f]
     for cmd in ("hilbert", "betti") for t in TYPES for m in MULTS for f in FORMATS]
    + [[cmd, "--type", "86", "--mults", "200,200,200,200,200,200", "--format", f]
       for cmd in ("hilbert", "betti") for f in FORMATS]
    + [["tables", "--which", "2", "--format", f] for f in FORMATS]
)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def golden():
    return {" ".join(g["argv"]): g for g in json.loads(GOLDEN.read_text())}


def test_golden_file_covers_exactly_the_cases(golden):
    assert set(golden) == {" ".join(argv) for argv in CASES}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_is_byte_identical(golden, argv):
    want = golden[" ".join(argv)]
    assert run(argv) == (want["code"], want["stdout"])
