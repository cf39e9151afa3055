"""Golden CLI outputs: every subcommand (`types list`, `types classify`,
`hilbert`, `betti`, `tables --which 1|2` and `verify`) in every format must
print byte-identical payloads to the ones frozen in
tests/data/golden_cli.json.

The frozen file holds, per argument vector, the exit code and stdout.  Each
case was written once, by the release before the change it guards: the
`hilbert`, `betti` and `tables --which 2` cases by the release that still
peeled one curve per reduction step, the `verify` cases by release 9.0.0,
which replaced its checks, and the others by the release whose CLI
handlers still branched on the format.  A refactor that changes any byte of
these payloads is a behaviour change, not a cleanup.
"""

import hashlib
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
NEGSETS = ("", "0: AB, CD; 2: ABCDEF", "0: DE; 1: ABC")

CASES = (
    [[cmd, "--type", t, "--mults", m, "--format", f]
     for cmd in ("hilbert", "betti") for t in TYPES for m in MULTS for f in FORMATS]
    + [[cmd, "--type", "86", "--mults", "200,200,200,200,200,200", "--format", f]
       for cmd in ("hilbert", "betti") for f in FORMATS]
    + [["tables", "--which", w, "--format", f] for w in ("1", "2") for f in FORMATS]
    + [["types", "list", "--format", f] for f in FORMATS]
    + [["types", "classify", "--neg", n, "--format", f] for n in NEGSETS for f in FORMATS]
    + [["verify", "--seed", "0", "--samples", "2", "--format", f] for f in FORMATS]
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


# SHA-256 of `betti --format json` at the command line's multiplicity cap, on
# the inputs with the widest pairing lanes and the longest scans, frozen from
# the release before the pairings were packed into lanes
CAP_SHA256 = {
    ("74", "0,0,0,0,0,10000"): "1211cc1327b15f86d681c3acff4dccaf889afffe8bd3b4afb36b2721f6f078c0",
    ("88", "0,0,0,0,0,10000"): "3514dfecf99b80aa1ddc7e9a9c91a8cce239f162bce9d6830f5e7e650d87427c",
    ("90", "5000,5000,0,0,0,0"): "e00ff654dbd7fcadfacf158095ba11a479a4592a19059cc2a4117bf47d22aa56",
    ("86", "1667,1667,1667,1667,1666,1666"): "be9663c08e65ceb5c05b53cd5b004ecfe1e65874b82647fc417b4c8cf782d9de",
}


@pytest.mark.parametrize("type_arg, mults", CAP_SHA256, ids=" ".join)
def test_betti_at_the_cap_matches_frozen_digest(type_arg, mults):
    code, out = run(["betti", "--type", type_arg, "--mults", mults, "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CAP_SHA256[type_arg, mults]
