import csv
import io
import json
import os
import re
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import sixpoints
from sixpoints import (
    ConsistencyError, DivisorClass, cli, fatpoints, format_negset, parse_negset, table1_text,
    typeenum,
)
from sixpoints.cli import MAX_SAMPLES, _Output, _write_json, main


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


# keys and strings with quotes, backslashes, control and non-ASCII characters
_text = st.text(st.sampled_from('a"\\\n\t\x00\x1f\x7fé€😀 /'), max_size=6) | st.text(max_size=6)
_scalars = (st.integers() | st.integers(-(10**40), 10**40) | st.booleans() | st.none()
            | st.floats() | _text)
_payloads = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=5) | st.lists(st.integers(), max_size=5)
    | st.lists(inner, max_size=3).map(tuple) | st.dictionaries(_text, inner, max_size=5)
    # records: dicts of ints with one key order, the writer's %d template path
    | st.lists(_text, max_size=3, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries({k: st.integers() for k in keys}), max_size=4)),
    max_leaves=30,
)


class _Int(int):
    """An int subclass whose str differs from json's encoding of it."""

    def __str__(self):
        return "not json"


@given(_payloads)
@example([True, 1])
@example([1, False])
@example({"a": [], "b": {}, "c": [[], {}, [[1, -2]], {"d": None}], 'q"\\\x01é': -(10**30)})
@example([{"shift": 3, "mult": 1}, {"shift": 4, "mult": 2}, {"shift": -5, "mult": 0}])
@example({"F0": [{"%d": 1, '%(a)s"\\': 2}, {"%d": 3, '%(a)s"\\': 4}]})  # % in the keys
@example([{"shift": 3, "mult": 1}, {"shift": 4, "mult": True}])
@example([{"shift": 3, "mult": 1}, {"mult": 2, "shift": 4}])
@example([{}, {}])
@example([{"a": 2**64 + 1, "b": -(2**70)}, {"a": 10**30, "b": 2**64}])
@example([{"a": 1}, {"a": _Int(2)}])
def test_json_writer_matches_the_indented_stdlib_encoder(payload):
    out = io.StringIO()
    _write_json(_Output(str, lambda: payload, list), out)
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"


def test_a_call_renders_only_the_format_it_prints(monkeypatch):
    # betti's text output is the only one that writes the modules as R[-j]^m
    def text_rendered(shifts):
        raise AssertionError("the text renderer ran")

    monkeypatch.setattr(cli, "format_shifts", text_rendered)
    argv = ["betti", "--type", "86", "--mults", "100,90,80,70,60,50"]
    code, out = run([*argv, "--format", "json"])
    assert code == 0 and json.loads(out)["F0"]
    code, out = run([*argv, "--format", "csv"])
    assert code == 0 and out.startswith("module,shift,mult\nF0,")
    with pytest.raises(AssertionError, match="the text renderer ran"):
        run(argv)


def test_classify_json():
    code, out = run(["types", "classify", "--neg", "0: AB, CD; 2: ABCDEF",
                     "--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["id"] == 16
    assert record["label"] == "3A_1d"
    assert record["torsion"] == "0"
    assert len(record["classes"]) == 3
    assert parse_negset(record["canonical"])


def test_classify_text_round_trips():
    code, out = run(["types", "classify", "--neg", "0: DE; 1: ABC"])
    assert code == 0
    canonical = next(line.split(": ", 1)[1] for line in out.splitlines()
                     if line.startswith("canonical:"))
    assert parse_negset(canonical)


def test_types_list():
    code, out = run(["types", "list"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 91
    assert lines[1].startswith("1\tempty")
    assert lines[90].startswith("90\tE_6")


def test_betti_closing_example():
    code, out = run(["betti", "--type", "86", "--mults", "3,3,3,3,3,3"])
    assert code == 0
    assert "F0: R[-9]^3 + R[-8]^3 + R[-6]" in out
    assert "F1: R[-10]^3 + R[-9]^3" in out


def test_betti_json_schema():
    code, out = run(["betti", "--type", "86", "--mults", "3,3,3,3,3,3",
                     "--format", "json"])
    record = json.loads(out)
    assert record["F0"] == [{"shift": 6, "mult": 1}, {"shift": 8, "mult": 3},
                            {"shift": 9, "mult": 3}]
    assert record["F1"] == [{"shift": 9, "mult": 3}, {"shift": 10, "mult": 3}]
    assert record["degZ"] == 36
    assert record["hilbert_I"][:8] == [0, 0, 0, 0, 0, 0, 1, 3]


def test_hilbert_text():
    code, out = run(["hilbert", "--type", "1", "--mults", "1,1,1,1,1,1"])
    assert code == 0
    assert "h_Z: 1, 3, 6" in out


def test_hilbert_accepts_letter_notation_and_reports_reduction():
    code, out = run(["hilbert", "--type", "0: EF", "--mults", "0,0,0,0,1,2"])
    assert code == 0
    assert "reduced: 0, 0, 0, 0, 2, 1" in out


def test_hilbert_tmax_extends_display():
    code, out = run(["hilbert", "--type", "1", "--mults", "1,1,1,1,1,1",
                     "--tmax", "5", "--format", "csv"])
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "h_I", "h_Z"]
    assert len(rows) == 7  # header + t = 0..5
    code, out = run(["hilbert", "--type", "1", "--mults", "1,1,1,1,1,1",
                     "--tmax", "10000", "--format", "csv"])
    assert code == 0
    assert len(out.splitlines()) == 10002  # header + t = 0..10000, the largest accepted
    code, out = run(["hilbert", "--type", "1", "--mults", "1,1,1,1,1,1",
                     "--tmax", "0", "--format", "csv"])
    assert code == 0
    assert len(out.splitlines()) == 4  # tmax 0, the smallest accepted, shows t = 0..tail_from


def test_tables_one_matches_embedded_file():
    code, out = run(["tables", "--which", "1"])
    assert code == 0
    assert out == table1_text()


def test_tables_two_lists_cases():
    code, out = run(["tables", "--which", "2"])
    assert code == 0
    assert "case 2a (3 types): 34, 68, 87" in out
    assert "case 2b3 (8 types): 17, 41, 45, 65, 75, 77, 80, 86" in out


def test_csv_outputs_are_parseable_with_lf():
    code, out = run(["types", "list", "--format", "csv"])
    assert code == 0
    assert "\r" not in out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["id", "label", "graph", "torsion", "neg"]
    assert len(rows) == 91


def test_verify_quick():
    code, out = run(["verify", "--seed", "1", "--samples", "5"])
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines())


def test_verify_rejects_nonpositive_samples():
    for samples in ("0", "-3", str(MAX_SAMPLES + 1), "1000000"):
        assert run(["verify", "--samples", samples]) == (1, "")


@pytest.fixture
def catalog_without_last_row(serve_catalog):
    serve_catalog(table1_text().splitlines(keepends=True)[:-1])


def test_verify_fails_on_a_catalog_missing_an_orbit(catalog_without_last_row):
    code, out = run(["verify", "--samples", "1"])
    assert code == 2
    assert "FAIL type count: enumeration found 1 orbit(s) missing from the catalog" in out


@pytest.fixture
def catalog_with_wrong_torsion(serve_catalog):
    lines = table1_text().splitlines(keepends=True)
    assert lines[5] == "5\t2A_1a\t0: AB, CD\t0\n"
    lines[5] = "5\t2A_1a\t0: AB, CD\tZ2\n"
    serve_catalog(lines)


def test_verify_reports_a_catalog_that_fails_to_build(catalog_with_wrong_torsion):
    # build_types raises ConsistencyError inside every check that loads the
    # types; each records it as a FAIL instead of aborting the whole report
    code, out = run(["verify", "--samples", "1"])
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 9
    error = "type 5: computed torsion 0 does not match catalog Z2"
    failed = [line for line in lines if line.startswith("FAIL")]
    assert [line.split(":")[0] for line in failed] == [
        "FAIL lines per graph", "FAIL type count", "FAIL graph census", "FAIL fat point schemes",
        "FAIL multiplication rank bounds", "FAIL special classes",
    ]
    assert all(line.endswith(error) for line in failed)
    assert [line.split(":")[0] for line in lines if line.startswith("PASS")] == [
        "PASS lattice signature", "PASS candidate pool", "PASS reduction potential positivity",
    ]


def test_a_bad_row_fails_only_the_calls_that_build_it(request, capsys):
    # a type id builds its own row alone; a listing builds and checks them all
    argv = ["hilbert", "--type", "6", "--mults", "3,2,1,0,0,0"]
    good = run(argv)
    assert good[0] == 0
    request.getfixturevalue("catalog_with_wrong_torsion")
    assert run(argv) == good
    capsys.readouterr()
    assert run(["hilbert", "--type", "5", "--mults", "3,2,1,0,0,0"]) == (2, "")
    assert "type 5: computed torsion 0 does not match catalog Z2" in capsys.readouterr().err
    assert run(["types", "list"]) == (2, "")


def test_hilbert_by_id_does_not_build_the_catalog(monkeypatch):
    def refuse():
        raise AssertionError("hilbert --type ID built every type")

    monkeypatch.setattr(typeenum, "enumerate_types", refuse)
    monkeypatch.setattr(cli, "enumerate_types", refuse)
    typeenum._build_type.cache_clear()
    code, out = run(["hilbert", "--type", "61", "--mults", "5,4,3,2,1,0"])
    assert code == 0
    assert out.startswith("type: 61 (")


def test_a_type_id_takes_multiplicities_in_the_canonical_labelling():
    # row 7 reads "0: DE; 1: ABC"; its canonical classes are "0: AB; 1: CDE",
    # as types list --format json and types classify show
    mults = ["--mults", "3,2,1,0,0,0"]
    by_id = run(["hilbert", "--type", "7", *mults])
    assert by_id == run(["hilbert", "--type", "0: AB; 1: CDE", *mults])
    assert "h_I: 0, 0, 0, 1, 5 " in by_id[1]
    assert "h_I: 0, 0, 0, 2, 6, 11 " in run(["hilbert", "--type", "0: DE; 1: ABC", *mults])[1]
    record = json.loads(run(["types", "list", "--format", "json"])[1])[6]
    assert record["neg"] == "0: DE; 1: ABC"
    assert format_negset([DivisorClass(c[0], c[1:]) for c in record["classes"]]) == "0: AB; 1: CDE"
    assert "canonical: 0: AB; 1: CDE\n" in run(["types", "classify", "--neg", "0: DE; 1: ABC"])[1]


def test_verify_reports_a_catalog_row_the_parser_rejects(serve_catalog):
    # the catalog is the package's own data, so a ValidationError while the
    # types are built is a failed check (exit 2), not a rejected input (exit 1)
    lines = table1_text().splitlines(keepends=True)
    lines[5] = lines[5].replace("0: AB, CD", "0: BA, CD")
    serve_catalog(lines)
    code, out = run(["verify", "--samples", "1"])
    assert code == 2
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 6
    assert all(line.endswith("letters in 'BA' at position 3 must be strictly increasing")
               for line in failed)
    assert all("type 5: " in line for line in failed)  # the row is named


@pytest.fixture
def spurious_generators(monkeypatch):
    # one spurious generator, and so one spurious syzygy, in every degree t
    # with h_I(t - 1) > 0; table2 is cached, so it is cleared on both sides
    real = fatpoints._generators

    def mutant(h, nef_deg, alpha):
        gens = dict(real(h, nef_deg, alpha))
        for t in range(1, len(h)):
            if h[t - 1] > 0:
                gens[t] = gens.get(t, 0) + 1
        return tuple(sorted(gens.items()))

    monkeypatch.setattr(fatpoints, "_generators", mutant)
    fatpoints.table2.cache_clear()
    yield
    fatpoints.table2.cache_clear()


def test_verify_fails_on_spurious_generators(spurious_generators):
    # the resolution stays consistent (rank 1, dimensions add up), so only
    # the comparison with the paper's uniform multiplicity patterns sees it
    code, out = run(["verify", "--samples", "1"])
    assert code == 2
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert [line.split(":")[0] for line in failed] == ["FAIL fat point schemes"]
    assert "matches no known uniform multiplicity pattern" in failed[0]


def test_exit_code_on_bad_input():
    assert run(["hilbert", "--type", "95", "--mults", "1,1,1,1,1,1"])[0] == 1
    assert run(["types", "classify", "--neg", "0: BA"])[0] == 1
    assert run(["types", "classify", "--neg", ";"])[0] == 1
    assert run(["hilbert", "--type", "1", "--mults", "1,1"])[0] == 1
    assert run(["betti", "--type", "1", "--mults", "1,1,1,1,1,-1"])[0] == 1
    assert run(["hilbert", "--type", "1", "--mults", "a,b,c,d,e,f"])[0] == 1
    for tmax in ("10001", "1000000", "-1", "-5"):
        assert run(["hilbert", "--type", "1", "--mults", "1,1,1,1,1,1", "--tmax", tmax]) == (1, "")
    # the sum of the multiplicities is capped at 10000, checked before any reduction
    for cmd in ("hilbert", "betti"):
        for mults in ("10001,0,0,0,0,0", "1667,1667,1667,1667,1667,1666",
                      "1000000000,1000000000,1000000000,1000000000,1000000000,1000000000"):
            assert run([cmd, "--type", "90", "--mults", mults]) == (1, "")
    code, out = run(["betti", "--type", "1", "--mults", "10000,0,0,0,0,0"])
    assert code == 0 and "F0: R[-10000]^10001" in out


def test_exit_code_on_a_consistency_failure(monkeypatch, capsys):
    def broken(*args):
        raise ConsistencyError("resolution rank is not 1")

    monkeypatch.setattr(fatpoints, "analyze", broken)
    assert run(["betti", "--type", "1", "--mults", "1,1,1,1,1,1"]) == (2, "")
    err = capsys.readouterr().err
    assert err == "internal consistency failure: resolution rank is not 1\n"


def test_exit_code_on_unknown_flags():
    assert run(["bogus"])[0] == 1
    assert run(["tables", "--which", "3"])[0] == 1


def test_integers_on_the_command_line_are_ascii_digits(capsys):
    # --type is an id only when it is ASCII digits; anything else is read as a
    # neg set, which these are not
    for type_arg in ("\u0666\u0661", " 61", "61 ", "+61", "6_1"):
        assert run(["hilbert", "--type", type_arg, "--mults", "1,1,1,1,1,1"]) == (1, "")
        assert "syntax error" in capsys.readouterr().err
    assert run(["hilbert", "--type", "061", "--mults", "1,1,1,1,1,1"])[0] == 0
    # each --mults entry is ASCII digits with an optional leading "-", which
    # fatpoints then rejects as a sign
    for mults in ("1_0,1,1,1,1,1", "+1,1,1,1,1,1", " 1,1,1,1,1,1", "1,1,1,1,1,1 ",
                  "1,--1,1,1,1,1", "1,1,1,1,1,\u0661", "1,,1,1,1,1,1"):
        assert run(["hilbert", "--type", "61", "--mults", mults]) == (1, "")
        assert "multiplicities must be integers" in capsys.readouterr().err
    assert run(["hilbert", "--type", "61", "--mults", "1,-1,1,1,1,1"]) == (1, "")
    assert "multiplicities must be nonnegative" in capsys.readouterr().err
    # --tmax, --seed and --samples are ASCII digits with an optional leading "-";
    # int() would take each of these
    hilbert = ["hilbert", "--type", "1", "--mults", "1,1,1,1,1,1"]
    for argv in (hilbert + ["--tmax", "\u0665"], hilbert + ["--tmax", "1_0"],
                 ["verify", "--seed", "\u0663"], ["verify", "--seed", "+1"],
                 ["verify", "--samples", " 2"], ["verify", "--samples", "1_0"]):
        assert run(argv) == (1, "")
        assert "invalid int value" in capsys.readouterr().err
    for argv in (hilbert + ["--tmax", "05"], ["verify", "--seed", "-1", "--samples", "1"]):
        assert run(argv)[0] == 0


def _cold_run(argv, modules):
    """The modules of ``modules`` loaded after ``main(argv)`` in a fresh
    interpreter; -S keeps site's own imports out."""
    src = str(Path(sixpoints.__file__).parents[1])
    code = ("import io, sys; sys.path.insert(0, sys.argv[1]); from sixpoints.cli import main; "
            "main(sys.argv[2].split('|'), out=io.StringIO()); "
            "print(sorted(set(sys.argv[3].split()) & set(sys.modules)))")
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, src, "|".join(argv), " ".join(modules)],
        capture_output=True, text=True, check=True,
    )
    return done.stdout


def test_a_cold_hilbert_call_loads_only_what_it_runs():
    # the records are NamedTuples (dataclasses pulls inspect, ast and more),
    # the catalog is read through the package's loader (importlib.resources
    # pulls zipfile, tempfile and more), and verify imports its hashing and
    # RNG in the functions that use them
    modules = ("dataclasses", "hashlib", "random", "importlib.resources", "zipfile",
               "tempfile", "inspect")
    argv = ["hilbert", "--type", "61", "--mults", "1,1,1,1,1,1"]
    assert _cold_run(argv, modules) == "[]\n"


def test_a_cold_verify_call_loads_its_hashing_and_rng():
    # the twin of the check above: the probe does see a module that is loaded
    loaded = _cold_run(["verify", "--samples", "1"], ("hashlib", "random"))
    assert loaded == "['hashlib', 'random']\n"


def test_the_package_runs_from_a_zip_archive(tmp_path):
    package = Path(sixpoints.__file__).parent
    archive = tmp_path / "sixpoints.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in package.rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, path.relative_to(package.parent).as_posix())
    done = subprocess.run(
        [sys.executable, "-S", "-W", "error", "-m", "sixpoints", "tables", "--which", "1"],
        capture_output=True, check=True, cwd=tmp_path,  # -m puts the cwd first on sys.path
        env={**os.environ, "PYTHONPATH": str(archive)},
    )
    assert done.stdout == (package / "data" / "table1.tsv").read_bytes()


def test_version_is_the_newest_release_in_the_changelog():
    changes = (Path(__file__).parents[1] / "CHANGES.md").read_text(encoding="utf-8")
    releases = [tuple(map(int, v)) for v in re.findall(r"\bVersion (\d+)\.(\d+)\.(\d+)\b", changes)]
    assert releases, "CHANGES.md names no release"
    assert sixpoints.__version__ == "%d.%d.%d" % max(releases)
