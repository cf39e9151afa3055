import csv
import io
import json

from sixpoints import parse_negset, table1_text
from sixpoints.cli import main


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


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
    for samples in ("0", "-3"):
        assert run(["verify", "--samples", samples]) == (1, "")


def test_exit_code_on_bad_input():
    assert run(["hilbert", "--type", "95", "--mults", "1,1,1,1,1,1"])[0] == 1
    assert run(["types", "classify", "--neg", "0: BA"])[0] == 1
    assert run(["hilbert", "--type", "1", "--mults", "1,1"])[0] == 1
    assert run(["betti", "--type", "1", "--mults", "1,1,1,1,1,-1"])[0] == 1
    assert run(["hilbert", "--type", "1", "--mults", "a,b,c,d,e,f"])[0] == 1
    for tmax in ("10001", "1000000"):
        assert run(["hilbert", "--type", "1", "--mults", "1,1,1,1,1,1", "--tmax", tmax]) == (1, "")


def test_exit_code_on_unknown_flags():
    assert run(["bogus"])[0] == 1
    assert run(["tables", "--which", "3"])[0] == 1
