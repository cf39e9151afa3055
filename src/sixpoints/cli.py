"""Command line surface.

Subcommands: ``types list``, ``types classify --neg TEXT``,
``hilbert --type ID_OR_NEG --mults m1,..,m6``, ``betti`` with the same flags,
``tables --which 1|2`` and ``verify [--seed S]``.  Every subcommand accepts
``--format text|json|csv``.  Each subcommand's handler builds its result in
every format, and one writer per format prints the one asked for.  Payload
goes to stdout, diagnostics to stderr; exit code 0 means success, 1 a
rejected input, 2 an internal consistency failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import NamedTuple, Sequence

from . import fatpoints, verify
from .errors import ConsistencyError, ValidationError
from .fatpoints import format_shifts
from .lattice import DivisorClass
from .notation import format_negset, parse_negset
from .typeenum import ConfigurationType, classify, enumerate_types, table1_text, type_by_id


MAX_TMAX = 10_000  # `hilbert --tmax` limit: output size and memory grow with the range shown


class _UsageError(Exception):
    def __init__(self, message: str, parser: argparse.ArgumentParser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad flags instead of argparse's 2
        raise _UsageError(message, self)


def build_parser() -> _Parser:
    parser = _Parser(prog="sixpoints", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    types_p = sub.add_parser("types", help="list or classify configuration types")
    types_sub = types_p.add_subparsers(dest="types_command", required=True)
    lst = types_sub.add_parser("list", help="all 90 types")
    lst.set_defaults(handler=_types_list)
    add_format(lst)
    cls = types_sub.add_parser("classify", help="match a neg set to its type")
    cls.add_argument("--neg", required=True, help="letter notation, e.g. '0: AB, CD; 2: ABCDEF'")
    cls.set_defaults(handler=_types_classify)
    add_format(cls)

    hil = sub.add_parser("hilbert", help="Hilbert function of a fat point ideal")
    bet = sub.add_parser("betti", help="graded Betti numbers of a fat point ideal")
    for p in (hil, bet):
        p.add_argument("--type", required=True, dest="type_arg",
                       help="type id 1..90, or a neg set in letter notation")
        p.add_argument("--mults", required=True, help="six multiplicities, e.g. 1,1,1,1,1,1")
        add_format(p)
    hil.add_argument("--tmax", type=int, default=None,
                     help=f"show values up to this degree (display only, at most {MAX_TMAX})")
    hil.set_defaults(handler=_scheme, with_betti=False)
    bet.set_defaults(handler=_scheme, with_betti=True, tmax=None)

    tab = sub.add_parser("tables", help="emit the built-in tables")
    tab.add_argument("--which", required=True, choices=("1", "2"))
    tab.set_defaults(handler=_tables)
    add_format(tab)

    ver = sub.add_parser("verify", help="run the invariant suite")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--samples", type=int, default=200,
                     help="nef classes sampled per type for the rank bound checks")
    ver.set_defaults(handler=_verify)
    add_format(ver)
    return parser


class _Output(NamedTuple):
    """One command's result in every format, and its exit code."""

    text: str
    json: object
    header: tuple[str, ...]
    rows: list[tuple]
    code: int = 0


def _write_text(result: _Output, out) -> None:
    out.write(result.text)


def _write_json(result: _Output, out) -> None:
    json.dump(result.json, out, indent=2)
    out.write("\n")


def _write_csv(result: _Output, out) -> None:
    w = csv.writer(out, lineterminator="\n")
    w.writerow(result.header)
    w.writerows(result.rows)


_WRITERS = {"text": _write_text, "json": _write_json, "csv": _write_csv}


def _type_record(t: ConfigurationType) -> dict:
    return {
        "id": t.id,
        "label": t.label,
        "neg": t.neg_label,
        "classes": [list(c) for c in t.classes],
        "graph": t.graph.name,
        "torsion": t.torsion.text(),
    }


def _type_records() -> list[dict]:
    return [_type_record(t) for t in enumerate_types()]


def _shift_records(pairs) -> list[dict]:
    return [{"shift": j, "mult": m} for j, m in pairs]


def _parse_type_arg(arg: str) -> tuple[list[DivisorClass], ConfigurationType]:
    try:
        type_id = int(arg)
    except ValueError:
        classes = parse_negset(arg)
        t, _ = classify(classes)
        return classes, t
    t = type_by_id(type_id)
    return list(t.classes), t


def _parse_mults(text: str) -> tuple[int, ...]:
    """Integers from comma separated text; fatpoints checks count and sign."""
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValidationError(f"multiplicities must be integers, got {text!r}") from None


def _ints(values) -> str:
    return ", ".join(str(v) for v in values)


def _types_list(args) -> _Output:
    header = ("id", "label", "graph", "torsion", "neg")
    rows = [(t.id, t.label, t.graph.name, t.torsion.text(), t.neg_label)
            for t in enumerate_types()]
    text = "".join("\t".join(map(str, row)) + "\n" for row in [header, *rows])
    return _Output(text, _type_records(), header, rows)


def _types_classify(args) -> _Output:
    t, sigma = classify(parse_negset(args.neg))
    canonical = format_negset(t.classes)
    record = _type_record(t)
    record["permutation"] = list(sigma)
    record["canonical"] = canonical
    text = (
        f"id: {t.id}\n"
        f"label: {t.label}\n"
        f"graph: {t.graph.name or '(empty)'}\n"
        f"torsion: {t.torsion.text()}\n"
        f"neg: {t.neg_label}\n"
        f"canonical: {canonical}\n"
        "relabelling: " + ", ".join(f"{i}->{v}" for i, v in enumerate(sigma, 1)) + "\n"
    )
    row = (t.id, t.label, t.graph.name, t.torsion.text(), t.neg_label, " ".join(map(str, sigma)))
    return _Output(text, record, ("id", "label", "graph", "torsion", "neg", "permutation"), [row])


def _scheme(args) -> _Output:
    if args.tmax is not None and args.tmax > MAX_TMAX:
        raise ValidationError(f"--tmax must be at most {MAX_TMAX}, got {args.tmax}")
    classes, t = _parse_type_arg(args.type_arg)
    mults = _parse_mults(args.mults)
    reduced, hf, res = fatpoints.analyze(classes, mults, args.with_betti)
    top = hf.tail_from if args.tmax is None else max(hf.tail_from, args.tmax)
    h_i = [hf.h_ideal(deg) for deg in range(top + 1)]
    h_z = [hf.h_quotient(deg) for deg in range(top + 1)]
    record = {
        "hilbert_I": h_i,
        "hilbert_Z": h_z,
        "degZ": hf.deg_z,
        "tail_from": hf.tail_from,
        "mults": list(mults),
        "mults_reduced": list(reduced),
    }
    lines = [f"type: {t.id} ({t.label})", f"mults: {_ints(mults)}"]
    if reduced != mults:
        lines.append(f"reduced: {_ints(reduced)}")
    lines += [
        f"deg Z: {hf.deg_z}",
        f"h_I: {_ints(h_i)}   (then C(t+2,2) - {hf.deg_z} for t > {hf.tail_from})",
        f"h_Z: {_ints(h_z)}   (then constant {hf.deg_z})",
    ]
    if args.with_betti:
        record["F0"] = _shift_records(res.f0)
        record["F1"] = _shift_records(res.f1)
        lines += [f"F0: {format_shifts(res.f0)}", f"F1: {format_shifts(res.f1)}"]
        header = ("module", "shift", "mult")
        rows = [("F0", j, m) for j, m in res.f0] + [("F1", j, m) for j, m in res.f1]
    else:
        header = ("t", "h_I", "h_Z")
        rows = list(zip(range(top + 1), h_i, h_z))
    record["type"] = t.id
    record["label"] = t.label
    return _Output("".join(line + "\n" for line in lines), record, header, rows)


_CASE_ORDER = ("1", "2a", "2b1", "2b2", "2b3")


def _tables(args) -> _Output:
    if args.which == "1":
        rows = [(t.id, t.label, t.neg_label, t.torsion.text()) for t in enumerate_types()]
        return _Output(table1_text(), _type_records(), ("id", "label", "neg", "torsion"), rows)
    report = fatpoints.table2()
    payload, rows, text = {}, [], []
    for name in _CASE_ORDER:
        ids = report.cases[name]
        m1, m2 = fatpoints.CASE_PATTERNS[name]
        payload[name] = {"types": list(ids), "m1": _uniform_record(m1), "m2": _uniform_record(m2)}
        shown = [(format_shifts(d.f0), format_shifts(d.f1), _ints(d.hz)) for d in (m1, m2)]
        rows.append((name, " ".join(map(str, ids)), *shown[0], *shown[1]))
        text.append(f"case {name} ({len(ids)} types): {_ints(ids)}\n")
        text += [f"  m={k}: F1 = {f1}, F0 = {f0}, h_Z = {hz}\n"
                 for k, (f0, f1, hz) in enumerate(shown, 1)]
    header = ("case", "types", "m1_F0", "m1_F1", "m1_hZ", "m2_F0", "m2_F1", "m2_hZ")
    return _Output("".join(text), payload, header, rows)


def _uniform_record(data) -> dict:
    return {"hZ": list(data.hz), "F0": _shift_records(data.f0), "F1": _shift_records(data.f1)}


def _verify(args) -> _Output:
    report = verify.run_invariant_suite(seed=args.seed, samples_per_type=args.samples)
    payload = {
        "seed": report.seed,
        "passed": report.passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks
        ],
    }
    text = "".join(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}\n" for c in report.checks)
    rows = [(c.name, c.passed, c.detail) for c in report.checks]
    return _Output(text, payload, ("check", "passed", "detail"), rows, 0 if report.passed else 2)


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        result = args.handler(args)
    except _UsageError as exc:
        print(exc.parser.format_usage(), file=sys.stderr, end="")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2
    _WRITERS[args.format](result, out)
    return result.code


def run() -> None:
    sys.exit(main())
