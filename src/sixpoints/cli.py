"""Command line surface.

Subcommands: ``types list``, ``types classify --neg TEXT``,
``hilbert --type ID_OR_NEG --mults m1,..,m6``, ``betti`` with the same flags,
``tables --which 1|2`` and ``verify [--seed S]``.  Every subcommand accepts
``--format text|json|csv``.  Payload goes to stdout, diagnostics to stderr;
exit code 0 means success, 1 a rejected input, 2 an internal consistency
failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Sequence

from . import fatpoints, verify
from .errors import ConsistencyError, ValidationError
from .lattice import DivisorClass
from .notation import format_negset, parse_negset
from .typeenum import ConfigurationType, classify, enumerate_types, table1_text, type_by_id


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
    add_format(lst)
    cls = types_sub.add_parser("classify", help="match a neg set to its type")
    cls.add_argument("--neg", required=True, help="letter notation, e.g. '0: AB, CD; 2: ABCDEF'")
    add_format(cls)

    hil = sub.add_parser("hilbert", help="Hilbert function of a fat point ideal")
    bet = sub.add_parser("betti", help="graded Betti numbers of a fat point ideal")
    for p in (hil, bet):
        p.add_argument("--type", required=True, dest="type_arg",
                       help="type id 1..90, or a neg set in letter notation")
        p.add_argument("--mults", required=True, help="six multiplicities, e.g. 1,1,1,1,1,1")
        add_format(p)
    hil.add_argument("--tmax", type=int, default=None,
                     help="show values up to this degree (display only)")

    tab = sub.add_parser("tables", help="emit the built-in tables")
    tab.add_argument("--which", required=True, choices=("1", "2"))
    add_format(tab)

    ver = sub.add_parser("verify", help="run the invariant suite")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--samples", type=int, default=200,
                     help="nef classes sampled per type for the rank bound checks")
    add_format(ver)
    return parser


def _csv_out(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _type_record(t: ConfigurationType) -> dict:
    return {
        "id": t.id,
        "label": t.label,
        "neg": t.neg_label,
        "classes": [list(c) for c in t.classes],
        "graph": t.graph.name,
        "torsion": t.torsion.text(),
    }


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
    parts = [p.strip() for p in text.split(",")]
    try:
        mults = tuple(int(p) for p in parts)
    except ValueError:
        raise ValidationError(f"multiplicities must be integers, got {text!r}") from None
    if len(mults) != 6:
        raise ValidationError(f"expected 6 multiplicities, got {len(mults)}")
    if any(m < 0 for m in mults):
        raise ValidationError("multiplicities must be nonnegative")
    return mults


def _ints(values) -> str:
    return ", ".join(str(v) for v in values)


def _cmd_types_list(args, out) -> int:
    types = enumerate_types()
    if args.format == "json":
        json.dump([_type_record(t) for t in types], out, indent=2)
        out.write("\n")
    elif args.format == "csv":
        out.write(_csv_out(
            ("id", "label", "graph", "torsion", "neg"),
            [(t.id, t.label, t.graph.name, t.torsion.text(), t.neg_label) for t in types],
        ))
    else:
        out.write("id\tlabel\tgraph\ttorsion\tneg\n")
        for t in types:
            out.write(f"{t.id}\t{t.label}\t{t.graph.name}\t{t.torsion.text()}\t{t.neg_label}\n")
    return 0


def _cmd_types_classify(args, out) -> int:
    classes = parse_negset(args.neg)
    t, sigma = classify(classes)
    if args.format == "json":
        record = _type_record(t)
        record["permutation"] = list(sigma)
        record["canonical"] = format_negset(t.classes)
        json.dump(record, out, indent=2)
        out.write("\n")
    elif args.format == "csv":
        out.write(_csv_out(
            ("id", "label", "graph", "torsion", "neg", "permutation"),
            [(t.id, t.label, t.graph.name, t.torsion.text(), t.neg_label,
              " ".join(map(str, sigma)))],
        ))
    else:
        out.write(f"id: {t.id}\n")
        out.write(f"label: {t.label}\n")
        out.write(f"graph: {t.graph.name or '(empty)'}\n")
        out.write(f"torsion: {t.torsion.text()}\n")
        out.write(f"neg: {t.neg_label}\n")
        out.write(f"canonical: {format_negset(t.classes)}\n")
        out.write("relabelling: " + ", ".join(
            f"{i}->{v}" for i, v in enumerate(sigma, 1)) + "\n")
    return 0


def _resolution_record(mults, reduced, hf, res, top) -> dict:
    record = {
        "hilbert_I": [hf.h_ideal(t) for t in range(top + 1)],
        "hilbert_Z": [hf.h_quotient(t) for t in range(top + 1)],
        "degZ": hf.deg_z,
        "tail_from": hf.tail_from,
        "mults": list(mults),
        "mults_reduced": list(reduced),
    }
    if res is not None:
        record["F0"] = [{"shift": j, "mult": m} for j, m in res.f0]
        record["F1"] = [{"shift": j, "mult": m} for j, m in res.f1]
    return record


def _cmd_scheme(args, out, with_betti: bool) -> int:
    classes, t = _parse_type_arg(args.type_arg)
    mults = _parse_mults(args.mults)
    reduced, hf, res = fatpoints.analyze(classes, mults, with_betti)
    tmax = getattr(args, "tmax", None)
    top = hf.tail_from if tmax is None else max(hf.tail_from, tmax)
    if args.format == "json":
        record = _resolution_record(mults, reduced, hf, res, top)
        record["type"] = t.id
        record["label"] = t.label
        json.dump(record, out, indent=2)
        out.write("\n")
    elif args.format == "csv":
        if with_betti:
            rows = [("F0", j, m) for j, m in res.f0] + [("F1", j, m) for j, m in res.f1]
            out.write(_csv_out(("module", "shift", "mult"), rows))
        else:
            out.write(_csv_out(
                ("t", "h_I", "h_Z"),
                [(deg, hf.h_ideal(deg), hf.h_quotient(deg)) for deg in range(top + 1)],
            ))
    else:
        out.write(f"type: {t.id} ({t.label})\n")
        out.write(f"mults: {_ints(mults)}\n")
        if reduced != mults:
            out.write(f"reduced: {_ints(reduced)}\n")
        out.write(f"deg Z: {hf.deg_z}\n")
        out.write(f"h_I: {_ints(hf.h_ideal(d) for d in range(top + 1))}"
                  f"   (then C(t+2,2) - {hf.deg_z} for t > {hf.tail_from})\n")
        out.write(f"h_Z: {_ints(hf.h_quotient(d) for d in range(top + 1))}"
                  f"   (then constant {hf.deg_z})\n")
        if with_betti:
            out.write(f"F0: {res.pretty_f0()}\n")
            out.write(f"F1: {res.pretty_f1()}\n")
    return 0


_CASE_ORDER = ("1", "2a", "2b1", "2b2", "2b3")


def _cmd_tables(args, out) -> int:
    if args.which == "1":
        if args.format == "text":
            out.write(table1_text())
        elif args.format == "json":
            json.dump([_type_record(t) for t in enumerate_types()], out, indent=2)
            out.write("\n")
        else:
            out.write(_csv_out(
                ("id", "label", "neg", "torsion"),
                [(t.id, t.label, t.neg_label, t.torsion.text()) for t in enumerate_types()],
            ))
        return 0
    report = fatpoints.table2()
    if args.format == "json":
        payload = {
            name: {
                "types": list(report.cases[name]),
                "m1": _uniform_json(fatpoints.CASE_PATTERNS[name][0]),
                "m2": _uniform_json(fatpoints.CASE_PATTERNS[name][1]),
            }
            for name in _CASE_ORDER
        }
        json.dump(payload, out, indent=2)
        out.write("\n")
    elif args.format == "csv":
        rows = []
        for name in _CASE_ORDER:
            m1, m2 = fatpoints.CASE_PATTERNS[name]
            rows.append((
                name,
                " ".join(map(str, report.cases[name])),
                _shifts(m1.f0), _shifts(m1.f1), _ints(m1.hz),
                _shifts(m2.f0), _shifts(m2.f1), _ints(m2.hz),
            ))
        out.write(_csv_out(
            ("case", "types", "m1_F0", "m1_F1", "m1_hZ", "m2_F0", "m2_F1", "m2_hZ"), rows
        ))
    else:
        for name in _CASE_ORDER:
            ids = report.cases[name]
            m1, m2 = fatpoints.CASE_PATTERNS[name]
            out.write(f"case {name} ({len(ids)} types): {_ints(ids)}\n")
            out.write(f"  m=1: F1 = {_shifts(m1.f1)}, F0 = {_shifts(m1.f0)}, h_Z = {_ints(m1.hz)}\n")
            out.write(f"  m=2: F1 = {_shifts(m2.f1)}, F0 = {_shifts(m2.f0)}, h_Z = {_ints(m2.hz)}\n")
    return 0


def _shifts(pairs) -> str:
    if not pairs:
        return "0"
    return " + ".join(
        f"R[-{j}]" + (f"^{m}" if m > 1 else "") for j, m in sorted(pairs, reverse=True)
    )


def _uniform_json(data) -> dict:
    return {
        "hZ": list(data.hz),
        "F0": [{"shift": j, "mult": m} for j, m in data.f0],
        "F1": [{"shift": j, "mult": m} for j, m in data.f1],
    }


def _cmd_verify(args, out) -> int:
    report = verify.run_invariant_suite(seed=args.seed, samples_per_type=args.samples)
    if args.format == "json":
        json.dump({
            "seed": report.seed,
            "passed": report.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in report.checks
            ],
        }, out, indent=2)
        out.write("\n")
    elif args.format == "csv":
        out.write(_csv_out(
            ("check", "passed", "detail"),
            [(c.name, c.passed, c.detail) for c in report.checks],
        ))
    else:
        for c in report.checks:
            out.write(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}\n")
    return 0 if report.passed else 2


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "types":
            if args.types_command == "list":
                return _cmd_types_list(args, out)
            return _cmd_types_classify(args, out)
        if args.command == "hilbert":
            return _cmd_scheme(args, out, with_betti=False)
        if args.command == "betti":
            return _cmd_scheme(args, out, with_betti=True)
        if args.command == "tables":
            return _cmd_tables(args, out)
        if args.command == "verify":
            return _cmd_verify(args, out)
        raise _UsageError(f"unknown command {args.command!r}", parser)
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


def run() -> None:
    sys.exit(main())
