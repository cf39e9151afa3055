"""Command line surface.

Subcommands: ``types list``, ``types classify --neg TEXT``,
``hilbert --type ID_OR_NEG --mults m1,..,m6``, ``betti`` with the same flags,
``tables --which 1|2`` and ``verify [--seed S]``.  Every subcommand accepts
``--format text|json|csv``.  Each subcommand's handler computes its result
and hands back one renderer per format; the writer of the format asked for
calls its renderer and no other, so a call renders only what it prints.  A
call that names a subcommand parses with that subcommand's parser as the
root, the parser the tree would hand its arguments to; ``types`` builds
only the parser of the action it names.  The whole tree is built only for
the top-level help, a bad or missing command and leftover arguments, whose
error it prints under the top-level usage.  Payload goes to stdout,
diagnostics to stderr; exit code 0 means success, 1 a rejected input, 2 an
internal consistency failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from itertools import chain
from typing import Callable, NamedTuple, Sequence

from . import fatpoints, verify
from .errors import ConsistencyError, ValidationError
from .fatpoints import format_shifts
from .lattice import DivisorClass
from .notation import format_negset, parse_negset
from .typeenum import ConfigurationType, classify, enumerate_types, table1_text, type_by_id


MAX_TMAX = 10_000  # `hilbert --tmax` limit: output size and memory grow with the range shown
# `hilbert`/`betti` limit on m1 + ... + m6: below the top nef run, the scan of
# at most that sum + 3 degrees peels the curves new at a degree, on pairings
# carried in one integer of about 27 lanes whose width grows with the log of
# the sum, and steps over each run of degrees that provably repeats at once (a
# few peels at the limit); what still grows about linearly with the sum is the
# list of h_I, one value per degree, built and read at C speed (README, "Cost
# of large multiplicities", gives times at the limit)
MAX_MULT_SUM = 10_000
# `verify --samples` limit: the sampler may spend verify.DRAWS_PER_SAMPLE draws
# per requested class on every type, draws it skips before the lane test included
# (type 90 spends them all at the limit; README, "Command line", gives the time)
MAX_SAMPLES = 1_000


class _UsageError(Exception):
    def __init__(self, message: str, parser: argparse.ArgumentParser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad flags instead of argparse's 2
        raise _UsageError(message, self)


TYPES_ACTIONS = ("list", "classify")


def _is_int(text: str) -> bool:
    return text.isascii() and text.removeprefix("-").isdigit()


def _int_arg(text: str) -> int:
    """--tmax, --seed and --samples: ASCII digits after at most one "-", where int()
    also takes "_", "+", spaces and other digits; the error text is argparse's for int."""
    if not _is_int(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _add_format(p) -> None:
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")


def _add_types(p, argv) -> None:
    # only the action argv[1] names if it names one (a tuple: odd input cannot raise),
    # else both; an error then comes from that action's parser or the whole tree
    actions = TYPES_ACTIONS if len(argv) < 2 or argv[1] not in TYPES_ACTIONS else (argv[1],)
    sub = p.add_subparsers(dest="types_command", required=True, prog=p.prog)
    if "list" in actions:
        lst = sub.add_parser("list", help="all 90 types")
        lst.set_defaults(handler=_types_list)
        _add_format(lst)
    if "classify" in actions:
        cls = sub.add_parser("classify", help="match a neg set to its type")
        cls.add_argument("--neg", required=True,
                         help="letter notation, e.g. '0: AB, CD; 2: ABCDEF'")
        cls.set_defaults(handler=_types_classify)
        _add_format(cls)


def _add_scheme(p, with_betti: bool) -> None:
    p.add_argument("--type", required=True, dest="type_arg",
                   help="type id 1..90, or a neg set in letter notation")
    p.add_argument("--mults", required=True,
                   help=f"six multiplicities, e.g. 1,1,1,1,1,1 (sum at most {MAX_MULT_SUM})")
    _add_format(p)
    if not with_betti:
        p.add_argument("--tmax", type=_int_arg, default=None,
                       help=f"show values up to this degree (display only, 0..{MAX_TMAX})")
    p.set_defaults(handler=_scheme, with_betti=with_betti, tmax=None)


def _add_tables(p, argv) -> None:
    p.add_argument("--which", required=True, choices=("1", "2"))
    p.set_defaults(handler=_tables)
    _add_format(p)


def _add_verify(p, argv) -> None:
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--samples", type=_int_arg, default=verify.DEFAULT_SAMPLES,
                   help="nef classes sampled per type for the rank bound checks "
                        f"(at most {MAX_SAMPLES})")
    p.set_defaults(handler=_verify)
    _add_format(p)


# each subcommand's help in the tree, and the function that adds its
# arguments and defaults to a parser: a subparser of the tree, or the root.
# An adder gets its call's argv (empty for the tree); only types reads it
_SUBCOMMANDS = {
    "types": ("list or classify configuration types", _add_types),
    "hilbert": ("Hilbert function of a fat point ideal", lambda p, argv: _add_scheme(p, False)),
    "betti": ("graded Betti numbers of a fat point ideal", lambda p, argv: _add_scheme(p, True)),
    "tables": ("emit the built-in tables", _add_tables),
    "verify": ("run the invariant suite", _add_verify),
}
COMMANDS = tuple(_SUBCOMMANDS)


def build_parser() -> _Parser:
    """The whole command tree, which ``main`` builds only for the top-level
    help, a bad or missing command and leftover arguments.  Each call builds
    its own, so no call depends on another."""
    parser = _Parser(prog="sixpoints", description=__doc__.splitlines()[0])
    # each subparsers' prog is given: argparse derives the same one by formatting a usage line
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name, (text, add) in _SUBCOMMANDS.items():
        add(sub.add_parser(name, help=text), ())
    return parser


class _Output(NamedTuple):
    """One command's result as a zero-argument renderer per format (the CSV
    one returns the header row first), and its exit code."""

    text: Callable[[], str]
    json: Callable[[], object]
    csv: Callable[[], list[tuple]]
    code: int = 0


def _write_text(result: _Output, out) -> None:
    out.write(result.text())


def _json(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for payloads with str
    keys; with ``indent`` set the stdlib encodes in pure Python, while here
    strings are escaped in C, a list of ints is joined in one call and a list
    of dicts with the same keys in the same order, all of exact int values,
    is filled into one ``%d`` template.  ``newline`` breaks the line and
    indents to the level of ``value``."""
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is str:
        return _quote(value)
    if kind is not dict and kind is not list and kind is not tuple:
        return json.dumps(value)  # None, bools, floats
    if not value:
        return "{}" if kind is dict else "[]"
    inner = newline + "  "
    sep = "," + inner
    if kind is dict:
        items = [_quote(k) + ": " + (str(v) if type(v) is int else _json(v, inner))
                 for k, v in value.items()]
        return "{" + inner + sep.join(items) + newline + "}"
    kinds = set(map(type, value))  # exact types, since bool is an int subclass
    if kinds == {int}:
        return "[" + inner + sep.join(map(str, value)) + newline + "]"
    if kinds == {dict} and len(set(map(tuple, value))) == 1:  # one key order
        ints = (*chain.from_iterable(map(dict.values, value)),)
        if set(map(type, ints)) == {int}:  # so no dict is empty
            field = inner + "  "
            record = "{" + field + ("," + field).join(
                _quote(k).replace("%", "%%") + ": %d" for k in value[0]) + inner + "}"
            return "[" + inner + sep.join([record] * len(value)) % ints + newline + "]"
    return "[" + inner + sep.join([_json(v, inner) for v in value]) + newline + "]"


def _write_json(result: _Output, out) -> None:
    out.write(_json(result.json()) + "\n")  # one write; json.dump makes one per token


def _write_csv(result: _Output, out) -> None:
    csv.writer(out, lineterminator="\n").writerows(result.csv())


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


def _shift_records(pairs) -> list[dict]:
    return [{"shift": j, "mult": m} for j, m in pairs]


def _parse_type_arg(arg: str) -> tuple[list[DivisorClass], ConfigurationType]:
    if arg.isascii() and arg.isdigit():
        t = type_by_id(int(arg))
        return list(t.classes), t
    classes = parse_negset(arg)
    t, _ = classify(classes)
    return classes, t


def _parse_mults(text: str) -> tuple[int, ...]:
    """ASCII integers from comma separated text; fatpoints checks count and sign."""
    parts = text.split(",")
    if not all(map(_is_int, parts)):
        raise ValidationError(f"multiplicities must be integers, got {text!r}")
    return tuple(map(int, parts))


def _ints(values) -> str:
    return ", ".join(map(str, values))


def _types_list(args) -> _Output:
    types = enumerate_types()

    def rows():
        return [("id", "label", "graph", "torsion", "neg"),
                *((t.id, t.label, t.graph.name, t.torsion.text(), t.neg_label) for t in types)]

    return _Output(lambda: "".join("\t".join(map(str, row)) + "\n" for row in rows()),
                   lambda: list(map(_type_record, types)), rows)


def _types_classify(args) -> _Output:
    t, sigma = classify(parse_negset(args.neg))

    def text():
        return (
            f"id: {t.id}\n"
            f"label: {t.label}\n"
            f"graph: {t.graph.name or '(empty)'}\n"
            f"torsion: {t.torsion.text()}\n"
            f"neg: {t.neg_label}\n"
            f"canonical: {format_negset(t.classes)}\n"
            "relabelling: " + ", ".join(f"{i}->{v}" for i, v in enumerate(sigma, 1)) + "\n"
        )

    def record():
        record = _type_record(t)
        record["permutation"] = list(sigma)
        record["canonical"] = format_negset(t.classes)
        return record

    def rows():
        return [("id", "label", "graph", "torsion", "neg", "permutation"),
                (t.id, t.label, t.graph.name, t.torsion.text(), t.neg_label,
                 " ".join(map(str, sigma)))]

    return _Output(text, record, rows)


def _scheme(args) -> _Output:
    if args.tmax is not None and not 0 <= args.tmax <= MAX_TMAX:
        raise ValidationError(f"--tmax must be in 0..{MAX_TMAX}, got {args.tmax}")
    classes, t = _parse_type_arg(args.type_arg)
    mults = _parse_mults(args.mults)
    if sum(mults) > MAX_MULT_SUM:
        raise ValidationError(
            f"multiplicities must sum to at most {MAX_MULT_SUM}, got {sum(mults)}"
        )
    betti = args.with_betti
    reduced, hf, res = fatpoints.analyze(classes, mults, betti)
    # past tail_from, --tmax shows h_I in closed form and h_Z constant at deg Z
    tail = range(hf.tail_from + 1, (args.tmax or 0) + 1)

    def values():
        return ([*hf.ideal_values, *map(hf.h_ideal, tail)],
                list(hf.quotient_values) + [hf.deg_z] * len(tail))

    def text():
        h_i, h_z = values()
        lines = [f"type: {t.id} ({t.label})", f"mults: {_ints(mults)}"]
        if reduced != mults:
            lines.append(f"reduced: {_ints(reduced)}")
        lines += [
            f"deg Z: {hf.deg_z}",
            f"h_I: {_ints(h_i)}   (then C(t+2,2) - {hf.deg_z} for t > {hf.tail_from})",
            f"h_Z: {_ints(h_z)}   (then constant {hf.deg_z})",
        ]
        if betti:
            lines += [f"F0: {format_shifts(res.f0)}", f"F1: {format_shifts(res.f1)}"]
        return "".join(line + "\n" for line in lines)

    def record():
        h_i, h_z = values()
        record = {
            "hilbert_I": h_i,
            "hilbert_Z": h_z,
            "degZ": hf.deg_z,
            "tail_from": hf.tail_from,
            "mults": list(mults),
            "mults_reduced": list(reduced),
        }
        if betti:
            record["F0"] = _shift_records(res.f0)
            record["F1"] = _shift_records(res.f1)
        record["type"] = t.id
        record["label"] = t.label
        return record

    def rows():
        if betti:
            return [("module", "shift", "mult"),
                    *(("F0", j, m) for j, m in res.f0), *(("F1", j, m) for j, m in res.f1)]
        h_i, h_z = values()
        return [("t", "h_I", "h_Z"), *zip(range(len(h_i)), h_i, h_z)]

    return _Output(text, record, rows)


def _tables(args) -> _Output:
    if args.which == "1":
        types = enumerate_types()
        return _Output(table1_text, lambda: list(map(_type_record, types)),
                       lambda: [("id", "label", "neg", "torsion"),
                                *((t.id, t.label, t.neg_label, t.torsion.text()) for t in types)])
    report = fatpoints.table2()
    cases = [(name, report.cases[name], data) for name, data in fatpoints.CASE_PATTERNS.items()]

    def shown(data):  # F0, F1 and h_Z of one uniform multiplicity
        return format_shifts(data.f0), format_shifts(data.f1), _ints(data.hz)

    def text():
        lines = []
        for name, ids, (m1, m2) in cases:
            lines.append(f"case {name} ({len(ids)} types): {_ints(ids)}\n")
            lines += [f"  m={k}: F1 = {f1}, F0 = {f0}, h_Z = {hz}\n"
                      for k, (f0, f1, hz) in enumerate(map(shown, (m1, m2)), 1)]
        return "".join(lines)

    def rows():
        return [("case", "types", "m1_F0", "m1_F1", "m1_hZ", "m2_F0", "m2_F1", "m2_hZ"),
                *((name, " ".join(map(str, ids)), *shown(m1), *shown(m2))
                  for name, ids, (m1, m2) in cases)]

    def payload():
        return {name: {"types": list(ids), "m1": _uniform_record(m1), "m2": _uniform_record(m2)}
                for name, ids, (m1, m2) in cases}

    return _Output(text, payload, rows)


def _uniform_record(data) -> dict:
    return {"hZ": list(data.hz), "F0": _shift_records(data.f0), "F1": _shift_records(data.f1)}


def _verify(args) -> _Output:
    if args.samples > MAX_SAMPLES:
        raise ValidationError(f"--samples must be at most {MAX_SAMPLES}, got {args.samples}")
    report = verify.run_invariant_suite(seed=args.seed, samples_per_type=args.samples)
    checks = report.checks
    return _Output(
        lambda: "".join(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}\n" for c in checks),
        lambda: {
            "seed": report.seed,
            "passed": report.passed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
        },
        lambda: [("check", "passed", "detail"), *((c.name, c.passed, c.detail) for c in checks)],
        0 if report.passed else 2,
    )


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        if command:  # its parser as the root: the tree hands it argv[1:] unchanged
            root = _Parser(prog=f"sixpoints {command}")
            _SUBCOMMANDS[command][1](root, argv)
            args, extra = root.parse_known_args(argv[1:])
        if not command or extra:  # the tree reports leftover arguments under its own usage
            args = build_parser().parse_args(argv)
        result = args.handler(args)
        _WRITERS[args.format](result, out)
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
    return result.code


def run() -> None:
    sys.exit(main())
