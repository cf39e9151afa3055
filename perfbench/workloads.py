"""The benchmark's workloads: seeded op streams, the timed op, its answer
check, and the traced replay of the op's inputs through each layer below it.

An op is one timed unit of work.  ``run`` is the only code inside the op's
timing; ``check`` raises ``oracle.WrongAnswer`` on a wrong output and returns
the text that goes into the output digest; ``replay`` calls the public
functions of each layer beneath the op on the op's own inputs, one span each,
and adds the op's share to the exact counts while ``counts`` is given.
"""

from __future__ import annotations

import io
import itertools
import random
from array import array
from time import perf_counter_ns
from typing import Iterator, NamedTuple

import sixpoints as sp
from sixpoints import cli
from sixpoints.typeenum import build_types, table_rows

import oracle
from oracle import expect

SAMPLES = 200  # the CLI default of `sixpoints verify --samples`


class Op(NamedTuple):
    kind: str  # "verify", "cli" or "cohom"
    args: tuple
    answer: int | None = None  # the type a classify query must return
    bad: bool = False  # malformed: the CLI must exit with code 1


class Tracer:
    """Spans kept in memory, one array per column: parent span, name, start
    and end (ns), and the number of calls a span covers (a batched span times
    many short calls at once).  Replay spans run after their op's span, so no
    span's interval covers a child and every span's self time is its
    duration."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent, self.name, self.start, self.end, self.n = (array("q") for _ in range(5))

    def __len__(self) -> int:
        return len(self.parent)

    def add(self, name: str, parent: int, t0: int, t1: int, n: int = 1) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.parent.append(parent)
        self.name.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.n.append(n)
        return len(self.parent) - 1

    def call(self, name: str, parent: int, fn, *args):
        t0 = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.add(name, parent, t0, perf_counter_ns())


class Catalog:
    """What the generators and checks know about each type, taken from the
    catalog rows and square -2 classes before any timing starts."""

    def __init__(self):
        self.types = sp.enumerate_types()
        self.terms = {t.id: oracle.parse_groups(t.neg_label) for t in self.types}
        self.perms = {i: oracle.order_keeping_perms(terms) for i, terms in self.terms.items()}
        self.curves = {t.id: oracle.negative_curves(t.classes) for t in self.types}
        self.usable = {t.id: oracle.usable_points(t.classes) for t in self.types}

    def ordinary(self, tid: int) -> bool:
        return len(self.usable[tid]) == 6


def warm_caches() -> None:
    """Fill every lru_cache an op reads, through public calls."""
    sp.enumerate_types()
    sp.classify([])
    sp.full_neg(())


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def _bump(counts, key: str, v: int) -> None:
    if counts is not None:
        counts[key] = counts.get(key, 0) + v


def _replay_reductions(tr: Tracer, parent: int, classes, N, counts) -> None:
    for F in classes:
        r = tr.call("curves.reduce_to_nef", parent, sp.reduce_to_nef, F, N)
        _bump(counts, "curves.reduce_calls", 1)
        _bump(counts, "curves.reduce_steps", len(r.subtractions))


def _replay_intersect(tr: Tracer, parent: int, classes, N) -> None:
    pairs = [(F, c) for F in classes for c in N.NEG]
    intersect = sp.intersect
    t0 = perf_counter_ns()
    for a, b in pairs:
        intersect(a, b)
    tr.add("lattice.intersect", parent, t0, perf_counter_ns(), len(pairs))


def _replay_scheme(tr: Tracer, parent: int, tid: int, mults, betti: bool, counts) -> None:
    """The library calls of `sixpoints hilbert|betti`, then the reductions of
    fatpoint_class(m, t) for every degree t the Hilbert function visits."""
    t = tr.call("typeenum.type_by_id", parent, sp.type_by_id, tid)
    if len(mults) != 6 or min(mults) < 0:
        return  # the CLI rejects these before any further library call
    m = tr.call("fatpoints.proximity_reduce", parent, sp.proximity_reduce, mults, t.classes)
    tr.call("fatpoints.hilbert_function", parent, sp.hilbert_function, t.classes, mults)
    if betti:
        tr.call("fatpoints.minimal_resolution", parent, sp.minimal_resolution, t.classes, mults)
    N = tr.call("curves.full_neg", parent, sp.full_neg, t.classes)
    classes = [sp.fatpoint_class(m, d) for d in range(sum(m) + 4)]
    _replay_reductions(tr, parent, classes, N, counts)
    _replay_intersect(tr, parent, classes, N)


# Library calls the CLI makes itself; cli.main_self_us is an op's time minus
# the replayed time of these.
CLI_CALLS = frozenset({
    "typeenum.type_by_id", "typeenum.classify", "notation.parse_negset",
    "notation.format_negset", "fatpoints.proximity_reduce",
    "fatpoints.hilbert_function", "fatpoints.minimal_resolution",
})


class Workload:
    name = ""
    warmup = 0  # leading ops that fill caches and are left out of the timings
    window = 0  # leading ops whose outputs are digested and whose work is counted
    tail_pct = 0.0  # fixed so that a run of run_seconds has >= 10 samples beyond it

    def __init__(self, cat: Catalog):
        self.cat = cat

    def ops(self, seed: int) -> Iterator[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        if op.kind == "cli":
            return run_cli(op.args)
        raise NotImplementedError

    def check(self, op: Op, out) -> str:
        raise NotImplementedError

    def replay(self, op: Op, out, tr: Tracer, parent: int, counts) -> None:
        raise NotImplementedError

    def check_scheme_cli(self, op: Op, out, betti: bool) -> str:
        code, payload = out
        if op.bad:
            expect(code == 1, f"malformed query exited {code}")
            return repr((op.args, code))
        expect(code == 0, f"exit code {code}")
        tid, mults, fmt = int(op.args[2]), oracle.ints(op.args[4]), op.args[6]
        rec = oracle.scheme_record(fmt, payload, betti)
        oracle.check_scheme(rec, mults, self.cat.ordinary(tid), betti)
        return repr((op.args, payload))


class VerifySweep(Workload):
    name = "verify-sweep"
    warmup = 1
    window = 4
    tail_pct = 75.0

    def ops(self, seed):
        rng = random.Random(seed)
        ids = list(range(1, len(self.cat.types) + 1))
        while True:
            rng.shuffle(ids)
            for tid in ids:
                yield Op("verify", (tid, rng.randrange(1 << 30)))

    def run(self, op):
        tid, sseed = op.args
        N = sp.type_by_id(tid).neg_set()
        samples = sp.sample_nef(N, SAMPLES, sseed)
        return samples, [sp.check_mu_bounds(F, N) for F in samples]

    def check(self, op, out):
        samples, reports = out
        tid = op.args[0]
        curves, usable = self.cat.curves[tid], self.cat.usable[tid]
        expect(len(samples) == SAMPLES, f"{len(samples)} samples")
        expect(len(set(samples)) == len(samples), "samples repeat")
        for F in samples:
            expect(0 <= F[0] <= 12 and all(0 <= -a <= F[0] for a in F[1:]), f"{F} out of range")
            expect(oracle.is_nef(F, curves), f"{F} is not nef")
        expect(len(reports) == len(samples), "a sample was not checked")
        for r in reports:
            expect(r.passed, "; ".join(r.violations[:2]))
            expect(tuple(s.index for s in r.stats) == usable, "wrong base points checked")
        return repr((op.args, [tuple(F) for F in samples], [
            [(s.index, s.q, s.l, s.qstar, s.lstar, s.h0F, s.h0FL) for s in r.stats]
            for r in reports
        ]))

    def replay(self, op, out, tr, parent, counts):
        tid, sseed = op.args
        t = self.cat.types[tid - 1]
        N = tr.call("curves.full_neg", parent, sp.full_neg, t.classes)
        samples = tr.call("verify.sample_nef", parent, sp.sample_nef, N, SAMPLES, sseed)
        for F in samples:
            tr.call("verify.check_mu_bounds", parent, sp.check_mu_bounds, F, N)
            tr.call("curves.is_nef", parent, sp.is_nef, F, N)
            tr.call("curves.h0", parent, sp.h0, F, N)
        _replay_intersect(tr, parent, samples, N)
        # the reductions mu_stats runs for each usable base point j:
        # h0 of F, F+L, F-E_j, F-(L-E_j), then h1 of the last two, each of
        # which reduces the class and its Serre dual K - class
        classes = []
        for F in samples:
            for j in self.cat.usable[tid]:
                q, l = F - sp.e(j), F - (sp.L - sp.e(j))
                classes += [F, F + sp.L, q, l, q, sp.K - q, l, sp.K - l]
        _replay_reductions(tr, parent, classes, N, counts)
        _bump(counts, "verify.mu_checks", sum(len(r.stats) for r in out[1]))
        _bump(counts, "verify.sampled_classes", len(samples))
        _bump(counts, "verify.sample_requested", SAMPLES)


class BettiLarge(Workload):
    name = "betti-large"
    warmup = 3
    window = 12
    tail_pct = 90.0

    def ops(self, seed):
        # types come in shuffled passes over all ids: each op's type is still
        # uniform, but a run's mix of types varies less from seed to seed
        rng = random.Random(seed)
        ids = list(range(1, len(self.cat.types) + 1))
        while True:
            rng.shuffle(ids)
            for tid in ids:
                mults = ",".join(str(rng.randint(20, 100)) for _ in range(6))
                yield Op("cli", ("betti", "--type", str(tid), "--mults", mults, "--format", "json"))

    def check(self, op, out):
        return self.check_scheme_cli(op, out, betti=True)

    def replay(self, op, out, tr, parent, counts):
        _replay_scheme(tr, parent, int(op.args[2]), oracle.ints(op.args[4]), True, counts)


class QueriesSmall(Workload):
    name = "queries-small"
    warmup = 150
    window = 300
    tail_pct = 99.0
    malformed = 0.075  # of the classify and hilbert/betti thirds: ~5% of all queries

    def ops(self, seed):
        rng = random.Random(seed)
        fmts = itertools.cycle(("text", "json", "csv"))
        n = len(self.cat.types)
        kinds = ["classify", "scheme", "cohom"]
        while True:
            rng.shuffle(kinds)
            for kind in kinds:
                tid = rng.randint(1, n)
                bad = kind != "cohom" and rng.random() < self.malformed
                if kind == "classify":
                    yield self._classify(rng, tid, bad)
                elif kind == "scheme":
                    yield self._scheme(rng, tid, bad, next(fmts))
                else:
                    t = rng.randint(0, 12)
                    yield Op("cohom", (tid, sp.DivisorClass(t, [-rng.randint(0, t) for _ in range(6)])))

    def _classify(self, rng, tid, bad):
        if bad and tid == 1:
            tid = rng.randint(2, len(self.cat.types))  # type 1 has no letters to spoil
        text = oracle.relabel(self.cat.terms[tid], rng.choice(self.cat.perms[tid]))
        if bad:
            pos = rng.choice([i for i, ch in enumerate(text) if ch in oracle.LETTERS])
            text = text[:pos] + "G" + text[pos + 1:]
            return Op("cli", ("types", "classify", "--neg", text), bad=True)
        return Op("cli", ("types", "classify", "--neg", text),
                  answer=oracle.DUPLICATE_ROW_ANSWER.get(tid, tid))

    def _scheme(self, rng, tid, bad, fmt):
        mults = [rng.randint(0, 3) for _ in range(6)]
        if bad:
            if rng.random() < 0.5:
                mults[rng.randint(1, 5)] = -rng.randint(1, 3)  # not first: argparse would take it for a flag
            elif rng.random() < 0.5:
                mults.pop()
            else:
                mults.append(rng.randint(0, 3))
        cmd = rng.choice(("hilbert", "betti"))
        argv = (cmd, "--type", str(tid), "--mults", ",".join(map(str, mults)), "--format", fmt)
        return Op("cli", argv, bad=bad)

    def run(self, op):
        if op.kind == "cohom":
            tid, F = op.args
            N = sp.type_by_id(tid).neg_set()
            return sp.h0(F, N), sp.h1(F, N), sp.h2(F, N)
        return run_cli(op.args)

    def check(self, op, out):
        if op.kind == "cohom":
            tid, F = op.args
            h0, h1, h2 = out
            c = oracle.chi(F)
            expect(h0 - h1 + h2 == c, f"h0 - h1 + h2 != chi for {F}")
            expect(h2 == 0, "h2 of a class of nonnegative degree")
            expect(max(0, c) <= h0 <= (F[0] + 1) * (F[0] + 2) // 2, "h0 out of range")
            if oracle.is_nef(F, self.cat.curves[tid]):
                expect(h1 == 0, f"nef class {F} has h1 = {h1}")
            return repr((op.args, out))
        if op.args[0] != "types":
            return self.check_scheme_cli(op, out, betti=op.args[0] == "betti")
        code, payload = out
        if op.bad:
            expect(code == 1, f"malformed query exited {code}")
        else:
            expect(code == 0, f"exit code {code}")
            expect(payload.startswith(f"id: {op.answer}\n"), "classified to the wrong type")
        return repr((op.args, code, payload))

    def replay(self, op, out, tr, parent, counts):
        if op.kind == "cohom":
            tid, F = op.args
            t = tr.call("typeenum.type_by_id", parent, sp.type_by_id, tid)
            N = tr.call("curves.full_neg", parent, sp.full_neg, t.classes)
            tr.call("curves.h0", parent, sp.h0, F, N)
            tr.call("curves.is_nef", parent, sp.is_nef, F, N)
            # h0 reduces F, h2 reduces K - F, and h1 reduces both again
            _replay_reductions(tr, parent, (F, F, sp.K - F, sp.K - F), N, counts)
            _replay_intersect(tr, parent, (F,), N)
        elif op.args[0] == "types":
            try:
                classes = tr.call("notation.parse_negset", parent, sp.parse_negset, op.args[3])
            except sp.ValidationError:
                return
            t, _ = tr.call("typeenum.classify", parent, sp.classify, classes)
            _bump(counts, "typeenum.classify_calls", 1)
            tr.call("notation.format_negset", parent, sp.format_negset, t.classes)
        else:
            mults = oracle.ints(op.args[4])
            _replay_scheme(tr, parent, int(op.args[2]), mults, op.args[0] == "betti", counts)


WORKLOADS = {w.name: w for w in (VerifySweep, BettiLarge, QueriesSmall)}
