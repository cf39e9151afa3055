"""Answers the benchmark knows without asking the program.

Classes are plain tuples (d, m1, ..., m6) meaning d*L + m1*E1 + ... + m6*E6.
The negative curves of a configuration are rebuilt here from its square -2
classes alone, so nefness and usable base points are checked independently
of ``sixpoints.curves``.  Parsers for the CLI's text and csv payloads turn
them into the same record the json format gives, so one check covers all
three formats.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re

K = (-3, 1, 1, 1, 1, 1, 1)
LETTERS = "ABCDEF"

# Catalog rows printed twice for one configuration; classify answers the
# smaller id (see the catalog notes in README.md).
DUPLICATE_ROW_ANSWER = {71: 67}


class WrongAnswer(Exception):
    """An op's output contradicts a known answer."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


def pair(a, b) -> int:
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


def chi(F) -> int:
    """Riemann-Roch value (F^2 - K.F)/2 + 1."""
    return (pair(F, F) - pair(K, F)) // 2 + 1


def _minus_one_classes() -> tuple[tuple[int, ...], ...]:
    out = []
    for i in range(6):
        out.append((0,) + tuple(1 if k == i else 0 for k in range(6)))
    for r, d in ((2, 1), (5, 2)):
        for s in itertools.combinations(range(6), r):
            out.append((d,) + tuple(-1 if k in s else 0 for k in range(6)))
    return tuple(out)


MINUS_ONE = _minus_one_classes()


def negative_curves(neg2) -> tuple[tuple[int, ...], ...]:
    """The square -2 classes plus every square -1 candidate meeting them all
    nonnegatively: the full list of irreducible negative curve classes."""
    neg2 = tuple(tuple(c) for c in neg2)
    return neg2 + tuple(c for c in MINUS_ONE if all(pair(c, d) >= 0 for d in neg2))


def is_nef(F, curves) -> bool:
    return all(pair(F, c) >= 0 for c in curves)


def usable_points(neg2) -> tuple[int, ...]:
    """Points (1-indexed) that are not infinitely near another point."""
    near = {c.index(-1) for c in map(tuple, neg2) if c[0] == 0}
    return tuple(j for j in range(1, 7) if j not in near)


def raw_degree(mults) -> int:
    """sum m(m+1)/2: the length of the scheme before normalization, an upper
    bound for deg Z that is exact when no point is infinitely near."""
    return sum(m * (m + 1) // 2 for m in mults)


# ---------------------------------------------------------------------------
# letter notation, relabelled by the benchmark itself


def parse_groups(text: str) -> list[tuple[int, str]]:
    """'0: AB; 1: ABC' -> [(0, 'AB'), (1, 'ABC')]."""
    out = []
    for group in filter(str.strip, text.split(";")):
        deg, terms = group.split(":")
        out.extend((int(deg), t.strip()) for t in terms.split(","))
    return out


def relabel(terms: list[tuple[int, str]], sigma: tuple[int, ...]) -> str:
    """Letter notation of the terms after sending letter i to sigma[i]."""
    groups: dict[int, list[str]] = {}
    for deg, letters in terms:
        img = [sigma[LETTERS.index(ch)] for ch in letters]
        if deg:
            img.sort()
        groups.setdefault(deg, []).append("".join(LETTERS[i] for i in img))
    return "; ".join(f"{d}: " + ", ".join(sorted(groups[d])) for d in sorted(groups))


def order_keeping_perms(terms: list[tuple[int, str]]) -> list[tuple[int, ...]]:
    """Relabellings that keep every degree-0 term increasing (an infinitely
    near point must keep a later letter than the point below it)."""
    pairs = [(LETTERS.index(s[0]), LETTERS.index(s[1])) for d, s in terms if d == 0]
    return [p for p in itertools.permutations(range(6)) if all(p[i] < p[j] for i, j in pairs)]


# ---------------------------------------------------------------------------
# CLI payloads


def ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _shifts(text: str) -> list[tuple[int, int]]:
    if text.strip() == "0":
        return []
    out = []
    for term in text.split(" + "):
        m = re.fullmatch(r"R\[-(\d+)\](?:\^(\d+))?", term.strip())
        expect(m is not None, f"unreadable shift term {term!r}")
        out.append((int(m.group(1)), int(m.group(2) or 1)))
    return out


def scheme_record(fmt: str, payload: str, betti: bool) -> dict:
    """The fields of a hilbert/betti payload that the format carries:
    hilbert_I, degZ, tail_from, F0, F1 (as (shift, mult) pairs)."""
    if fmt == "json":
        r = json.loads(payload)
        rec = {k: r[k] for k in ("hilbert_I", "degZ", "tail_from", "mults", "mults_reduced")}
        rec["hilbert_Z"] = r["hilbert_Z"]
        if betti:
            rec["F0"] = [(e["shift"], e["mult"]) for e in r["F0"]]
            rec["F1"] = [(e["shift"], e["mult"]) for e in r["F1"]]
        return rec
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(payload)))
        if betti:
            expect(rows[0] == ["module", "shift", "mult"], "bad csv header")
            return {
                "F0": [(int(j), int(m)) for mod, j, m in rows[1:] if mod == "F0"],
                "F1": [(int(j), int(m)) for mod, j, m in rows[1:] if mod == "F1"],
            }
        expect(rows[0] == ["t", "h_I", "h_Z"], "bad csv header")
        hI = [int(r[1]) for r in rows[1:]]
        hZ = [int(r[2]) for r in rows[1:]]
        return {"hilbert_I": hI, "hilbert_Z": hZ, "degZ": hZ[-1], "tail_from": len(hI) - 1}
    lines = dict(line.split(": ", 1) for line in payload.splitlines())
    hI, _, tail = lines["h_I"].partition("   ")
    m = re.fullmatch(r"\(then C\(t\+2,2\) - (\d+) for t > (\d+)\)", tail)
    expect(m is not None, "unreadable h_I tail")
    rec = {
        "hilbert_I": ints(hI),
        "hilbert_Z": ints(lines["h_Z"].partition("   ")[0]),
        "degZ": int(lines["deg Z"]),
        "tail_from": int(m.group(2)),
        "mults": ints(lines["mults"]),
        "mults_reduced": ints(lines.get("reduced", lines["mults"])),
    }
    expect(int(m.group(1)) == rec["degZ"], "h_I tail disagrees with deg Z")
    if betti:
        rec["F0"] = _shifts(lines["F0"])
        rec["F1"] = _shifts(lines["F1"])
    return rec


def _dim(shifts, t: int) -> int:
    return sum(m * math.comb(t - j + 2, 2) for j, m in shifts if t >= j)


def check_scheme(rec: dict, mults, ordinary: bool, betti: bool) -> None:
    """Invariants of a fat point ideal's Hilbert function and resolution.

    ``ordinary`` means no point is infinitely near, so deg Z is known exactly.
    """
    bound = raw_degree(mults)
    if "mults" in rec:
        expect(list(rec["mults"]) == list(mults), "mults echoed wrongly")
        if ordinary:
            expect(list(rec["mults_reduced"]) == list(mults), "ordinary points were normalized")
        expect(sum(rec["mults_reduced"]) == sum(mults), "normalization changed the total")
    if "hilbert_I" in rec:
        hI, hZ, deg, tail = rec["hilbert_I"], rec["hilbert_Z"], rec["degZ"], rec["tail_from"]
        expect(len(hI) == len(hZ) == tail + 1, "value lists do not end at tail_from")
        expect(deg <= bound and (deg == bound or not ordinary), f"deg Z {deg} vs {bound}")
        for t in range(tail + 1):
            c = math.comb(t + 2, 2)
            expect(hI[t] + hZ[t] == c, f"h_I + h_Z != C(t+2,2) at t={t}")
            expect(hI[t] >= max(0, c - bound), f"h_I below expected dimension at t={t}")
        expect(all(a <= b for a, b in zip(hZ, hZ[1:])), "h_Z not monotone")
        expect(hZ[-1] == deg and (tail == 0 or hZ[-2] < deg), "tail_from is not where h_Z settles")
    if not betti:
        return
    f0, f1 = rec["F0"], rec["F1"]
    expect(sum(m for _, m in f0) - sum(m for _, m in f1) == 1, "resolution rank is not 1")
    top = max(j for j, _ in f0 + f1) + 3
    if "hilbert_I" in rec:
        top = max(top, rec["tail_from"] + 3)
        for t in range(top):
            h = rec["hilbert_I"][t] if t <= rec["tail_from"] else math.comb(t + 2, 2) - rec["degZ"]
            expect(_dim(f0, t) - _dim(f1, t) == h, f"dim F0 - dim F1 != h_I at t={t}")
    else:
        deg = math.comb(top + 2, 2) - (_dim(f0, top) - _dim(f1, top))
        expect(0 <= deg <= bound and (deg == bound or not ordinary), f"deg Z {deg} vs {bound}")
