"""Negative curves and line bundle cohomology on the blown-up surface.

When the anticanonical class is nef, every class of an irreducible curve of
negative self-intersection comes from a short explicit list: exceptional
classes E_i, differences E_i - E_j, line classes through two or three of the
points, and conic classes through five or six.  The square -2 members of that
list (the ``neg`` set) determine the rest, and testing a class against the
full list decides nefness.  h^0 of any class is then computed by peeling off
curves the class meets negatively until it is nef or visibly empty, and
h^1/h^2 follow from Riemann-Roch and duality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import ConsistencyError, ValidationError
from .lattice import DivisorClass, E, K, N_POINTS, intersect, selfint


def _line(points: Iterable[int]) -> DivisorClass:
    m = [0] * N_POINTS
    for p in points:
        m[p - 1] = -1
    return DivisorClass(1, m)


def _conic(points: Iterable[int]) -> DivisorClass:
    m = [0] * N_POINTS
    for p in points:
        m[p - 1] = -1
    return DivisorClass(2, m)


def _vertical(i: int, tail: Iterable[int]) -> DivisorClass:
    m = [0] * N_POINTS
    m[i - 1] = 1
    for j in tail:
        m[j - 1] = -1
    return DivisorClass(0, m)


@dataclass(frozen=True)
class CandidateFamilies:
    """All families of classes that can carry an irreducible negative curve.

    B, V, Lfam, Q cover arbitrary configurations; the primed variants are the
    members that survive when the anticanonical class is nef; the double
    primed ones are the square -2 members (the candidates for ``neg``).
    """

    B: tuple[DivisorClass, ...]
    V: tuple[DivisorClass, ...]
    Lfam: tuple[DivisorClass, ...]
    Q: tuple[DivisorClass, ...]
    Bp: tuple[DivisorClass, ...]
    Vp: tuple[DivisorClass, ...]
    Lp: tuple[DivisorClass, ...]
    Qp: tuple[DivisorClass, ...]
    Vpp: tuple[DivisorClass, ...]
    Lpp: tuple[DivisorClass, ...]
    Qpp: tuple[DivisorClass, ...]


@lru_cache(maxsize=1)
def candidate_families() -> CandidateFamilies:
    points = range(1, N_POINTS + 1)
    B = tuple(E)
    V = tuple(
        _vertical(i, tail)
        for i in points
        for r in range(1, N_POINTS - i + 1)
        for tail in itertools.combinations(range(i + 1, N_POINTS + 1), r)
    )
    Lfam = tuple(
        _line(s)
        for r in range(2, N_POINTS + 1)
        for s in itertools.combinations(points, r)
    )
    Q = tuple(
        _conic(s)
        for r in (5, 6)
        for s in itertools.combinations(points, r)
    )
    Vp = tuple(_vertical(i, (j,)) for i, j in itertools.combinations(points, 2))
    Lp = tuple(
        _line(s)
        for r in (2, 3)
        for s in itertools.combinations(points, r)
    )
    Lpp = tuple(_line(s) for s in itertools.combinations(points, 3))
    Qpp = (_conic(points),)
    return CandidateFamilies(
        B=B, V=V, Lfam=Lfam, Q=Q,
        Bp=B, Vp=Vp, Lp=Lp, Qp=Q,
        Vpp=Vp, Lpp=Lpp, Qpp=Qpp,
    )


@lru_cache(maxsize=1)
def minus_one_candidates() -> tuple[DivisorClass, ...]:
    """The 27 square -1 candidates, in family order (E_i, two-point lines,
    five-point conics) and lexicographic index order within each family."""
    points = range(1, N_POINTS + 1)
    lines = tuple(_line(s) for s in itertools.combinations(points, 2))
    conics = tuple(_conic(s) for s in itertools.combinations(points, 5))
    return tuple(E) + lines + conics


# Pairs strictly positively with every class a reduction can ever subtract
# (checked in the test suite); the degree must exceed 6+5+4 so that
# three-point line classes still pair positively.  Drives the step bound in
# reduce_to_nef.
AMPLE_CLASS = DivisorClass(16, (-6, -5, -4, -3, -2, -1))


@dataclass(frozen=True)
class NegCurveSet:
    """Classes of irreducible negative curves: the square -2 part (``neg``)
    and the full list (``NEG``), in a fixed deterministic order."""

    neg: tuple[DivisorClass, ...]
    NEG: tuple[DivisorClass, ...]


def full_neg(neg: Iterable[DivisorClass]) -> NegCurveSet:
    """Reconstruct the full negative-curve list from its square -2 part.

    The -1 part consists of the candidates from ``minus_one_candidates`` that
    meet every member of ``neg`` nonnegatively.
    """
    neg_t = tuple(neg)
    seen = set()
    for c in neg_t:
        if selfint(c) != -2:
            raise ValidationError(f"{c} has self-intersection {selfint(c)}, expected -2")
        if intersect(c, K) != 0:
            raise ValidationError(f"{c} is not orthogonal to the canonical class")
        if c in seen:
            raise ValidationError(f"duplicate class {c} in neg set")
        seen.add(c)
    for a, b in itertools.combinations(neg_t, 2):
        if intersect(a, b) < 0:
            raise ValidationError(
                f"classes {a} and {b} meet in {intersect(a, b)} < 0; "
                "a neg set must be pairwise nonnegative"
            )
    extras = tuple(
        c for c in minus_one_candidates()
        if all(intersect(c, d) >= 0 for d in neg_t)
    )
    return NegCurveSet(neg=neg_t, NEG=neg_t + extras)


def is_nef(F: DivisorClass, N: NegCurveSet) -> bool:
    """True iff F meets every negative curve nonnegatively."""
    return all(intersect(F, c) >= 0 for c in N.NEG)


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of peeling negative curves off a class.

    ``reduced + sum(subtractions)`` equals the input, with one entry in
    ``subtractions`` per copy of a curve peeled off; their order is not
    promised.  If ``effective`` the reduced class is nef and carries all
    sections, and it and the multiset of subtractions are determined by the
    input.  Otherwise the input has no sections and the only promise about
    the reduced class is that its degree is negative.
    """

    reduced: DivisorClass
    subtractions: tuple[DivisorClass, ...]
    effective: bool


def _step_limit(F: DivisorClass) -> int:
    # AMPLE_CLASS drops by at least 1 per subtraction, the degree never rises,
    # and the smallest exceptional coefficient never falls below its starting
    # floor, so the pairing cannot fall further than this.
    floor = min(0, min(F.m))
    return max(1, intersect(AMPLE_CLASS, F) - 21 * floor + 1)


def reduce_to_nef(F: DivisorClass, N: NegCurveSet) -> ReductionResult:
    """Repeatedly subtract the first curve C in N.NEG the class D meets
    negatively, ceil(-D.C / -C^2) copies at a time: a section of D vanishes
    on C to at least that order.

    Stops when the running class has negative degree (no sections) or meets
    everything nonnegatively (nef).  A step-count guard converts a corrupted
    curve list into a hard error instead of a hang.
    """
    D = F
    subs: list[DivisorClass] = []
    limit = _step_limit(F)
    while D[0] >= 0:
        for hit in N.NEG:
            p = intersect(D, hit)
            if p < 0:
                break
        else:
            return ReductionResult(D, tuple(subs), True)
        s = -selfint(hit)
        k = -(p // s) if s > 0 else 1  # only a corrupted NEG has C^2 >= 0
        if hit[0] > 0:
            k = min(k, D[0] // hit[0] + 1)  # stop at the first negative degree
        if len(subs) + k > limit:
            raise ConsistencyError(
                f"reduction of {F} exceeded {limit} steps; negative-curve set is broken"
            )
        D = D - k * hit
        subs.extend([hit] * k)
    return ReductionResult(D, tuple(subs), False)


def euler_characteristic(F: DivisorClass) -> int:
    """Riemann-Roch value (F^2 - K.F)/2 + 1."""
    n = selfint(F) - intersect(K, F)
    if n % 2:
        raise ConsistencyError(f"parity failure: F^2 - K.F = {n} is odd for {F}")
    return n // 2 + 1


def h0(F: DivisorClass, N: NegCurveSet) -> int:
    """Dimension of the space of sections of F."""
    r = reduce_to_nef(F, N)
    if not r.effective:
        return 0
    return euler_characteristic(r.reduced)


def h2(F: DivisorClass, N: NegCurveSet) -> int:
    """Second cohomology, via duality with K - F."""
    return h0(K - F, N)


def h1(F: DivisorClass, N: NegCurveSet) -> int:
    """First cohomology, as h^0 + h^2 minus the Riemann-Roch value."""
    v = h0(F, N) + h2(F, N) - euler_characteristic(F)
    if v < 0:
        raise ConsistencyError(f"negative h^1 = {v} for {F}; h^0 computation is broken")
    return v
