"""Negative curves, line bundle cohomology and the multiplication rank
bounds on the blown-up surface.

When the anticanonical class is nef, every class of an irreducible curve of
negative self-intersection comes from a short explicit list: exceptional
classes E_i, differences E_i - E_j, line classes through two or three of the
points, and conic classes through five or six.  Its 36 square -2 members are
the candidate classes, and a configuration's ``neg`` set is a set of distinct
candidates that pairwise meet nonnegatively; this module holds both the
candidates and that rule.  The neg set determines the rest of the list, and
a class is nef iff its pairing vector with the list has no negative entry.
The one sections count, ``_h0``, peels off curves the class meets negatively
until it is nef or visibly empty and takes the Riemann-Roch value of the nef
part; h^1/h^2 follow from Riemann-Roch and duality.  A reduction carries the
pairings of the running class with every curve in the list as one integer,
a lane of W bits per curve, and peeling k copies of a curve subtracts k
times that curve's packed row of the Gram matrix.  Only this module builds
the lane tables (``_packing``) and sizes the lanes (``_lane_width``).

``check_mu_bounds`` checks the bounds on the rank of multiplication by
linear forms on a nef class F at each base point j (see ``MuStats``): the
kernel lies between l and q + l, and the four are tied to h^0(F + L) -
3 h^0(F), which with q*, l* >= 0 bounds the cokernel by q* + l*.  The lanes
of F - E_j and F - (L - E_j) are F's plus or minus its packed column j.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .errors import ConsistencyError, ValidationError
from .lattice import DivisorClass, E, K, L, N_POINTS, _check_vector, _intersect, e, selfint


def _curve(d: int, points: Iterable[int]) -> DivisorClass:
    """The class d*L - sum of E_p over ``points`` (1-indexed)."""
    m = [0] * N_POINTS
    for p in points:
        m[p - 1] = -1
    return DivisorClass(d, m)


@lru_cache(maxsize=1)
def minus_one_candidates() -> tuple[DivisorClass, ...]:
    """The 27 square -1 candidates, in family order (E_i, two-point lines,
    five-point conics) and lexicographic index order within each family."""
    points = range(1, N_POINTS + 1)
    return (
        E
        + tuple(_curve(1, s) for s in itertools.combinations(points, 2))
        + tuple(_curve(2, s) for s in itertools.combinations(points, 5))
    )


@lru_cache(maxsize=1)
def candidate_pool() -> tuple[DivisorClass, ...]:
    """The 36 candidate classes a neg set is drawn from, in fixed order: 15
    differences E_i - E_j with i < j, then 20 line classes L - E_i - E_j - E_k
    with i < j < k, then the conic class 2L - E1 - ... - E6.  Index order
    within each block is lexicographic on the point indices."""
    points = range(1, N_POINTS + 1)
    return (
        tuple(E[i - 1] - E[j - 1] for i, j in itertools.combinations(points, 2))
        + tuple(_curve(1, s) for s in itertools.combinations(points, 3))
        + (_curve(2, points),)
    )


@lru_cache(maxsize=1)
def _pool_index() -> dict[DivisorClass, int]:
    return {c: i for i, c in enumerate(candidate_pool())}


def _pool_indices(classes: Iterable[DivisorClass]) -> tuple[int, ...]:
    """Pool indices of distinct candidate classes, in input order."""
    if not isinstance(classes, Iterable):
        raise ValidationError(f"expected a collection of candidate classes, got {classes!r}")
    index = _pool_index()
    out: list[int] = []
    for c in classes:
        try:
            if type(c) is not DivisorClass:  # a plain tuple hashes equal to the class it spells
                _check_vector(c)
            i = index.get(c)
        except (TypeError, ValidationError):  # unhashable or not 7 integers, so not a class
            raise ValidationError(f"expected a candidate class, got {c!r}") from None
        if i is None:
            raise ValidationError(
                f"{c} is not one of the 36 candidate classes (E_i - E_j with i < j, "
                "L - E_i - E_j - E_k, 2L - E1 - ... - E6; each has self-intersection -2 "
                "and is orthogonal to the canonical class)"
            )
        if i in out:
            raise ValidationError(f"duplicate class {c}")
        out.append(i)
    return tuple(out)


def _neg_indices(classes: Iterable[DivisorClass]) -> tuple[int, ...]:
    """The neg-set rule: distinct candidate classes that pairwise meet
    nonnegatively.  Returns their pool indices, in input order."""
    idxs = _pool_indices(classes)
    pool = candidate_pool()
    for i, j in itertools.combinations(idxs, 2):
        w = _intersect(pool[i], pool[j])
        if w < 0:
            raise ValidationError(
                f"classes {pool[i]} and {pool[j]} meet negatively (in {w}); "
                "a neg set must be pairwise nonnegative"
            )
    return idxs


# Pairs strictly positively with every class a reduction can ever subtract
# (checked in the test suite); the degree must exceed 6+5+4 so that
# three-point line classes still pair positively.  Drives the step bound in
# _peel.
AMPLE_CLASS = DivisorClass(16, (-6, -5, -4, -3, -2, -1))
# AMPLE_CLASS.D >= _AMPLE_WEIGHT * (smallest E coefficient of D, if negative)
# for every class D of degree >= 0
_AMPLE_WEIGHT = -sum(AMPLE_CLASS.m)


@lru_cache(maxsize=1)
def _curve_classes() -> frozenset[DivisorClass]:
    return frozenset(candidate_pool() + minus_one_candidates())


class NegCurveSet:
    """Classes of irreducible negative curves: the square -2 part (``neg``)
    and the full list (``NEG``), in a fixed deterministic order.  Every class
    of ``NEG`` must be a candidate class (``candidate_pool`` or
    ``minus_one_candidates``), so of square -1 or -2: the reductions rest on
    their shapes.  Derived once, at construction: ``minus_sq``, -C^2 for each
    curve C of ``NEG``, ``support``, the nonzero coefficients of each, and
    ``usable``, the indices j such that p_j is an honest plane point (not
    infinitely near), that is j is never the subtracted index of a
    difference class E_i - E_j in ``neg``.  The packed tables of
    ``_packing`` are kept in ``packings``, one entry per lane width, built on
    first use.  Two sets compare equal only if they are the same object."""

    __slots__ = ("neg", "NEG", "minus_sq", "support", "usable", "packings")

    def __init__(self, neg: tuple[DivisorClass, ...], NEG: tuple[DivisorClass, ...]) -> None:
        curves = _curve_classes()
        for c in NEG:
            if type(c) is not DivisorClass or c not in curves:
                raise ValidationError(
                    f"{c!r} is not a candidate curve class (one of candidate_pool or "
                    "minus_one_candidates); full_neg builds the curve list of a neg set"
                )
        self.neg = neg
        self.NEG = NEG
        self.minus_sq = tuple(-selfint(c) for c in NEG)
        self.support = tuple(tuple((j, v) for j, v in enumerate(c) if v) for c in NEG)
        near = {c.index(-1) for c in neg if c[0] == 0}
        self.usable = tuple(j for j in range(1, N_POINTS + 1) if j not in near)
        self.packings: dict[int, tuple[int, tuple[int, ...], tuple[int, ...]]] = {}

    def __repr__(self) -> str:
        return f"NegCurveSet(neg={self.neg!r}, NEG={self.NEG!r})"


def full_neg(neg: Iterable[DivisorClass]) -> NegCurveSet:
    """Reconstruct the full negative-curve list from its square -2 part.

    ``neg`` must be a neg set: distinct classes from ``candidate_pool`` that
    pairwise meet nonnegatively.  The -1 part consists of the candidates from
    ``minus_one_candidates`` that meet every member of ``neg`` nonnegatively.
    Memoized on the pool indices, so its members are always the pool's classes.
    """
    return _full_neg(_neg_indices(neg))


@lru_cache(maxsize=128)  # room for the 90 types
def _full_neg(idxs: tuple[int, ...]) -> NegCurveSet:
    pool = candidate_pool()
    neg = tuple(pool[i] for i in idxs)
    extras = tuple(c for c in minus_one_candidates() if all(_intersect(c, d) >= 0 for d in neg))
    return NegCurveSet(neg=neg, NEG=neg + extras)


def _check_class(F: DivisorClass) -> None:
    if type(F) is not DivisorClass:
        raise ValidationError(f"expected a DivisorClass, got {F!r}")


def _check_curves(N: NegCurveSet) -> None:
    if type(N) is not NegCurveSet:
        raise ValidationError(f"expected a NegCurveSet (see full_neg), got {N!r}")


def _packing(N: NegCurveSet, W: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Tables for W-bit lanes, lane k holding curve C_k of N.NEG: ``high``,
    with 2^(W-1) in every lane, the packed Gram rows sum_k C_i.C_k 2^(Wk) and
    the packed columns sum_k C_k[j] 2^(Wk), j = 0..6.  If every |D.C_k| <
    2^(W-1), then p = high + d*columns[0] - a_1*columns[1] - ... for
    D = d*L + a_1*E1 + ... + a_6*E6 has the digits 2^(W-1) + D.C_k in base
    2^W: D.C_k >= 0 iff the top bit of lane k is set, and p - k*rows[i] is
    the packed pairings of D - k*C_i.  Built once per (N, W), kept on N."""
    try:
        return N.packings[W]
    except KeyError:
        pass
    lanes = [(C, W * k) for k, C in enumerate(N.NEG)]
    high = sum(1 << W - 1 << s for _, s in lanes)
    rows = tuple(sum(_intersect(A, C) << s for C, s in lanes) for A, _ in lanes)
    columns = tuple(sum(C[j] << s for C, s in lanes) for j in range(N_POINTS + 1))
    return N.packings.setdefault(W, (high, rows, columns))


def _lane_width(D: Sequence[int]) -> int:
    # A lane must hold D'.C for every curve C of N.NEG (candidate classes, as
    # NegCurveSet checks) and every class D' of a reduction of D, or of
    # analyze's scan down from D, whose degree steps subtract L.  Along
    # either:
    # - the degree never rises, and stays >= -2: a copy of a curve (of degree
    #   <= 2) that makes it negative is the last;
    # - each E coefficient stays at or above the starting floor min(0, a_1,
    #   ..., a_6): E_i is peeled down to a_i = 0, E_i - E_j down to a_i >=
    #   a_j, and line and conic classes raise the coefficients;
    # - AMPLE_CLASS.D' = 16d' + sum w_i a'_i never rises (weights w_i in 1..6,
    #   summing to _AMPLE_WEIGHT = 21).
    # So the positive parts of the a'_i sum to at most AMPLE_CLASS.D + 32 -
    # 21*floor and their negative parts to at most -6*floor, and a curve, of
    # degree <= 2 with E coefficients in -1..1, meets D' in at most 2|d'| +
    # sum |a'_i| in absolute value; sum |a_i| covers D itself, which takes no
    # step at a negative degree.  The floor is taken one lower so that the
    # bound also holds from D - E_j and D - (L - E_j), which _stats_at
    # reduces on D's lanes.  W is the least multiple of 8 with 2^(W-1) > bound
    # (multiples of 8, so that a configuration keeps few tables).
    d, *a = D
    floor = min(0, *a) - 1
    bound = 2 * max(abs(d), 2) + max(
        sum(map(abs, a)), _intersect(AMPLE_CLASS, D) + 32 - (_AMPLE_WEIGHT + N_POINTS) * floor
    )
    return bound.bit_length() // 8 * 8 + 8


def _pack(D: Sequence[int], N: NegCurveSet) -> tuple[int, int]:
    """The lane width W of D (see ``_lane_width``) and D's pairings with
    N.NEG packed into W-bit lanes (see ``_packing``)."""
    W = _lane_width(D)
    high, _, (c0, c1, c2, c3, c4, c5, c6) = _packing(N, W)
    d, a1, a2, a3, a4, a5, a6 = D
    return W, high + d * c0 - a1 * c1 - a2 * c2 - a3 * c3 - a4 * c4 - a5 * c5 - a6 * c6


def is_nef(F: DivisorClass, N: NegCurveSet) -> bool:
    """True iff F meets every negative curve nonnegatively, i.e. the top bit
    of every lane of its packed pairings with N.NEG is set."""
    _check_class(F)
    _check_curves(N)
    W, p = _pack(F, N)
    return not ~p & _packing(N, W)[0]


class ReductionResult(NamedTuple):
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


def _step_limit(F: Sequence[int]) -> int:
    # AMPLE_CLASS drops by at least 1 per subtraction, the degree never rises,
    # and the smallest exceptional coefficient never falls below its starting
    # floor, so the pairing cannot fall further than this.
    floor = min(0, *F[1:])
    return max(1, _intersect(AMPLE_CLASS, F) - _AMPLE_WEIGHT * floor + 1)


def _peel(
    D: list[int], p: int, N: NegCurveSet, W: int, subs: list | None = None
) -> tuple[int, int]:
    """Reduce the class D in place and return its packed pairings and the
    lanes it selected, given p, those of D with N.NEG in W-bit lanes (see
    ``_packing``): peel ceil(-D.C / -C^2) copies of the first curve C in
    N.NEG with D.C < 0 (a section of D vanishes on C to that order; a copy
    that makes the degree negative is the last) and subtract as many packed
    Gram rows of C from p, appending each copy to ``subs`` if given.  D ends
    nef, or at a negative degree (no sections).  The first such C is the
    lowest lane whose top bit is clear, and the selected lanes come back as
    the OR of those top bits (0 if D takes no step).  Which curve and how
    many copies read nothing but lane values: the degree cap binds only on
    a copy that leaves a negative degree.  ``fatpoints.analyze`` rests its
    period steps on that.

    A step-count guard turns a broken peel (pairings that do not follow the
    class, a curve list corrupted after construction) into a hard error
    instead of a hang.  It raises past ``_step_limit`` of D as it was at the
    first step, but starts from a lower bound on that limit, 16d + 1 at the
    starting degree d >= 0: AMPLE_CLASS.D - 21*floor = 16d + sum w_i (a_i -
    floor) >= 16d, each a_i being at or above the floor.  Only a peel that
    takes more steps than that computes the exact limit, and it raises on
    exactly the classes the exact limit raises on.
    """
    NEG, minus_sq, support = N.NEG, N.minus_sq, N.support
    high, rows, _ = _packing(N, W)
    mask, off = (1 << W) - 1, 1 << W - 1
    steps = sel = 0
    while D[0] >= 0:
        neg = ~p & high  # the top bits of the lanes that read D.C < 0
        if not neg:
            return p, sel
        low = neg & -neg  # the top bit of the lowest such lane
        sel |= low
        at = low.bit_length() - W  # the lane starts here
        i = at // W
        if not steps:  # the guard is set at the first step; a nef D takes none
            start = tuple(D)
            limit = AMPLE_CLASS[0] * D[0] + 1  # at most _step_limit(start)
        hit = NEG[i]
        k = -(((p >> at & mask) - off) // minus_sq[i])
        if hit[0] > 0:
            k = min(k, D[0] // hit[0] + 1)  # stop at the first negative degree
        steps += k
        if steps > limit:
            limit = _step_limit(start)
            if steps > limit:
                raise ConsistencyError(
                    f"reduction of {DivisorClass._from_vec(start)} exceeded {limit} steps; "
                    "negative-curve set is broken"
                )
        for j, c in support[i]:  # 2 to 7 of the 7 coordinates
            D[j] -= k * c
        p -= k * rows[i]
        if subs is not None:
            subs.extend([hit] * k)
    return p, sel


def reduce_to_nef(F: DivisorClass, N: NegCurveSet) -> ReductionResult:
    """Peel negative curves off F (see ``_peel``), recording each copy peeled
    off; a nef F comes back unchanged, with no subtractions."""
    _check_class(F)
    _check_curves(N)
    D, subs = list(F), []
    W, p = _pack(F, N)
    _peel(D, p, N, W, subs)
    return ReductionResult(DivisorClass._from_vec(tuple(D)), tuple(subs), D[0] >= 0)


def _chi(F: Sequence[int]) -> int:
    """euler_characteristic without its argument check, for vectors built here."""
    d, m1, m2, m3, m4, m5, m6 = F
    return ((d + 1) * (d + 2) - m1 * (m1 - 1) - m2 * (m2 - 1) - m3 * (m3 - 1)
            - m4 * (m4 - 1) - m5 * (m5 - 1) - m6 * (m6 - 1)) // 2


def euler_characteristic(F: Sequence[int]) -> int:
    """Riemann-Roch value (F^2 - K.F)/2 + 1 of F = d*L + m1*E1 + ... + m6*E6
    (a class or any sequence of 7 ints), in closed form: binom(d + 2, 2) -
    sum m_i(m_i - 1)/2.  F^2 - K.F = d(d + 3) - sum m_i(m_i - 1), a sum of
    even terms."""
    _check_vector(F)
    return _chi(F)


def _h0(D: list[int], p: int, N: NegCurveSet, W: int) -> int:
    """h^0 of the class D, given p, its pairings with N.NEG in W-bit lanes:
    the Riemann-Roch value of its nef part, or 0 at a negative degree (where
    ``_peel`` returns at once) or where the peel reaches one.  Peels D in
    place."""
    _peel(D, p, N, W)
    return _chi(D) if D[0] >= 0 else 0


def h0(F: DivisorClass, N: NegCurveSet) -> int:
    """Dimension of the space of sections of F (see ``_h0``); at a negative
    degree, 0 without building F's pairings."""
    _check_class(F)
    _check_curves(N)
    if F[0] < 0:
        return 0
    W, p = _pack(F, N)
    return _h0(list(F), p, N, W)


def h2(F: DivisorClass, N: NegCurveSet) -> int:
    """Second cohomology, via duality with K - F."""
    _check_class(F)
    return h0(K - F, N)


def _check_h1(v: int, D: DivisorClass) -> int:
    if v < 0:
        raise ConsistencyError(f"negative h^1 = {v} for {D}; h^0 computation is broken")
    return v


def h1(F: DivisorClass, N: NegCurveSet) -> int:
    """First cohomology, h^0 + h^2 minus the Riemann-Roch value."""
    return _check_h1(h0(F, N) + h2(F, N) - _chi(F), F)


class MuStats(NamedTuple):
    """Section counts controlling the rank of multiplication by linear forms
    on the nef class F, computed at base point index j (``index``): q =
    h^0(F - E_j) and l = h^0(F - (L - E_j)); qstar and lstar are the
    corresponding h^1; h0F = h^0(F) and h0FL = h^0(F + L); ker_pred and
    cok_pred are the kernel and cokernel dimensions that maximal rank
    predicts, max(0, +-(3 h0F - h0FL)).  An immutable tuple of these fields,
    in this order."""

    F: DivisorClass
    index: int
    q: int
    l: int
    qstar: int
    lstar: int
    h0F: int
    h0FL: int
    ker_pred: int
    cok_pred: int


def _nef_sections(F: DivisorClass, N: NegCurveSet) -> tuple[int, int, int, int, int]:
    """The lane width W of a nef class F, the pairings of F and of F - L with
    N.NEG packed into W-bit lanes, then h^0(F) and h^0(F + L).

    F and F + L are nef, so both are counted by Riemann-Roch:
    h^0(F) = chi(F) and chi(F + L) - chi(F) = F.L + (L^2 - K.L)/2 = deg F + 2.
    """
    _check_class(F)
    _check_curves(N)
    W, p = _pack(F, N)
    high, _, columns = _packing(N, W)
    if ~p & high:
        raise ValidationError(f"{F} is not nef for this configuration")
    chi = _chi(F)
    return W, p, p - columns[0], chi, chi + F[0] + 2


def _stats_at(F: DivisorClass, N: NegCurveSet, j: int, W: int, p: int, pL: int,
              h0F: int, h0FL: int) -> MuStats:
    """MuStats at index j, on packed pairings: ``_h0`` counts F - E_j and F -
    (L - E_j) from their pairings F.C + C_j and (F - L).C - C_j, one add or
    subtract of the packed column j (the lane width W of F also holds every
    pairing of their reductions, see ``_lane_width``).  Both have
    degree >= -1, so h^2 = 0 and h^1 = h^0 - chi, with chi(F - E_j) = chi(F) -
    a_j - 1 and chi(F - L + E_j) = chi(F) - d + a_j - 1 for F = d*L - sum a_i E_i."""
    d, aj, col = F[0], -F[j], _packing(N, W)[2][j]
    Q = list(F)
    Q[j] -= 1
    q = _h0(Q, p + col, N, W)
    D = list(F)
    D[0] -= 1
    D[j] += 1
    l = _h0(D, pL - col, N, W)
    qstar, lstar = q - h0F + aj + 1, l - h0F + d - aj + 1
    if qstar < 0 or lstar < 0:
        _check_h1(qstar, F - E[j - 1])
        _check_h1(lstar, F - (L - E[j - 1]))
    return MuStats(F, j, q, l, qstar, lstar, h0F, h0FL,
                   max(0, 3 * h0F - h0FL), max(0, h0FL - 3 * h0F))


def mu_stats(F: DivisorClass, N: NegCurveSet, index: int = 1) -> MuStats:
    sections = _nef_sections(F, N)
    e(index)  # validates the index
    return _stats_at(F, N, index, *sections)


class MuBoundsReport(NamedTuple):
    """Bound checks for one nef class, over every usable base point index."""

    F: DivisorClass
    stats: tuple[MuStats, ...]
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def check_mu_bounds(F: DivisorClass, N: NegCurveSet) -> MuBoundsReport:
    sections = _nef_sections(F, N)
    stats, bad = [], []
    for j in N.usable:
        s = _stats_at(F, N, j, *sections)
        stats.append(s)
        if not (s.l <= s.ker_pred <= s.q + s.l):
            bad.append(f"j={j}: kernel bound fails for {F}: l={s.l}, pred={s.ker_pred}, q+l={s.q + s.l}")
        if (s.lstar - s.l) + (s.qstar - s.q) != s.h0FL - 3 * s.h0F:
            bad.append(f"j={j}: difference identity fails for {F}")
    return MuBoundsReport(F=F, stats=tuple(stats), violations=tuple(bad))
