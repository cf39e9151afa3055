"""Hilbert functions and graded Betti numbers of fat point ideals.

A fat point subscheme m1*p1 + ... + m6*p6 supported on one of the 90
configurations is handled purely through lattice data: the degree-t piece of
its ideal has dimension h^0 of the class t*L - m1*E1 - ... - m6*E6, computed
by negative-curve reduction.  Reducing the top degree m1 + ... + m6 + 3
normalizes the multiplicities, so that no difference class in the
configuration meets the scheme class negatively (infinitely near points
cannot carry more multiplicity than the points they sit over); this leaves
the ideal unchanged.  Degrees are scanned from that top degree downwards,
and the scan stops at the first degree without sections, since no lower
degree has any, or below the largest multiplicity of a point that is not
infinitely near another, where the class meets the nef class L - E_j
negatively.  Only the top degree is reduced from scratch.  Its nef part P
stays nef after subtracting up to k copies of L, where k is read off the
pairings of P with the negative curves of positive degree, and P - i*L is
the nef part of each degree in that top run.  Each lower degree reduces the
nef part of the degree above it minus L.  Every negative curve meets L
nonnegatively, so the curves forced into a
degree's class are forced into the class one degree lower as well, and the
nef part and the presence of sections come out the same.  Generator counts in
each degree come from the maximal-rank behaviour of multiplication by linear
forms, read off the nef parts by Riemann-Roch, and the first syzygy module
follows from third differences of the Hilbert function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .curves import (
    NegCurveSet,
    euler_characteristic,
    full_neg,
    reduce_to_nef,
    usable_point_indices,
)
from .errors import ConsistencyError, ValidationError
from .lattice import DivisorClass, L, N_POINTS, intersect
from .typeenum import ConfigurationType, enumerate_types

Mults = tuple[int, ...]


def _check_mults(mults: Sequence[int]) -> Mults:
    m = tuple(mults)
    if len(m) != N_POINTS:
        raise ValidationError(f"expected {N_POINTS} multiplicities, got {len(m)}")
    if any(type(v) is not int for v in m):
        raise ValidationError(f"multiplicities must be integers, got {m}")
    if any(v < 0 for v in m):
        raise ValidationError(f"multiplicities must be nonnegative, got {m}")
    return m


def fatpoint_class(mults: Sequence[int], t: int) -> DivisorClass:
    """The class t*L - m1*E1 - ... - m6*E6 whose sections are the degree-t
    forms through the scheme."""
    return DivisorClass(t, tuple(-v for v in mults))


def _top_nef_part(mults: Sequence[int], N: NegCurveSet) -> DivisorClass:
    """The nef part of the top degree's class T*L - m1*E1 - ... - m6*E6,
    T = m1 + ... + m6 + 3.  It has degree T, and minus its E coefficients are
    the normalized multiplicities.

    A class of degree T whose multiplicities are nonnegative and sum to
    T - 3 meets each E_i nonnegatively and each line and conic class
    positively, and peeling the differences E_i - E_j it meets negatively
    (m_i < m_j) keeps it such a class.  So only differences are peeled, and
    that is proximity normalization: each copy peeled is forced into every
    section, and the nef part does not depend on the order of the peeling.
    """
    m = _check_mults(mults)
    top = sum(m) + 3
    r = reduce_to_nef(DivisorClass._from_vec((top, *(-v for v in m))), N)
    if not r.effective or r.reduced[0] != top:
        raise ConsistencyError(
            f"degree {top} class of {m} reduced to {r.reduced}, not a nef class of degree {top}"
        )
    return r.reduced


def proximity_reduce(mults: Sequence[int], classes: Iterable[DivisorClass]) -> Mults:
    """Normalize multiplicities against a neg set's difference classes
    without changing the ideal: the result has m_i >= m_j for each E_i - E_j
    in ``classes``, the same sum, and is reached by steps that replace
    (m_i, m_j) by (m_i + 1, m_j - 1) while m_i < m_j.
    """
    return tuple(-v for v in _top_nef_part(mults, full_neg(classes))[1:])


@dataclass(frozen=True)
class HilbertFunction:
    """Hilbert data of a fat point ideal and its quotient ring.

    ``ideal_values[t]`` is the ideal's Hilbert function for t = 0..tail_from;
    past tail_from it equals binom(t+2, 2) - deg_z, and the quotient ring
    function is constant deg_z.
    """

    ideal_values: tuple[int, ...]
    deg_z: int
    tail_from: int

    def h_ideal(self, t: int) -> int:
        if t < 0:
            return 0
        if t <= self.tail_from:
            return self.ideal_values[t]
        return math.comb(t + 2, 2) - self.deg_z

    def h_quotient(self, t: int) -> int:
        if t < 0:
            return 0
        return math.comb(t + 2, 2) - self.h_ideal(t)

    def quotient_values(self) -> tuple[int, ...]:
        return tuple(self.h_quotient(t) for t in range(self.tail_from + 1))


@dataclass(frozen=True)
class GradedResolution:
    """Shift multisets of the two free modules in 0 -> F1 -> F0 -> I -> 0,
    stored as (shift, multiplicity) pairs with shifts ascending."""

    f0: tuple[tuple[int, int], ...]
    f1: tuple[tuple[int, int], ...]

    @staticmethod
    def _dim(shifts: tuple[tuple[int, int], ...], t: int) -> int:
        return sum(
            mult * math.comb(t - j + 2, 2) for j, mult in shifts if t >= j
        )

    def dim_f0(self, t: int) -> int:
        return self._dim(self.f0, t)

    def dim_f1(self, t: int) -> int:
        return self._dim(self.f1, t)


def format_shifts(shifts: Iterable[tuple[int, int]]) -> str:
    """A free module given by (shift, multiplicity) pairs, written as
    R[-j]^m terms with the largest shift first ("0" for the zero module)."""
    shifts = sorted(shifts, reverse=True)
    if not shifts:
        return "0"
    return " + ".join(f"R[-{j}]" + (f"^{m}" if m > 1 else "") for j, m in shifts)


class SchemeAnalysis(NamedTuple):
    """Everything computed for one fat point scheme: the normalized
    multiplicities, the Hilbert data and, when asked for, the resolution."""

    mults_reduced: Mults
    hilbert: HilbertFunction
    resolution: GradedResolution | None


def analyze(classes: Iterable[DivisorClass], mults: Sequence[int], betti: bool) -> SchemeAnalysis:
    """Normalize the multiplicities, then derive the Hilbert function and, if
    ``betti``, the minimal resolution from the nef part of each degree's class
    (multiplicities may be unnormalized).

    Degrees are scanned from T = m1 + ... + m6 + 3 downwards, and the scan
    stops at the first degree whose class has no sections: every lower degree
    has none either.  It never goes below t_min, the largest m_j with p_j a
    plane point: L - E_j is then nef, so D_t meets it in t - m_j < 0 for
    t < t_min, and a class with sections meets every nef class nonnegatively.

    Only the top class D_T = T*L - m1*E1 - ... - m6*E6 is reduced from
    scratch.  That reduction peels only differences E_i - E_j, so it is the
    proximity normalization of the multiplicities, and its nef part P has
    degree T with the normalized multiplicities as coefficients.  If the nef
    part of degree t is P_t = D_t - S (S the curves peeled off), degree t - 1
    reduces P_t - L in place of D_t - L, which peels only the curves that are
    new at that degree.  The two agree:

    - every curve C in N.NEG has L.C >= 0, so each copy of C that D_t is
      forced to contain, on top of the copies S' peeled before it, is forced
      into D_t - L too: (D_t - L - S').C <= (D_t - S').C < 0.  S is thus part
      of the fixed part of D_t - L, and the reduction of D_t - L equals the
      reduction of P_t - L, whichever order the curves are peeled in;
    - both are effective exactly when D_t - L has sections, since a reduction
      that ends at a nef class of degree >= 0 has chi >= 1 sections, and one
      that reaches a negative degree shows there are none.

    The top run needs no reduction at all.  A nef class is its own nef part,
    so while P - i*L is nef it is the nef part of degree T - i, and it has
    sections because its degree is >= 0.  (P - i*L).C = P.C - i*deg C, so
    P - i*L is nef exactly for i <= k = min(deg P, floor(P.C / deg C) over
    the curves C in N.NEG of positive degree).  The per-degree reductions
    resume from P - (k+1)*L.
    """
    N = full_neg(classes)
    P = _top_nef_part(mults, N)
    d, *a = P
    m = tuple(-v for v in a)
    k = min([d] + [intersect(P, c) // c[0] for c in N.NEG if c[0] > 0])
    # the nef part of each degree's class, or None where it has no sections;
    # m is checked, so the classes skip DivisorClass's coefficient checks.
    # L is base point free, so below a degree without sections there are none
    nef_parts: list[DivisorClass | None] = [None] * (d + 1)
    for i in range(k + 1):
        nef_parts[d - i] = DivisorClass._from_vec((d - i, *a))
    t_min = max(m[j - 1] for j in usable_point_indices(N))
    D = DivisorClass._from_vec((d - k - 1, *a))
    for t in range(d - k - 1, t_min - 1, -1):
        r = reduce_to_nef(D, N)
        if not r.effective:
            break
        nef_parts[t] = r.reduced
        D = r.reduced - L
    hf = _hilbert(m, nef_parts)
    res = _resolution(hf, _generators(hf, nef_parts)) if betti else None
    return SchemeAnalysis(m, hf, res)


def hilbert_function(classes: Iterable[DivisorClass], mults: Sequence[int]) -> HilbertFunction:
    """Hilbert data for the scheme with the given negative classes and
    multiplicities (multiplicities may be unnormalized)."""
    return analyze(classes, mults, betti=False).hilbert


def _hilbert(m: Mults, nef_parts: Sequence[DivisorClass | None]) -> HilbertFunction:
    deg_z = sum(v * (v + 1) // 2 for v in m)
    t_max = len(nef_parts) - 1
    vals = [0 if d is None else euler_characteristic(d) for d in nef_parts]
    for t in (t_max - 1, t_max):
        if vals[t] != math.comb(t + 2, 2) - deg_z:
            raise ConsistencyError(
                f"ideal Hilbert function failed to stabilize by degree {t_max}"
            )
    hz = [math.comb(t + 2, 2) - vals[t] for t in range(t_max + 1)]
    if any(a > b for a, b in zip(hz, hz[1:])) or hz[-1] != deg_z:
        raise ConsistencyError("quotient Hilbert function is not monotone to the degree")
    tail_from = hz.index(deg_z)
    return HilbertFunction(tuple(vals[: tail_from + 1]), deg_z, tail_from)


def _generators(
    hf: HilbertFunction, nef_parts: Sequence[DivisorClass | None]
) -> tuple[tuple[int, int], ...]:
    gens: dict[int, int] = {}
    for t in range(-1, len(nef_parts) - 1):
        h_cur = hf.h_ideal(t)
        h_next = hf.h_ideal(t + 1)
        if h_cur == 0:
            g = h_next
        else:
            # d is nef, so d + L is nef too and both are counted by Riemann-Roch:
            # h_cur = chi(d) and chi(d + L) - chi(d) = d.L + (L^2 - K.L)/2 = deg d + 2
            h_dl = h_cur + nef_parts[t][0] + 2
            g = (h_next - h_dl) + max(0, h_dl - 3 * h_cur)
        if g < 0:
            raise ConsistencyError(f"negative generator count {g} in degree {t + 1}")
        if g:
            gens[t + 1] = g
    return tuple(sorted(gens.items()))


def minimal_resolution(classes: Iterable[DivisorClass], mults: Sequence[int]) -> GradedResolution:
    """Graded Betti data of the minimal free resolution of the ideal."""
    return analyze(classes, mults, betti=True).resolution


def _resolution(hf: HilbertFunction, f0: tuple[tuple[int, int], ...]) -> GradedResolution:
    # R[-j] contributes binom(t - j + 2, 2) in degree t, whose third difference
    # in t is 1 at t = j and 0 elsewhere; so h_I = dim F0 - dim F1 gives
    # syzygies s_t = g_t - (third difference of h_I at t).  Past the last
    # generator and tail_from + 3 both terms vanish.
    if not f0:
        raise ConsistencyError("ideal has no generators")
    gens = dict(f0)
    h = hf.h_ideal
    f1 = []
    for t in range(max(max(gens), hf.tail_from + 3) + 1):
        s = gens.get(t, 0) - (h(t) - 3 * h(t - 1) + 3 * h(t - 2) - h(t - 3))
        if s < 0:
            raise ConsistencyError(
                f"free module dimensions disagree in degree {t} (defect {s})"
            )
        if s:
            f1.append((t, s))
    if sum(gens.values()) - sum(s for _, s in f1) != 1:
        raise ConsistencyError("resolution rank is not 1")
    if f1 and f1[0][0] < min(gens) + 1:
        raise ConsistencyError("resolution is not minimal at the smallest shift")
    return GradedResolution(f0=f0, f1=tuple(f1))


# ---------------------------------------------------------------------------
# the uniform multiplicity report (our table 2)


@dataclass(frozen=True)
class UniformData:
    """Quotient Hilbert values (up to their maximum) and Betti shifts for one
    uniform multiplicity."""

    hz: tuple[int, ...]
    f0: tuple[tuple[int, int], ...]
    f1: tuple[tuple[int, int], ...]


CASE_1_M1 = UniformData((1, 3, 5, 6), ((2, 1), (3, 1)), ((5, 1),))
CASE_1_M2 = UniformData((1, 3, 6, 10, 14, 17, 18), ((4, 1), (5, 1), (6, 1)), ((7, 1), (8, 1)))
CASE_2_M1 = UniformData((1, 3, 6), ((3, 4),), ((4, 3),))
CASE_2A_M2 = UniformData((1, 3, 6, 10, 14, 18), ((4, 1), (6, 4)), ((7, 4),))
CASE_2B1_M2 = UniformData((1, 3, 6, 10, 15, 18), ((5, 3), (6, 1)), ((7, 3),))
CASE_2B2_M2 = UniformData((1, 3, 6, 10, 15, 18), ((5, 3), (6, 2)), ((6, 1), (7, 3)))
CASE_2B3_M2 = UniformData((1, 3, 6, 10, 15, 18), ((5, 3), (6, 3)), ((6, 2), (7, 3)))

CASE_PATTERNS: dict[str, tuple[UniformData, UniformData]] = {
    "1": (CASE_1_M1, CASE_1_M2),
    "2a": (CASE_2_M1, CASE_2A_M2),
    "2b1": (CASE_2_M1, CASE_2B1_M2),
    "2b2": (CASE_2_M1, CASE_2B2_M2),
    "2b3": (CASE_2_M1, CASE_2B3_M2),
}


@dataclass(frozen=True)
class Table2Report:
    """Every type's outcome for uniform multiplicities 1 and 2, bucketed by
    (Hilbert function, resolution) pattern."""

    outcomes: dict[int, tuple[UniformData, UniformData]]
    cases: dict[str, tuple[int, ...]]


def _uniform_data(t: ConfigurationType, mult: int) -> UniformData:
    _, hf, res = analyze(t.classes, (mult,) * N_POINTS, betti=True)
    return UniformData(hz=hf.quotient_values(), f0=res.f0, f1=res.f1)


@lru_cache(maxsize=1)
def table2() -> Table2Report:
    outcomes: dict[int, tuple[UniformData, UniformData]] = {}
    cases: dict[str, list[int]] = {name: [] for name in CASE_PATTERNS}
    for t in enumerate_types():
        pair = (_uniform_data(t, 1), _uniform_data(t, 2))
        outcomes[t.id] = pair
        for name, pattern in CASE_PATTERNS.items():
            if pair == pattern:
                cases[name].append(t.id)
                break
        else:
            raise ConsistencyError(
                f"type {t.id} matches no known uniform multiplicity pattern: {pair}"
            )
    return Table2Report(
        outcomes=outcomes,
        cases={name: tuple(ids) for name, ids in cases.items()},
    )
