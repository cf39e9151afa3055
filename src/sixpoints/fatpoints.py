"""Hilbert functions and graded Betti numbers of fat point ideals.

A fat point subscheme m1*p1 + ... + m6*p6 supported on one of the 90
configurations is handled purely through lattice data: the degree-t piece of
its ideal has dimension h^0 of the class t*L - m1*E1 - ... - m6*E6, computed
by negative-curve reduction.  Multiplicities are first normalized so that no
difference class in the configuration meets the scheme class negatively
(infinitely near points cannot carry more multiplicity than the points they
sit over); this leaves the ideal unchanged.  Generator counts in each degree
come from the maximal-rank behaviour of multiplication by linear forms, and
the first syzygy module is solved degree by degree from the Hilbert function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .curves import euler_characteristic, full_neg, reduce_to_nef
from .errors import ConsistencyError, ValidationError
from .lattice import DivisorClass, L, N_POINTS
from .typeenum import ConfigurationType, enumerate_types

Mults = tuple[int, ...]


def _check_mults(mults: Sequence[int]) -> Mults:
    m = tuple(mults)
    if len(m) != N_POINTS:
        raise ValidationError(f"expected {N_POINTS} multiplicities, got {len(m)}")
    if any(v < 0 for v in m):
        raise ValidationError(f"multiplicities must be nonnegative, got {m}")
    return m


@dataclass(frozen=True)
class FatPointScheme:
    """A configuration type together with a multiplicity for each point."""

    ctype: ConfigurationType
    mults: Mults

    def __post_init__(self):
        object.__setattr__(self, "mults", _check_mults(self.mults))


def fatpoint_class(mults: Sequence[int], t: int) -> DivisorClass:
    """The class t*L - m1*E1 - ... - m6*E6 whose sections are the degree-t
    forms through the scheme."""
    return DivisorClass(t, tuple(-v for v in mults))


def _difference_classes(classes: Iterable[DivisorClass]) -> list[tuple[int, int]]:
    out = []
    for c in classes:
        if c.d == 0:
            i = next(k for k in range(1, 7) if c[k] == 1)
            j = next(k for k in range(1, 7) if c[k] == -1)
            out.append((i, j))
    return out


def proximity_reduce(mults: Sequence[int], config) -> Mults:
    """Normalize multiplicities against the difference classes of a
    configuration without changing the ideal.

    While some E_i - E_j in the configuration has m_i < m_j, replace
    (m_i, m_j) by (m_i + 1, m_j - 1).  ``config`` may be a ConfigurationType
    or any iterable of classes.
    """
    m = list(_check_mults(mults))
    classes = config.classes if isinstance(config, ConfigurationType) else config
    roots = _difference_classes(classes)
    guard = sum(k * v for k, v in enumerate(m, 1)) + 1
    for _ in range(guard):
        for i, j in roots:
            if m[i - 1] < m[j - 1]:
                m[i - 1] += 1
                m[j - 1] -= 1
                break
        else:
            return tuple(m)
    raise ConsistencyError("proximity normalization failed to settle")


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

    @staticmethod
    def _pretty(shifts: tuple[tuple[int, int], ...]) -> str:
        if not shifts:
            return "0"
        return " + ".join(
            f"R[-{j}]" + (f"^{m}" if m > 1 else "")
            for j, m in sorted(shifts, reverse=True)
        )

    def pretty_f0(self) -> str:
        return self._pretty(self.f0)

    def pretty_f1(self) -> str:
        return self._pretty(self.f1)


class SchemeAnalysis(NamedTuple):
    """Everything computed for one fat point scheme: the normalized
    multiplicities, the Hilbert data and, when asked for, the resolution."""

    mults_reduced: Mults
    hilbert: HilbertFunction
    resolution: GradedResolution | None


def analyze(classes: Iterable[DivisorClass], mults: Sequence[int], betti: bool) -> SchemeAnalysis:
    """Normalize the multiplicities, then reduce the class of every degree
    once and derive the Hilbert function and, if ``betti``, the minimal
    resolution from those reductions (multiplicities may be unnormalized)."""
    classes = tuple(classes)
    m = proximity_reduce(mults, classes)
    N = full_neg(classes)
    # the nef part of each degree's class, or None where it has no sections
    nef_parts = []
    for t in range(sum(m) + 4):
        r = reduce_to_nef(fatpoint_class(m, t), N)
        nef_parts.append(r.reduced if r.effective else None)
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


def generator_degrees(classes: Iterable[DivisorClass], mults: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Degrees and counts of minimal generators of the ideal, ascending."""
    return minimal_resolution(classes, mults).f0


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
            # d is nef, so d + L is nef too and both are counted by Riemann-Roch
            d = nef_parts[t]
            h_d = euler_characteristic(d)
            h_dl = euler_characteristic(d + L)
            g = (h_next - h_dl) + max(0, h_dl - 3 * h_d)
        if g < 0:
            raise ConsistencyError(f"negative generator count {g} in degree {t + 1}")
        if g:
            gens[t + 1] = g
    return tuple(sorted(gens.items()))


def minimal_resolution(classes: Iterable[DivisorClass], mults: Sequence[int]) -> GradedResolution:
    """Graded Betti data of the minimal free resolution of the ideal."""
    return analyze(classes, mults, betti=True).resolution


def _resolution(hf: HilbertFunction, f0: tuple[tuple[int, int], ...]) -> GradedResolution:
    if not f0:
        raise ConsistencyError("ideal has no generators")
    syz: dict[int, int] = {}
    horizon = max(j for j, _ in f0) + 5
    t = 0
    while t <= horizon:
        want = GradedResolution._dim(f0, t) - hf.h_ideal(t)
        have = GradedResolution._dim(tuple(syz.items()), t)
        defect = want - have
        if defect < 0:
            raise ConsistencyError(
                f"free module dimensions disagree in degree {t} (defect {defect})"
            )
        if defect > 0:
            syz[t] = defect
            horizon = max(horizon, t + 5)
        t += 1
    f1 = tuple(sorted(syz.items()))
    if sum(g for _, g in f0) - sum(s for _, s in f1) != 1:
        raise ConsistencyError("resolution rank is not 1")
    if f1 and min(j for j, _ in f1) < min(j for j, _ in f0) + 1:
        raise ConsistencyError("resolution is not minimal at the smallest shift")
    return GradedResolution(f0=f0, f1=f1)


def hilbert_I(scheme: FatPointScheme) -> HilbertFunction:
    return hilbert_function(scheme.ctype.classes, scheme.mults)


def resolution(scheme: FatPointScheme) -> GradedResolution:
    return minimal_resolution(scheme.ctype.classes, scheme.mults)


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
