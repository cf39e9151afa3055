"""Hilbert functions and graded Betti numbers of fat point ideals.

A fat point subscheme m1*p1 + ... + m6*p6 supported on one of the 90
configurations is handled purely through lattice data: the degree-t piece of
its ideal has dimension h^0 of the class t*L - m1*E1 - ... - m6*E6.
``analyze`` finds the nef part of each degree's class with one reduction
from scratch (the top degree, which normalizes the multiplicities), a top run
of nef degrees read off its pairings with the negative curves, and a short
peel per lower degree, carrying those pairings, packed into one integer with
a lane per curve, from degree to degree so that none is recomputed.  The
peels repeat with a short period, and where a run of them provably repeats
(peel determinism, see ``analyze``) the scan steps over all its repeats at
once.
Riemann-Roch gives h^0 of each nef part; generator counts come from the
maximal-rank behaviour of multiplication by linear forms, and the first
syzygy module from third differences of the Hilbert function.  Inside the
top run every value is closed-form, and none is listed past the last degree
that can carry a generator.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import accumulate, compress, islice, repeat
from typing import Iterable, NamedTuple, Sequence

from .curves import NegCurveSet, _chi, _pack, _packing, _peel, full_neg
from .errors import ConsistencyError, ValidationError
from .lattice import DivisorClass, L, N_POINTS, _intersect
from .typeenum import ConfigurationType, enumerate_types

Mults = tuple[int, ...]


def _check_mults(mults: Sequence[int]) -> Mults:
    if not isinstance(mults, Iterable):
        raise ValidationError(f"multiplicities must be a sequence, got {mults!r}")
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
    return DivisorClass(t, tuple(-v for v in _check_mults(mults)))


def _top_nef_part(mults: Sequence[int], N: NegCurveSet) -> tuple[list[int], int, int]:
    """The nef part P of the top degree's class T*L - m1*E1 - ... - m6*E6,
    T = m1 + ... + m6 + 3, its pairings with N.NEG packed into lanes and
    their width W, which holds every pairing of a scan down from that class
    (see ``curves._lane_width``).  P has degree T, and minus its E
    coefficients are the normalized multiplicities.

    A class of degree T whose multiplicities are nonnegative and sum to
    T - 3 meets each E_i nonnegatively and each line and conic class
    positively, and peeling the differences E_i - E_j it meets negatively
    (m_i < m_j) keeps it such a class.  So only differences are peeled, and
    that is proximity normalization: each copy peeled is forced into every
    section, and the nef part does not depend on the order of the peeling.
    """
    m = _check_mults(mults)
    top = sum(m) + 3
    P = [top, *(-v for v in m)]
    W, p = _pack(P, N)
    p = _peel(P, p, N, W)[0]
    if P[0] != top:
        raise ConsistencyError(
            f"degree {top} class of {m} reduced to {P}, not a nef class of degree {top}"
        )
    return P, p, W


def proximity_reduce(mults: Sequence[int], classes: Iterable[DivisorClass]) -> Mults:
    """Normalize multiplicities against a neg set's difference classes
    without changing the ideal: the result has m_i >= m_j for each E_i - E_j
    in ``classes``, the same sum, and is reached by steps that replace
    (m_i, m_j) by (m_i + 1, m_j - 1) while m_i < m_j.
    """
    return tuple(-v for v in _top_nef_part(mults, full_neg(classes))[0][1:])


class HilbertFunction(NamedTuple):
    """Hilbert data of a fat point ideal and its quotient ring.

    ``ideal_values[t]`` is the ideal's Hilbert function and
    ``quotient_values[t]`` the quotient ring's, binom(t+2, 2) minus it, for
    t = 0..tail_from; past tail_from the ideal's equals binom(t+2, 2) - deg_z,
    and the quotient ring's is constant deg_z.
    """

    ideal_values: tuple[int, ...]
    deg_z: int
    tail_from: int
    quotient_values: tuple[int, ...]

    def h_ideal(self, t: int) -> int:
        if type(t) is not int:
            raise ValidationError(f"expected an int degree, got {t!r}")
        if t < 0:
            return 0
        if t <= self.tail_from:
            return self.ideal_values[t]
        return math.comb(t + 2, 2) - self.deg_z

    def h_quotient(self, t: int) -> int:
        h = self.h_ideal(t)
        return 0 if t < 0 else math.comb(t + 2, 2) - h


class GradedResolution(NamedTuple):
    """Shift multisets of the two free modules in 0 -> F1 -> F0 -> I -> 0,
    stored as (shift, multiplicity) pairs with shifts ascending."""

    f0: tuple[tuple[int, int], ...]
    f1: tuple[tuple[int, int], ...]


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
    has none either.  It never goes below t_min, the largest normalized
    multiplicity.  That is the multiplicity m_j of a plane point p_j, since
    normalized multiplicities do not increase along a chain of infinitely
    near points and every chain starts at a plane point; L - E_j is then nef,
    so D_t meets it in t - m_j < 0 for t < t_min, and a class with sections
    meets every nef class nonnegatively.

    Only the top class D_T = T*L - m1*E1 - ... - m6*E6 is reduced from
    scratch.  That reduction peels only differences E_i - E_j, so it is the
    proximity normalization of the multiplicities, and its nef part P has
    degree T with the normalized multiplicities as coefficients.  A nef class
    is its own nef part, and (P - i*L).C = P.C - i*deg C, so P - i*L is the
    nef part of degree T - i, with sections as its degree is >= 0, for
    i <= k = min(deg P, floor(P.C / deg C) over the curves C in N.NEG of
    positive degree); h_I there is binom(t + 2, 2) - deg Z.

    In that top run r = T - k, ..., T the values are listed only up to the
    last degree that can carry a generator, max(r, isqrt(2 deg Z)) (or T);
    ``_resolution`` extends h_I in closed form past the list, and no
    generator is lost:

    - for t > r the nef part of degree t - 1 has degree t - 1, so
      ``_generators`` has h_dl = h_{t-1} + (t - 1) + 2 = h_t and counts
      g_t = max(0, h_t - 3 h_{t-1});
    - h_t - h_{t-1} = t + 1 and 2 h_{t-1} = t(t + 1) - 2 deg Z, so
      h_t > 3 h_{t-1} iff t^2 - 1 < 2 deg Z iff t <= isqrt(2 deg Z): no
      generator lies above that degree.

    Below that run, with P_t = D_t - S the nef part of degree t (S the curves
    peeled off), degree t - 1 peels P_t - L in place of D_t - L, carrying the
    packed pairings with N.NEG from P.  The two agree:

    - every curve C in N.NEG has L.C >= 0, so each copy of C that D_t is
      forced to contain, on top of the copies S' peeled before it, is forced
      into D_t - L too: (D_t - L - S').C <= (D_t - S').C < 0.  S is thus part
      of the fixed part of D_t - L, whichever order the curves are peeled in;
    - both are effective exactly when D_t - L has sections, since a reduction
      that ends at a nef class of degree >= 0 has chi >= 1 sections, and one
      that reaches a negative degree shows there are none.

    The peels repeat, and the scan steps a whole period at a time.  Take the
    run of the last q degrees, from the nef part P_{t+q} to P_t, with Delta =
    P_t - P_{t+q} and delta_j = Delta.C_j.  If every lane the run's peels
    selected has delta_j = 0, the next n runs repeat it with the same curves
    and copies, for the largest n with x_j(P_t) + n*delta_j >= 0 on every
    lane, deg(P_t + n*Delta) >= 0 and t - n*q >= t_min; the nef part of degree
    t - o - (j - 1)*q is then P_{t+q-o} + j*Delta (``_step``).  The proof is
    peel determinism:

    - a peel reads only lane values: the lowest lane below 0 picks the curve,
      its value the copies.  The degree cap binds only on a copy that leaves a
      negative degree, and degrees only fall along a run, so it never binds
      in a run that ends at degree >= 0;
    - a lane the run never selects only falls within it: stepping down by L
      lowers it by L.C_j >= 0, and peeling another curve C lowers it by
      C.C_j >= 0, as distinct curves of N.NEG meet nonnegatively.  Shifted by
      j*Delta, it falls to x_j(P_t) + j*delta_j at the end of the j-th repeat,
      which is >= 0 for every j <= n (it is linear in j), so it is never read
      below 0;
    - a lane the run selects reads the same value at the same point of every
      repeat, as delta_j = 0.  So each repeat peels the same curves with the
      same copies, and the scan itself would reach P_t + n*Delta.

    Which runs to try is a heuristic: the run back to the latest degree whose
    peel subtracted the same packed pairings as this one.  The test is exact.
    """
    if type(betti) is not bool:
        raise ValidationError(f"expected a bool for betti, got {betti!r}")
    N = full_neg(classes)
    D, p, W = _top_nef_part(mults, N)
    P = DivisorClass._from_vec(tuple(D))
    d, m = P[0], tuple(-v for v in P[1:])
    deg_z = sum(v * (v + 1) // 2 for v in m)
    k = min([d] + [_intersect(P, C) // C[0] for C in N.NEG if C[0] > 0])
    r = d - k
    end = min(d, max(r, math.isqrt(2 * deg_z)))  # the last degree with a possible generator
    # h_I and the nef part's degree in each degree, 0 and -1 where there are
    # no sections (L is base point free, so none below such a degree either)
    h = [0] * r + [math.comb(t + 2, 2) - deg_z for t in range(r, end + 1)]
    nef_deg = [-1] * r + list(range(r, end + 1))
    t_min = max(m)
    # D goes to P - (k+1)*L, then to each nef part minus L: (D - L).C = D.C - deg C
    high, _, (degs, *_) = _packing(N, W)
    D[0] -= k + 1
    p -= (k + 1) * degs
    # (nef part, packed pairings, lanes its peel selected) of each degree
    # peeled since the last step, and for each packed subtraction a peel made,
    # the latest index there of a degree whose peel made it
    run: list[tuple[tuple[int, ...], int, int]] = []
    seen: dict[int, int] = {}
    t = r - 1
    while t >= t_min:
        before = p
        p, sel = _peel(D, p, N, W)
        if D[0] < 0:
            break
        h[t] = _chi(D)
        nef_deg[t] = D[0]
        key = before - p
        i = seen.get(key)
        seen[key] = len(run)
        run.append((tuple(D), p, sel))
        if i is not None and (stepped := _step(run[i:], t, t_min, h, nef_deg, high, W)):
            D, p, n = stepped
            t -= n
            run.clear()
            seen.clear()
        D[0] -= 1
        p -= degs
        t -= 1
    alpha = t + 1  # the initial degree, the lowest with sections, where the scan stopped
    hf = _hilbert(P, deg_z, h)
    res = _resolution(hf, h, _generators(h, nef_deg, alpha), alpha) if betti else None
    return SchemeAnalysis(m, hf, res)


def _step(
    run: list[tuple[tuple[int, ...], int, int]], t: int, t_min: int, h: list[int],
    nef_deg: list[int], high: int, W: int,
) -> tuple[list[int], int, int] | None:
    """Step the scan over every repeat of its last q degrees, from the nef
    part run[0] of degree t + q to run[-1] of degree t (see ``analyze``):
    fill h_I and the nef degrees of the n*q degrees below t and return the
    nef part of degree t - n*q, its packed pairings and n*q; None if it
    cannot step (a selected lane changed, or n is 0).

    With Delta = P_t - P_{t+q}, the nef part of degree t - o - (j - 1)*q is
    B + j*Delta, B = P_{t+q-o}, for o = 1..q and j = 1..n, whose chi is
    quadratic in j: chi(B) + j*(B.Delta + chi(Delta) - 1) + binom(j, 2)*Delta^2."""
    (Q, pq, _), (P, p, _) = run[0], run[-1]
    q = len(run) - 1
    sel = 0
    for _, _, s in run[1:]:
        sel |= s
    dp = p - pq  # Delta's packed pairings
    dh = dp + high  # each lane holds 2^(W-1) + Delta.C
    if (dh ^ high) & (sel << 1) - (sel >> W - 1):
        return None  # a lane the run selected changed
    # Delta has degree P[0] - Q[0] <= -q, as L and each curve has degree >= 0
    n = min((t - t_min) // q, P[0] // (Q[0] - P[0]))
    down = ~dh & high  # the top bits of the lanes with Delta.C < 0
    if n and down:
        # each such lane of P_t + n*Delta must stay >= 0.  Keep only those
        # lanes: x + m*d then holds 2^(W-1) + x_j + m*delta_j in each, exactly
        # while -2^(W-1) < x_j + m*delta_j, which holds at m = 1 and at m <= 2n
        # for a valid n (x_j + 2n*delta_j >= -x_j); so the valid m (top bits
        # set) are found by doubling, then by bisection
        lanes = (down << 1) - (down >> W - 1)
        x, d = p & lanes, (dh & lanes) - (high & lanes)
        lo, hi = 0, 1
        while hi <= n and (x + hi * d) & down == down:
            lo, hi = hi, 2 * hi
        hi = min(hi, n + 1)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if (x + mid * d) & down == down:
                lo = mid
            else:
                hi = mid
        n = lo
    if not n:
        return None
    step = list(map(operator.sub, P, Q))
    sq = _intersect(step, step)
    c = _chi(step) - 1
    for o, (B, _, _) in enumerate(run[1:], 1):
        # chi(B + j*Delta), j = 0..n: differences B.Delta + c, then Delta^2 more each
        values = list(accumulate(accumulate(repeat(sq, n - 1), initial=_intersect(B, step) + c),
                                 initial=h[t + q - o]))
        start = t - o - (n - 1) * q
        h[start:t - o + 1:q] = values[:0:-1]
        nef_deg[start:t - o + 1:q] = range(B[0] + n * step[0], B[0], -step[0])
    return [a + n * b for a, b in zip(P, step)], p + n * dp, n * q


def hilbert_function(classes: Iterable[DivisorClass], mults: Sequence[int]) -> HilbertFunction:
    """Hilbert data for the scheme with the given negative classes and
    multiplicities (multiplicities may be unnormalized)."""
    return analyze(classes, mults, betti=False).hilbert


def _hilbert(P: DivisorClass, deg_z: int, h: Sequence[int]) -> HilbertFunction:
    for part in (P - L, P):  # the nef parts of the two top degrees
        t = part[0]
        if _chi(part) != math.comb(t + 2, 2) - deg_z:
            raise ConsistencyError(f"ideal Hilbert function failed to stabilize by degree {P[0]}")
    # h_Z = binom(t+2, 2) - h_I; below the first degree with h_I != 0 it is the
    # binomial itself, increasing, so only the degrees from there on are compared
    binom = accumulate(range(1, len(h) + 1))
    first = next(compress(range(len(h)), h), len(h))
    hz = (*islice(binom, first), *map(operator.sub, binom, h[first:]))
    rest = hz[max(first - 1, 0):]
    if not all(map(operator.le, rest, rest[1:])) or hz[-1] != deg_z:
        raise ConsistencyError("quotient Hilbert function is not monotone to the degree")
    tail_from = hz.index(deg_z)
    return HilbertFunction(tuple(h[: tail_from + 1]), deg_z, tail_from, hz[: tail_from + 1])


def _generators(
    h: Sequence[int], nef_deg: Sequence[int], alpha: int
) -> tuple[tuple[int, int], ...]:
    """(degree, count) of the minimal generators, from h_I and the nef
    parts' degrees; no degree below alpha, where h_I is 0, has any."""
    gens = []
    h_cur = 0  # h_I in degree alpha - 1
    for t, h_next in enumerate(h[alpha:], alpha):
        if h_cur == 0:
            g = h_next
        else:
            # the nef part d of degree t - 1 and d + L are counted by Riemann-Roch:
            # h_cur = chi(d) and chi(d + L) - chi(d) = d.L + (L^2 - K.L)/2 = deg d + 2
            h_dl = h_cur + nef_deg[t - 1] + 2
            g = (h_next - h_dl) + max(0, h_dl - 3 * h_cur)
        if g < 0:
            raise ConsistencyError(f"negative generator count {g} in degree {t}")
        if g:
            gens.append((t, g))
        h_cur = h_next
    return tuple(gens)


def minimal_resolution(classes: Iterable[DivisorClass], mults: Sequence[int]) -> GradedResolution:
    """Graded Betti data of the minimal free resolution of the ideal."""
    return analyze(classes, mults, betti=True).resolution


def _resolution(
    hf: HilbertFunction, h: Sequence[int], f0: tuple[tuple[int, int], ...], alpha: int
) -> GradedResolution:
    # R[-j] contributes binom(t - j + 2, 2) in degree t, whose third difference
    # in t is 1 at t = j and 0 elsewhere; so h_I = dim F0 - dim F1 gives
    # syzygies s_t = g_t - (third difference of h_I at t), 0 past the last
    # generator and tail_from + 3, and below alpha, where h_I and g_t are 0.
    # For any g, rank 1 and s_t = 0 for t <= min(gens).
    if not f0:
        raise ConsistencyError("ideal has no generators")
    top = max(f0[-1][0], hf.tail_from + 3)
    # h_I in degrees alpha - 3..top (0 below alpha, the h listed from alpha - 3
    # on, and binom(t+2, 2) - deg_z past h); three differences leave its third
    # difference in degrees alpha..top, and subtracting g_t leaves -s_t
    d = h[alpha - 3:top + 1] if alpha >= 3 else [0] * (3 - alpha) + h[:top + 1]
    if len(h) <= top:
        d += [math.comb(t + 2, 2) - hf.deg_z for t in range(len(h), top + 1)]
    for _ in range(3):
        d = list(map(operator.sub, d[1:], d))
    for t, g in f0:
        d[t - alpha] -= g
    if max(d) > 0:
        t, v = next((t, v) for t, v in enumerate(d, alpha) if v > 0)
        raise ConsistencyError(f"free module dimensions disagree in degree {t} (defect {-v})")
    f1 = zip(compress(range(alpha, top + 1), d), map(operator.neg, filter(None, d)))
    return GradedResolution(f0=f0, f1=tuple(f1))


# ---------------------------------------------------------------------------
# the uniform multiplicity report (our table 2)


class UniformData(NamedTuple):
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


class Table2Report(NamedTuple):
    """Every type's outcome for uniform multiplicities 1 and 2, bucketed by
    (Hilbert function, resolution) pattern."""

    outcomes: dict[int, tuple[UniformData, UniformData]]
    cases: dict[str, tuple[int, ...]]


def _uniform_data(t: ConfigurationType, mult: int) -> UniformData:
    _, hf, res = analyze(t.classes, (mult,) * N_POINTS, betti=True)
    return UniformData(hz=hf.quotient_values, f0=res.f0, f1=res.f1)


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
