"""The seeded nef sampler and the global invariant suite.

The Betti formulas assume that multiplication by linear forms has maximal
rank on every nef class, which lattice data alone cannot prove;
``curves.check_mu_bounds`` squeezes that rank between computable bounds.
The suite checks them on seeded samples of nef classes of every type,
alongside invariants of the other modules, each of which some defect of
the library fails and no other check does (``tests/test_check_census.py``):
the enumeration that shows the catalog names every type, the lines on each
type's cubic surface, and the paper's five patterns of Hilbert function and
Betti numbers at uniform multiplicity 1 and 2, one of which every type must
match.  The sampler keeps the nef draws from a fixed box up to the count: a
draw nef on six general points, whose nef cone holds every type's, and not
kept yet is tested on 8-bit lanes of its pairings with the negative curves.
"""

from __future__ import annotations

from typing import NamedTuple

from . import curves
from .curves import (
    AMPLE_CLASS,
    NegCurveSet,
    _check_curves,
    _packing,
    candidate_pool,
    is_nef,
    minus_one_candidates,
)
from .errors import ConsistencyError, ValidationError
from .fatpoints import analyze, table2
from .lattice import DivisorClass, E, K, L, N_POINTS, ZERO, intersect, selfint
from .notation import format_negset
from .typeenum import enumerate_types, orbit_gaps

# sample_nef's box bound, default count and draw budget per requested class
SAMPLE_BOX = 12
DEFAULT_SAMPLES = 200
DRAWS_PER_SAMPLE = 400

FIVE_L_MINUS_2 = DivisorClass(5, (-2, -2, -2, -2, -2, -2))
SEEDED_SCHEMES = 27  # fat point schemes, multiplicities in 0..3, analyzed before table 2

# lines on the cubic surface of each intersection graph ("" for none): J. W. Bruce and
# C. T. C. Wall, "On the classification of cubic surfaces", J. London Math. Soc. (2) 19 (1979)
LINES_PER_GRAPH = {
    "": 27, "A_1": 21, "2A_1": 16, "A_2": 15, "3A_1": 12, "A_1A_2": 11, "A_3": 10,
    "4A_1": 9, "2A_1A_2": 8, "A_1A_3": 7, "2A_2": 7, "A_4": 6, "D_4": 6, "A_12A_2": 5,
    "2A_1A_3": 5, "A_1A_4": 4, "A_5": 3, "D_5": 3, "3A_2": 3, "A_1A_5": 2, "E_6": 1,
}


def _stream_seed(seed: int, N: NegCurveSet) -> int:
    import hashlib

    digest = hashlib.blake2b(
        repr(tuple(tuple(c) for c in N.neg)).encode(), digest_size=8
    ).digest()
    return (seed << 64) ^ int.from_bytes(digest, "big")


def _check_count(count: int) -> None:
    if type(count) is not int or count < 1:
        raise ValidationError(f"sample count must be an integer of at least 1, got {count!r}")


def _check_seed(seed: int) -> None:
    if type(seed) is not int:
        raise ValidationError(f"seed must be an integer, got {seed!r}")


# _BITS[t] = (t + 1).bit_length(): the width of one draw of a coefficient in 0..t
_BITS = tuple((t + 1).bit_length() for t in range(SAMPLE_BOX + 1))


def _lanes(N: NegCurveSet) -> tuple[int, list[list[int]]]:
    """high and rows [v * C_i for v in 0..SAMPLE_BOX], i = 0..6, from the 8-bit
    packing of N.NEG (``curves._packing``) and its packed columns C_i.  If all
    |D.C_k| <= 127, high + t*C_0 + a_1*C_1 + ... + a_6*C_6 has the digits
    128 + D.C_k in base 256 for D = t*L - sum a_i E_i, so D is nef iff bit 7
    of each is set."""
    high, _, columns = _packing(N, 8)
    return high, [[v * w for v in range(SAMPLE_BOX + 1)] for w in columns]


def sample_nef(
    N: NegCurveSet, count: int = DEFAULT_SAMPLES, seed: int = 0
) -> tuple[DivisorClass, ...]:
    """Up to ``count`` (at least 1) distinct nef classes t*L - sum a_i E_i with
    0 <= a_i <= t <= SAMPLE_BOX, drawn from a seeded stream (at most
    DRAWS_PER_SAMPLE draws per requested class) and filtered by is_nef.

    The zero class, L, the anticanonical class, and 5L - 2(E1 + ... + E6)
    are always included when nef.  Each random draw is also retried with its
    coefficients sorted decreasingly, which lands inside the chains of
    inequalities that difference classes impose; without that, configurations
    with long chains would almost never pass the filter.  The filter is the
    lane test of ``_lanes``, by table lookup on 8-bit lanes from the packing
    helper the peel uses: a curve of N.NEG has degree 0..2 and E_i
    coefficients in -1..1, so each drawn class meets it in -96..96
    (8 * SAMPLE_BOX), inside an 8-bit lane.

    A draw reaches the lane test only if it is nef on six general points:
    b_1 + b_2 <= t (lines through two) and b_1 + ... + b_5 <= 2t (conics
    through five) for b_1 >= ... >= b_6, the a_i sorted as the retry takes
    them; a sum above 5t/2 fails unsorted (b_6 <= b_2 <= t/2).  The skip is
    exact, as each -1 class peels to ZERO on every type (it is a sum of curves
    of N.NEG), and the inequalities are symmetric, so one failure rules out
    the draw and its retry.  A skipped draw still counts towards the cap.  A
    class already kept skips the lane test, and the draws stop at the count.

    Sampling contract: a (type, seed, count) triple gives the same classes in
    the same order from release to release.  The benchmark's output digests
    (``perfbench/digests.json``) and the frozen ``verify`` outputs of the test
    suite depend on it, so the draws, their order, the sorted retry and the
    draw cap change only together with those.  The draws are those of
    ``rng.randrange(SAMPLE_BOX + 1)`` for t and ``rng.randrange(t + 1)`` for
    each a_i, made inline the way CPython 3.10 to 3.13 make ``randrange(n)``:
    ``rng.getrandbits(n.bit_length())``, redrawn while at least n.
    """
    import random

    _check_curves(N)
    _check_count(count)
    _check_seed(seed)
    high, (w0, w1, w2, w3, w4, w5, w6) = _lanes(N)
    w0 = [high + v for v in w0]  # each lane's offset folded into t's row
    cap = [5 * t // 2 for t in range(SAMPLE_BOX + 1)]
    out = [c for c in (ZERO, L, -K, FIVE_L_MINUS_2) if is_nef(c, N)]
    seen = set(out)
    getrandbits = random.Random(_stream_seed(seed, N)).getrandbits
    if len(out) >= count:
        return tuple(out[:count])
    t_bits = _BITS[SAMPLE_BOX]
    for _ in range(count * DRAWS_PER_SAMPLE):
        while (t := getrandbits(t_bits)) > SAMPLE_BOX:
            pass
        k = _BITS[t]  # each a_i is redrawn while above t
        while (a1 := getrandbits(k)) > t:
            pass
        while (a2 := getrandbits(k)) > t:
            pass
        while (a3 := getrandbits(k)) > t:
            pass
        while (a4 := getrandbits(k)) > t:
            pass
        while (a5 := getrandbits(k)) > t:
            pass
        while (a6 := getrandbits(k)) > t:
            pass
        if (s := a1 + a2 + a3 + a4 + a5 + a6) > cap[t]:
            continue  # not nef on six general points, in any order
        b6, b5, b4, b3, b2, b1 = sorted((a1, a2, a3, a4, a5, a6))
        if b1 + b2 > t or s - b6 > 2 * t:
            continue
        # the draw, then its a_i in decreasing order; both tests are pure, repeats go first
        if ((vec := (t, -a1, -a2, -a3, -a4, -a5, -a6)) not in seen
                and (w0[t] + w1[a1] + w2[a2] + w3[a3] + w4[a4] + w5[a5] + w6[a6]) & high == high
                or (vec := (t, -b1, -b2, -b3, -b4, -b5, -b6)) not in seen
                and (w0[t] + w1[b1] + w2[b2] + w3[b3] + w4[b4] + w5[b5] + w6[b6]) & high == high):
            seen.add(vec)
            out.append(DivisorClass._from_vec(vec))  # ints by construction
            if len(out) == count:
                return tuple(out)
    return tuple(out)


# ---------------------------------------------------------------------------
# the invariant suite


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class InvariantReport(NamedTuple):
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(name, fn) -> CheckResult:
    try:
        return CheckResult(name, True, fn())
    except (ConsistencyError, ValidationError) as exc:
        return CheckResult(name, False, str(exc))


def _lattice_signature() -> str:
    basis = (L,) + E
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            want = 0 if i != j else (1 if i == 0 else -1)
            if intersect(a, b) != want:
                raise ConsistencyError(f"pairing of basis {i},{j} is {intersect(a, b)}")
    return "pairing of (L, E1..E6) is diag(1, -1, ..., -1)"


def _pool_shape() -> str:
    pool = candidate_pool()
    if len(pool) != 36:
        raise ConsistencyError(f"pool has {len(pool)} classes")
    for c in pool:
        if selfint(c) != -2:
            raise ConsistencyError(f"{c} has square {selfint(c)}")
        if intersect(c, K) != 0:
            raise ConsistencyError(f"{c} not orthogonal to K")
    return "36 candidate classes, all square -2 and orthogonal to K"


def _types():
    """The catalog, failing the check that reads it if it is empty."""
    types = enumerate_types()
    if not types:
        raise ConsistencyError("the catalog has no types, so there is nothing to check")
    return types


def _lines_per_graph() -> str:
    types = _types()
    for t in types:
        N = t.neg_set()
        lines, want = len(N.NEG) - len(N.neg), LINES_PER_GRAPH.get(t.graph.name)
        if lines != want:
            raise ConsistencyError(
                f"type {t.id} ({t.graph.name!r}) has {lines} -1 curves, not {want}")
    return f"-1 curve count equals its graph's line count on all {len(types)} types"


def _type_count() -> str:
    missing, stray = orbit_gaps(_types())
    if missing:
        raise ConsistencyError(
            f"enumeration found {len(missing)} orbit(s) missing from the catalog, "
            f"e.g. {format_negset(missing[0])!r}"
        )
    if stray:
        raise ConsistencyError(f"catalog rows {list(stray)} match no enumerated orbit")
    return "enumeration matches the 90-row catalog"


def _graph_census() -> str:
    names = {t.graph.name for t in _types() if t.graph.name}
    known = LINES_PER_GRAPH.keys() - {""}
    if names != known:
        raise ConsistencyError(
            f"unexpected graphs {sorted(names - known)}, missing {sorted(known - names)}")
    return f"exactly the {len(known)} expected intersection graphs occur"


def _ample_positivity() -> str:
    for c in candidate_pool() + minus_one_candidates():
        if intersect(AMPLE_CLASS, c) <= 0:
            raise ConsistencyError(f"{AMPLE_CLASS} meets {c} nonpositively")
    return "reduction potential is positive on every nef-side candidate"


def _fat_point_schemes(seed: int) -> str:
    import random

    rng, types = random.Random(seed), _types()
    for _ in range(SEEDED_SCHEMES):
        t = rng.choice(types)
        analyze(t.classes, tuple(rng.randint(0, 3) for _ in range(N_POINTS)), betti=True)
    report = table2()  # raises if a type matches none of the patterns
    return (
        f"{SEEDED_SCHEMES} seeded schemes analyzed; all {len(report.outcomes)} types match "
        f"one of the {len(report.cases)} patterns at uniform multiplicity 1 and 2"
    )


def _mu_consistency(seed: int, samples_per_type: int) -> str:
    checked = 0
    for t in _types():
        N = t.neg_set()
        for F in sample_nef(N, count=samples_per_type, seed=seed):
            report = curves.check_mu_bounds(F, N)
            if not report.passed:
                raise ConsistencyError("; ".join(report.violations[:3]) + f" (type {t.id})")
            checked += 1
    if not checked:
        raise ConsistencyError("no nef class was sampled, so no rank bound was checked")
    return f"rank bounds hold for {checked} sampled nef classes"


def _special_class_checks() -> str:
    types = _types()
    N = types[1].neg_set()  # the single infinitely near point configuration
    F = FIVE_L_MINUS_2
    if not is_nef(F, N):
        raise ConsistencyError("5L - 2(E1+...+E6) should be nef here")
    for i in (3, 4):
        s = curves.mu_stats(i * F, N)
        if s.l <= 0:
            raise ConsistencyError(f"l({i}F) should be positive")
    for i in (1, 2, 3, 4):
        s = curves.mu_stats(i * F, N)
        if s.lstar <= 0:
            raise ConsistencyError(f"l*({i}F) should be positive")
    # Witness for surjectivity at twice the borderline class: subtracting the
    # conic class that omits the point carrying the infinitely near one makes
    # both obstruction terms vanish.  (Omitting the last point instead leaves
    # an obstruction, so the choice of conic matters.)
    H = 2 * F
    C = DivisorClass(2, (0, -1, -1, -1, -1, -1))
    s = curves.mu_stats(H - C, N)
    if s.qstar + s.lstar != 0:
        raise ConsistencyError("q* + l* should vanish for the surjectivity witness")
    return "known borderline classes behave as expected"


def run_invariant_suite(seed: int = 0, samples_per_type: int = DEFAULT_SAMPLES) -> InvariantReport:
    """Run every cross-module invariant; returns per-check pass/fail results
    with a counterexample in the detail on failure."""
    _check_count(samples_per_type)
    _check_seed(seed)
    checks = (
        _check("lattice signature", _lattice_signature),
        _check("candidate pool", _pool_shape),
        _check("lines per graph", _lines_per_graph),
        _check("type count", _type_count),
        _check("graph census", _graph_census),
        _check("reduction potential positivity", _ample_positivity),
        _check("fat point schemes", lambda: _fat_point_schemes(seed)),
        _check("multiplication rank bounds", lambda: _mu_consistency(seed, samples_per_type)),
        _check("special classes", _special_class_checks),
    )
    return InvariantReport(seed=seed, checks=checks)
