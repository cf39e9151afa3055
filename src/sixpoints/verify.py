"""Consistency checks for the multiplication-map rank assumption, plus the
global invariant suite.

For a nef class F, multiplication by the three linear forms maps sections of
F to sections of F + L.  The Betti formulas assume this map has maximal rank.
That assumption cannot be proved from lattice data alone, but it is squeezed
between computable bounds: the kernel dimension lies between l(F) and
q(F) + l(F), the cokernel is at most q*(F) + l*(F), and an exact identity
ties the four quantities to h^0(F + L) - 3 h^0(F).  These checks run here on
seeded samples of nef classes for every configuration type, with every usable
base point index, alongside the structural invariants of the other modules.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .curves import (
    AMPLE_CLASS,
    NegCurveSet,
    candidate_families,
    full_neg,
    h0,
    h1,
    is_nef,
)
from .errors import ValidationError
from .fatpoints import analyze, hilbert_function
from .lattice import DivisorClass, E, K, L, N_POINTS, ZERO, e, intersect, selfint
from .typeenum import (
    candidate_pool,
    enumerate_types,
    integer_rank,
    kperp_coordinates,
)

FIVE_L_MINUS_2 = DivisorClass(5, (-2, -2, -2, -2, -2, -2))

KNOWN_GRAPHS = frozenset({
    "A_1", "2A_1", "A_2", "3A_1", "A_1A_2", "A_3", "4A_1", "2A_1A_2",
    "A_1A_3", "2A_2", "A_4", "D_4", "A_12A_2", "2A_1A_3", "A_1A_4",
    "A_5", "D_5", "3A_2", "A_1A_5", "E_6",
})


@dataclass(frozen=True)
class MuStats:
    """Section counts controlling the rank of multiplication by linear forms,
    computed at base point index j: q = h^0(F - E_j), l = h^0(F - (L - E_j)),
    starred variants are the corresponding h^1, and ker/cok are the maximal
    rank predictions."""

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


def mu_stats(F: DivisorClass, N: NegCurveSet, index: int = 1) -> MuStats:
    if not is_nef(F, N):
        raise ValidationError(f"{F} is not nef for this configuration")
    ej = e(index)
    h0F = h0(F, N)
    h0FL = h0(F + L, N)
    return MuStats(
        F=F,
        index=index,
        q=h0(F - ej, N),
        l=h0(F - (L - ej), N),
        qstar=h1(F - ej, N),
        lstar=h1(F - (L - ej), N),
        h0F=h0F,
        h0FL=h0FL,
        ker_pred=max(0, 3 * h0F - h0FL),
        cok_pred=max(0, h0FL - 3 * h0F),
    )


def usable_point_indices(N: NegCurveSet) -> tuple[int, ...]:
    """Indices j such that p_j is an honest plane point (not infinitely near),
    i.e. j is never the subtracted index of a difference class in neg."""
    near = set()
    for c in N.neg:
        if c.d == 0:
            near.add(next(k for k in range(1, 7) if c[k] == -1))
    return tuple(j for j in range(1, N_POINTS + 1) if j not in near)


@dataclass(frozen=True)
class MuBoundsReport:
    """Bound checks for one nef class, over every usable base point index."""

    F: DivisorClass
    stats: tuple[MuStats, ...]
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def check_mu_bounds(F: DivisorClass, N: NegCurveSet) -> MuBoundsReport:
    stats = []
    bad = []
    for j in usable_point_indices(N):
        s = mu_stats(F, N, j)
        stats.append(s)
        if not (s.l <= s.ker_pred <= s.q + s.l):
            bad.append(f"j={j}: kernel bound fails for {F}: l={s.l}, pred={s.ker_pred}, q+l={s.q + s.l}")
        if not (s.cok_pred <= s.qstar + s.lstar):
            bad.append(f"j={j}: cokernel bound fails for {F}: pred={s.cok_pred}, q*+l*={s.qstar + s.lstar}")
        if (s.lstar - s.l) + (s.qstar - s.q) != s.h0FL - 3 * s.h0F:
            bad.append(f"j={j}: difference identity fails for {F}")
        if s.ker_pred and s.cok_pred:
            bad.append(f"j={j}: kernel and cokernel predictions both positive for {F}")
    return MuBoundsReport(F=F, stats=tuple(stats), violations=tuple(bad))


def _stream_seed(seed: int, N: NegCurveSet) -> int:
    digest = hashlib.blake2b(
        repr(tuple(tuple(c) for c in N.neg)).encode(), digest_size=8
    ).digest()
    return (seed << 64) ^ int.from_bytes(digest, "big")


def sample_nef(N: NegCurveSet, count: int = 200, seed: int = 0) -> tuple[DivisorClass, ...]:
    """Up to ``count`` (at least 1) distinct nef classes t*L - sum a_i E_i with
    0 <= a_i <= t <= 12, drawn from a seeded stream and filtered by is_nef.

    The zero class, L, the anticanonical class, and 5L - 2(E1 + ... + E6)
    are always included when nef.  Each random draw is also retried with its
    coefficients sorted decreasingly, which lands inside the chains of
    inequalities that difference classes impose; without that, configurations
    with long chains would almost never pass the filter.
    """
    if count < 1:
        raise ValidationError(f"sample count must be at least 1, got {count}")
    rng = random.Random(_stream_seed(seed, N))
    out: list[DivisorClass] = []
    seen: set[DivisorClass] = set()

    def offer(c: DivisorClass) -> None:
        if c not in seen and is_nef(c, N):
            seen.add(c)
            out.append(c)

    for c in (ZERO, L, -K, FIVE_L_MINUS_2):
        offer(c)
    attempts = 0
    cap = count * 400
    while len(out) < count and attempts < cap:
        attempts += 1
        t = rng.randint(0, 12)
        a = [rng.randint(0, t) for _ in range(N_POINTS)]
        before = len(out)
        offer(DivisorClass(t, tuple(-v for v in a)))
        if len(out) == before:
            a.sort(reverse=True)
            offer(DivisorClass(t, tuple(-v for v in a)))
    return tuple(out[:count])


# ---------------------------------------------------------------------------
# the invariant suite


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class InvariantReport:
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(name, fn) -> CheckResult:
    try:
        detail = fn()
        return CheckResult(name, True, detail or "ok")
    except AssertionError as exc:
        return CheckResult(name, False, str(exc) or "assertion failed")


def _lattice_signature() -> str:
    basis = (L,) + E
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            want = 0 if i != j else (1 if i == 0 else -1)
            assert intersect(a, b) == want, f"pairing of basis {i},{j} is {intersect(a, b)}"
    return "pairing of (L, E1..E6) is diag(1, -1, ..., -1)"


def _pool_shape() -> str:
    pool = candidate_pool()
    assert len(pool) == 36, f"pool has {len(pool)} classes"
    for c in pool:
        assert selfint(c) == -2, f"{c} has square {selfint(c)}"
        assert intersect(c, K) == 0, f"{c} not orthogonal to K"
    return "36 candidate classes, all square -2 and orthogonal to K"


def _general_position_lines() -> str:
    n = len(full_neg(()).NEG)
    assert n == 27, f"general configuration has {n} negative curves"
    return "27 negative curves on the general blow-up"


def _type_count() -> str:
    types = enumerate_types()
    assert len(types) == 90, f"enumerated {len(types)} types"
    return "enumeration matches the 90-row catalog"


def _graph_census() -> str:
    names = {t.graph.name for t in enumerate_types() if t.graph.name}
    assert names == KNOWN_GRAPHS, (
        f"unexpected graphs {sorted(names - KNOWN_GRAPHS)}, "
        f"missing {sorted(KNOWN_GRAPHS - names)}"
    )
    return "exactly the 20 expected intersection graphs occur"


def _graph_determines_torsion() -> str:
    by_graph: dict[str, set[str]] = {}
    for t in enumerate_types():
        by_graph.setdefault(t.graph.name, set()).add(t.torsion.text())
    bad = {g: sorted(v) for g, v in by_graph.items() if len(v) > 1}
    assert not bad, f"graphs with mixed torsion: {bad}"
    return "types with equal graphs have equal torsion"


def _ample_positivity() -> str:
    fam = candidate_families()
    for c in set(fam.Bp + fam.Vp + fam.Lp + fam.Qp):
        assert intersect(AMPLE_CLASS, c) > 0, f"{AMPLE_CLASS} meets {c} nonpositively"
    return "reduction potential is positive on every nef-side candidate"


def _independence() -> str:
    for t in enumerate_types():
        rows = [kperp_coordinates(c) for c in t.classes]
        assert integer_rank(rows) == len(t.classes), f"type {t.id} dependent"
    return "classes of every type are linearly independent"


def _hilbert_duality(rng: random.Random) -> str:
    import math
    for _ in range(15):
        t = rng.choice(enumerate_types())
        m = tuple(rng.randint(0, 3) for _ in range(N_POINTS))
        hf = hilbert_function(t.classes, m)
        for deg in range(hf.tail_from + 4):
            assert hf.h_ideal(deg) + hf.h_quotient(deg) == math.comb(deg + 2, 2), (
                f"duality fails for type {t.id}, m={m}, t={deg}"
            )
        vals = [hf.h_quotient(d) for d in range(hf.tail_from + 1)]
        assert all(a <= b for a, b in zip(vals, vals[1:])), "quotient values not monotone"
        assert vals[-1] == hf.deg_z
    return "ideal and quotient Hilbert functions are complementary on samples"


def _resolution_identities(rng: random.Random) -> str:
    for _ in range(12):
        t = rng.choice(enumerate_types())
        m = tuple(rng.randint(0, 3) for _ in range(N_POINTS))
        _, hf, res = analyze(t.classes, m, betti=True)
        top = max([j for j, _ in res.f0] + [j for j, _ in res.f1])
        for deg in range(top + 6):
            assert res.dim_f0(deg) - res.dim_f1(deg) == hf.h_ideal(deg), (
                f"dimension identity fails for type {t.id}, m={m}, degree {deg}"
            )
        assert sum(g for _, g in res.f0) - sum(s for _, s in res.f1) == 1
    return "resolution dimensions and rank agree with Hilbert data on samples"


def _mu_consistency(seed: int, samples_per_type: int) -> str:
    checked = 0
    for t in enumerate_types():
        N = t.neg_set()
        for F in sample_nef(N, count=samples_per_type, seed=seed):
            report = check_mu_bounds(F, N)
            assert report.passed, "; ".join(report.violations[:3]) + f" (type {t.id})"
            checked += 1
    return f"rank bounds hold for {checked} sampled nef classes"


def _special_class_checks() -> str:
    types = enumerate_types()
    N = types[1].neg_set()  # the single infinitely near point configuration
    F = FIVE_L_MINUS_2
    assert is_nef(F, N), "5L - 2(E1+...+E6) should be nef here"
    for i in (3, 4):
        s = mu_stats(i * F, N)
        assert s.l > 0, f"l({i}F) should be positive"
    for i in (1, 2, 3, 4):
        s = mu_stats(i * F, N)
        assert s.lstar > 0, f"l*({i}F) should be positive"
    # Witness for surjectivity at twice the borderline class: subtracting the
    # conic class that omits the point carrying the infinitely near one makes
    # both obstruction terms vanish.  (Omitting the last point instead leaves
    # an obstruction, so the choice of conic matters.)
    H = 2 * F
    C = DivisorClass(2, (0, -1, -1, -1, -1, -1))
    s = mu_stats(H - C, N)
    assert s.qstar + s.lstar == 0, "q* + l* should vanish for the surjectivity witness"
    return "known borderline classes behave as expected"


def run_invariant_suite(seed: int = 0, samples_per_type: int = 200) -> InvariantReport:
    """Run every cross-module invariant; returns per-check pass/fail results
    with a counterexample in the detail on failure."""
    if samples_per_type < 1:
        raise ValidationError(f"sample count must be at least 1, got {samples_per_type}")
    rng = random.Random(seed)
    checks = (
        _check("lattice signature", _lattice_signature),
        _check("candidate pool", _pool_shape),
        _check("27 lines", _general_position_lines),
        _check("type count", _type_count),
        _check("graph census", _graph_census),
        _check("graph determines torsion", _graph_determines_torsion),
        _check("reduction potential positivity", _ample_positivity),
        _check("linear independence", _independence),
        _check("hilbert duality", lambda: _hilbert_duality(rng)),
        _check("resolution identities", lambda: _resolution_identities(rng)),
        _check("multiplication rank bounds", lambda: _mu_consistency(seed, samples_per_type)),
        _check("special classes", _special_class_checks),
    )
    return InvariantReport(seed=seed, checks=checks)
