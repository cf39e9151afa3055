import ast
import hashlib
import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import sixpoints
from sixpoints import (
    ConsistencyError,
    DivisorClass,
    K,
    L,
    MuStats,
    NegCurveSet,
    ValidationError,
    ZERO,
    check_mu_bounds,
    curves,
    e,
    enumerate_types,
    euler_characteristic,
    h0,
    h2,
    intersect,
    is_nef,
    mu_stats,
    reduce_to_nef,
    run_invariant_suite,
    sample_nef,
    type_by_id,
)
from sixpoints import verify
from sixpoints.verify import FIVE_L_MINUS_2, _lanes, _stream_seed

# SHA-256 digests of the sampled classes and of every MuStats field of their
# check_mu_bounds reports, frozen from the release before the verify path was
# made faster.  A change to the sampler or to any bound changes them.
FROZEN_SWEEP_SHA256 = "50a782c166b896017d9c16564e58ad5f953c668ef0eea85fe2cb04b6c388711d"
FROZEN_TYPE_2_SHA256 = "9f1aee8ef56b8bdd6e46b86a6f343c974b23f70af6dfc9ed917df5fa49ca17fd"
# SHA-256 of repr([tuple(F) for F in sample_nef(type 90, 1000, seed=0)]), frozen
# from the release before draws outside the general-position nef cone skipped
# the lane test; type 90 is the only type whose draw budget binds at 1000
FROZEN_TYPE_90_CAP_SHA256 = "68eb19a46f5880e90b81f1598de04a35dcc8047da0a89d5185a9e62152166d00"
# The same digest, with each report's violations after its MuStats, over the
# default verify sweep (200 samples at seed 0 on all 90 types), frozen from
# the release before check_mu_bounds counted nef base-point classes by
# Riemann-Roch without a peel
FROZEN_DEFAULT_SWEEP_SHA256 = "611f2801f8b04c64d2fb1f2505394fe2bc577ffee8d2aba90caa7e50057886ea"


def _samples_and_stats_digest(pairs, violations=False) -> str:
    """Digest of [(N, samples)]: each class, then each MuStats as a tuple of
    its fields in declaration order (classes as plain tuples), then, if
    ``violations``, the report's violation strings."""
    h = hashlib.sha256()
    for N, samples in pairs:
        for F in samples:
            h.update(repr(tuple(F)).encode())
            report = check_mu_bounds(F, N)
            for s in report.stats:
                row = tuple(s)
                h.update(repr(tuple(tuple(v) if isinstance(v, tuple) else v for v in row)).encode())
            if violations:
                h.update(repr(report.violations).encode())
        h.update(b";")
    return h.hexdigest()


def test_samples_and_stats_match_frozen_digests():
    sweep = []
    for t in enumerate_types():
        N = t.neg_set()
        sweep.append((N, sample_nef(N, 20, seed=0)))
    assert _samples_and_stats_digest(sweep) == FROZEN_SWEEP_SHA256
    N = type_by_id(2).neg_set()
    assert _samples_and_stats_digest([(N, sample_nef(N, 200, seed=11))]) == FROZEN_TYPE_2_SHA256


def test_the_default_verify_sweep_matches_its_frozen_digest():
    sweep = [(N, sample_nef(N, 200, seed=0)) for N in (t.neg_set() for t in enumerate_types())]
    assert _samples_and_stats_digest(sweep, violations=True) == FROZEN_DEFAULT_SWEEP_SHA256


def test_skipped_draws_count_towards_the_draw_budget():
    samples = sample_nef(type_by_id(90).neg_set(), 1000, seed=0)
    assert len(samples) == 863
    digest = hashlib.sha256(repr([tuple(F) for F in samples]).encode()).hexdigest()
    assert digest == FROZEN_TYPE_90_CAP_SHA256


def test_every_minus_one_class_is_effective_on_every_type():
    # what lets sample_nef skip draws outside the general-position nef cone
    for t in enumerate_types():
        N = t.neg_set()
        for c in curves.minus_one_candidates():
            r = reduce_to_nef(c, N)
            assert r.effective and r.reduced == ZERO, (t.id, c)


_box_classes = st.integers(0, 12).flatmap(
    lambda t: st.tuples(st.just(t), st.tuples(*[st.integers(0, t)] * 6))
)


@settings(max_examples=300, deadline=None)
@example(1, (12, (0,) * 6))
@example(1, (12, (12,) * 6))
@example(90, (12, (12, 0, 0, 0, 0, 0)))
@example(90, (12, (0, 0, 0, 0, 0, 12)))
@example(1, (0, (0,) * 6))
@example(1, (5, (2,) * 6))  # 5L - 2(E1 + ... + E6): on every conic inequality
@given(st.integers(1, 90), _box_classes)
def test_nef_classes_meet_the_general_position_inequalities(type_id, box_class):
    t, a = box_class
    F = DivisorClass(t, tuple(-v for v in a))
    b = sorted(a, reverse=True)
    general = b[0] + b[1] <= t and sum(b[:5]) <= 2 * t  # lines through 2, conics through 5
    if is_nef(F, type_by_id(type_id).neg_set()):
        assert general and sum(a) <= 5 * t // 2
    if type_id == 1:  # six general points: the -1 curves are all the negative curves
        assert is_nef(F, type_by_id(1).neg_set()) == general


def test_rank_bound_statistics_live_in_curves():
    # defined beside the sections count they call; verify only runs them
    for name in ("MuStats", "MuBoundsReport", "check_mu_bounds", "mu_stats"):
        assert getattr(sixpoints, name) is getattr(curves, name)
        assert not hasattr(verify, name), name


def test_mu_stats_zero_class():
    N = type_by_id(1).neg_set()
    s = mu_stats(ZERO, N)
    assert (s.h0F, s.h0FL) == (1, 3)
    assert (s.ker_pred, s.cok_pred) == (0, 0)
    assert (s.q, s.l) == (0, 0)


def test_mu_stats_line_class():
    s = mu_stats(L, type_by_id(1).neg_set())
    assert (s.h0F, s.h0FL) == (3, 6)
    assert s.ker_pred == 3 and s.cok_pred == 0
    assert s.l == 1 and s.q == 2


def test_mu_stats_requires_nef():
    with pytest.raises(ValidationError):
        mu_stats(DivisorClass(1, (-1, -1, -1, 0, 0, 0)), type_by_id(1).neg_set())


def test_mu_stats_rejects_a_non_int_index():
    with pytest.raises(ValidationError, match="must be an int"):
        mu_stats(L, type_by_id(1).neg_set(), 2.0)


def test_check_mu_bounds_requires_nef():
    N = type_by_id(1).neg_set()
    with pytest.raises(ValidationError, match="not nef"):
        check_mu_bounds(DivisorClass(1, (-1, -1, -1, 0, 0, 0)), N)
    # L + E1 meets only the first curve of N.NEG, E1, negatively
    assert N.NEG[0] == e(1)
    with pytest.raises(ValidationError, match="not nef"):
        check_mu_bounds(L + e(1), N)


def test_an_empty_curve_list_counts_by_riemann_roch():
    s = mu_stats(L, NegCurveSet(neg=(), NEG=()))
    assert (s.q, s.l, s.qstar, s.lstar, s.h0F, s.h0FL) == (2, 1, 0, 0, 3, 6)


@pytest.mark.parametrize("entry", [mu_stats, check_mu_bounds])
def test_non_classes_rejected_at_the_boundary(entry):
    with pytest.raises(ValidationError, match="expected a DivisorClass"):
        entry((1, 0, 0, 0, 0, 0, 0), type_by_id(1).neg_set())


def test_borderline_class_behaviour():
    N = type_by_id(2).neg_set()
    F = FIVE_L_MINUS_2
    assert is_nef(F, N)
    for i in (3, 4):
        assert mu_stats(i * F, N).l > 0
    for i in (1, 2, 3, 4):
        assert mu_stats(i * F, N).lstar > 0


def test_surjectivity_witness_conic_choice():
    # subtracting the conic class that omits the point below the infinitely
    # near one clears both obstruction terms; omitting the last point does not
    N = type_by_id(2).neg_set()
    H = 2 * FIVE_L_MINUS_2
    good = mu_stats(H - DivisorClass(2, (0, -1, -1, -1, -1, -1)), N)
    assert good.qstar + good.lstar == 0
    bad = mu_stats(H - DivisorClass(2, (-1, -1, -1, -1, -1, 0)), N)
    assert bad.qstar + bad.lstar == 1


def test_check_mu_bounds_simple_classes():
    N = type_by_id(1).neg_set()
    for t in range(6):
        report = check_mu_bounds(t * L, N)
        assert report.passed
        for s in report.stats:
            assert (s.lstar - s.l) + (s.qstar - s.q) == s.h0FL - 3 * s.h0F
            assert not (s.ker_pred and s.cok_pred)


def test_usable_point_indices():
    assert type_by_id(1).neg_set().usable == (1, 2, 3, 4, 5, 6)
    assert type_by_id(2).neg_set().usable == (1, 3, 4, 5, 6)
    assert type_by_id(90).neg_set().usable == (1,)


def test_sample_nef_contract():
    N = type_by_id(2).neg_set()
    first = sample_nef(N, count=80, seed=11)
    again = sample_nef(N, count=80, seed=11)
    assert first == again
    assert len(first) == 80
    assert len(set(first)) == 80
    assert all(is_nef(F, N) for F in first)
    for special in (ZERO, L, -K, FIVE_L_MINUS_2):
        assert special in first


def test_sample_nef_rejects_nonpositive_counts():
    N = type_by_id(2).neg_set()
    for count in (0, -3, 2.5, 3.0, True):
        with pytest.raises(ValidationError, match="at least 1"):
            sample_nef(N, count=count)
        with pytest.raises(ValidationError, match="at least 1"):
            run_invariant_suite(samples_per_type=count)


def test_sample_nef_fills_constrained_cones():
    N = type_by_id(90).neg_set()
    got = sample_nef(N, count=200, seed=0)
    assert len(got) == 200
    assert all(is_nef(F, N) for F in got)


def test_invariant_suite_passes():
    report = run_invariant_suite(seed=3, samples_per_type=10)
    assert len(report.checks) >= 8
    assert report.passed, [c for c in report.checks if not c.passed]


def test_lines_per_graph_fails_on_a_wrong_minus_one_list(monkeypatch):
    # the general configuration loses one of its 27 lines
    real = curves._full_neg

    def dropping_a_line(idxs):
        N = real(idxs)
        return NegCurveSet(N.neg, N.NEG[:-1]) if not idxs else N

    monkeypatch.setattr(curves, "_full_neg", dropping_a_line)
    result = verify._check("lines per graph", verify._lines_per_graph)
    assert not result.passed
    assert result.detail == "type 1 ('') has 26 -1 curves, not 27"


CATALOG_CHECKS = ("lines per graph", "type count", "graph census", "fat point schemes",
                  "multiplication rank bounds", "special classes")


def test_every_check_that_reads_the_catalog_fails_on_an_empty_one(monkeypatch):
    # a check over no types examined nothing, so it must not pass, nor raise
    monkeypatch.setattr(verify, "enumerate_types", lambda: ())
    report = run_invariant_suite(seed=0, samples_per_type=2)
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == set(CATALOG_CHECKS)
    assert {c.detail for c in report.checks if not c.passed} == {
        "the catalog has no types, so there is nothing to check"}


def test_the_empty_catalog_fails_the_same_checks_under_python_o():
    # -O strips assert statements: no check may rest on one, or it passes vacuously
    src = str(Path(sixpoints.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from sixpoints import verify; "
            "verify.enumerate_types = lambda: (); "
            "checks = verify.run_invariant_suite(seed=0, samples_per_type=2).checks; "
            "print(sys.flags.optimize, [(c.name, c.detail) for c in checks if not c.passed])")
    done = subprocess.run([sys.executable, "-B", "-O", "-c", code, src],
                          capture_output=True, text=True, check=True)
    detail = "the catalog has no types, so there is nothing to check"
    assert done.stdout == f"1 {[(name, detail) for name in CATALOG_CHECKS]}\n"


def test_no_check_in_the_package_is_an_assert_statement():
    package = Path(sixpoints.__file__).parent
    asserts = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Assert)]
    assert asserts == []


def test_rank_bounds_fail_when_nothing_is_sampled(monkeypatch):
    monkeypatch.setattr(verify, "sample_nef", lambda N, count, seed: ())
    result = verify._check("multiplication rank bounds", lambda: verify._mu_consistency(0, 5))
    assert not result.passed
    assert result.detail == "no nef class was sampled, so no rank bound was checked"


def test_invariant_suite_is_seeded():
    a = run_invariant_suite(seed=5, samples_per_type=5)
    b = run_invariant_suite(seed=5, samples_per_type=5)
    assert [c.detail for c in a.checks] == [c.detail for c in b.checks]


def test_sample_nef_rejects_non_integer_seeds():
    N = type_by_id(2).neg_set()
    for seed in (1.5, 2.0, "3", True, None):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            sample_nef(N, 3, seed=seed)
        with pytest.raises(ValidationError, match="seed must be an integer"):
            run_invariant_suite(seed=seed, samples_per_type=1)


def _randrange_sampler(N, count, seed):
    """sample_nef's loop drawn with randrange(13) and randrange(t + 1): the
    stream the sampling contract promises."""
    rng = random.Random(_stream_seed(seed, N))
    out, seen = [], set()

    def offer(vec):
        c = DivisorClass(vec[0], vec[1:])
        if c not in seen and is_nef(c, N):
            seen.add(c)
            out.append(c)
            return True
        return False

    for c in (ZERO, L, -K, FIVE_L_MINUS_2):
        offer(tuple(c))
    attempts = 0
    while len(out) < count and attempts < count * 400:
        attempts += 1
        t = rng.randrange(13)
        a = [-rng.randrange(t + 1) for _ in range(6)]
        if not offer((t, *a)):
            a.sort()
            offer((t, *a))
    return tuple(out[:count])


@settings(max_examples=25, deadline=None)
@example(2, 0, 1)
@example(17, 11, 200)
@example(90, 0, 200)  # E6: a chain of five infinitely near points
@example(1, 0, 1)  # on type 1 all four fixed classes are nef: they fill counts 1..4
@example(1, 0, 2)
@example(1, 0, 3)
@example(1, 0, 4)
@example(90, 0, 1)  # on type 90 three are: count 4 needs a draw
@example(90, 0, 2)
@example(90, 0, 3)
@example(90, 0, 4)
@given(st.integers(1, 90), st.integers(0, 2**70), st.integers(1, 60))
def test_sample_nef_draws_the_randrange_stream(type_id, seed, count):
    N = type_by_id(type_id).neg_set()
    assert sample_nef(N, count, seed=seed) == _randrange_sampler(N, count, seed)


@pytest.fixture
def reductions(monkeypatch):
    """The classes that enter the peel core curves._peel, in call order."""
    calls = []
    real = curves._peel

    def counting(D, p, N, W, subs=None):
        calls.append(tuple(D))
        return real(D, p, N, W, subs)

    monkeypatch.setattr(curves, "_peel", counting)
    return calls


def test_negative_degree_classes_are_not_reduced(reductions):
    N = type_by_id(90).neg_set()
    assert h0(DivisorClass(-1, (-3, 0, 0, 0, 0, 0)), N) == 0
    assert h2(L, N) == h2(FIVE_L_MINUS_2, N) == 0  # K - F has negative degree
    assert reductions == []


@pytest.fixture
def peeled(monkeypatch):
    """The classes that enter the peel core curves._peel from
    check_mu_bounds, in call order; each must come with its own pairings
    with N.NEG, packed."""
    calls = []
    real = curves._peel

    def recording(D, p, N, W, subs=None):
        lanes = [(p >> W * k & (1 << W) - 1) - (1 << W - 1) for k in range(len(N.NEG))]
        assert lanes == [intersect(D, c) for c in N.NEG]
        calls.append(tuple(D))
        return real(D, p, N, W, subs)

    monkeypatch.setattr(curves, "_peel", recording)  # the name check_mu_bounds calls
    return calls


@pytest.mark.parametrize("type_id", [1, 2, 90])
def test_check_mu_bounds_reduces_only_the_base_point_classes(peeled, type_id):
    # F and F + L are nef, and so is a base-point class that meets every curve
    # nonnegatively: Riemann-Roch counts them.  A class of degree -1 (F - (L -
    # E_j) at F = 0) has no sections.  Only the other base-point classes are
    # peeled, each once, in order.
    N = type_by_id(type_id).neg_set()
    counted = reduced = 0
    for F in sample_nef(N, 12, seed=4):
        peeled.clear()
        check_mu_bounds(F, N)
        nef, rest = [], []
        for c in (c for j in N.usable for c in (F - e(j), F - (L - e(j)))):
            if c[0] >= 0:
                (nef if min(intersect(c, C) for C in N.NEG) >= 0 else rest).append(c)
        assert peeled == rest
        counted, reduced = counted + len(nef), reduced + len(rest)
    assert counted and reduced  # both paths are taken on every type


def test_a_broken_h0_is_a_consistency_error(monkeypatch):
    # a peel that never ends nef leaves h^0 = 0 below chi, so h^1 would be negative
    def never_nef(D, p, N, W, subs=None):
        D[0] = -1
        return p

    N = type_by_id(1).neg_set()
    monkeypatch.setattr(curves, "_peel", never_nef)
    # F = L - E2: F - E1 = L - E1 - E2 is a -1 curve, so not nef, and its
    # count reaches the peel (nef base-point classes are counted without one)
    with pytest.raises(ConsistencyError, match=r"negative h\^1 = -1 for L-E1-E2;"):
        mu_stats(L - e(2), N)
    with pytest.raises(ConsistencyError, match=r"negative h\^1"):
        check_mu_bounds(2 * L, N)
    with pytest.raises(ConsistencyError, match=r"negative h\^1 = -3 for L;"):
        curves.h1(L, N)


def test_the_kernel_bound_catches_a_peel_that_overcounts(monkeypatch):
    # a peel whose nef part ends one degree too high overcounts the sections
    # of each peeled base-point class while h^1 stays >= 0, so no
    # ConsistencyError hides it: the kernel bound must catch it
    N = type_by_id(61).neg_set()
    samples = sample_nef(N, 100, 0)
    real = curves._peel

    def raised(D, p, N, W, subs=None):
        out = real(D, p, N, W, subs)
        if D[0] >= 0:
            D[0] += 1
        return out

    monkeypatch.setattr(curves, "_peel", raised)
    violations = [v for F in samples for v in check_mu_bounds(F, N).violations]
    assert any("kernel bound fails" in v for v in violations)


def _reference_stats(F, N, j):
    """MuStats by the earlier path: each class a checked DivisorClass whose
    h^0 and h^2 come from h0 (a reduction from scratch), h^1 by Riemann-Roch."""

    def h0_h1(D):
        a = h0(D, N)
        return a, a + h2(D, N) - euler_characteristic(D)

    q, qstar = h0_h1(F - e(j))
    l, lstar = h0_h1(F - (L - e(j)))
    h0F, h0FL = h0(F, N), h0(F + L, N)
    return MuStats(F, j, q, l, qstar, lstar, h0F, h0FL,
                   max(0, 3 * h0F - h0FL), max(0, h0FL - 3 * h0F))


@settings(max_examples=40, deadline=None)
@example(1, 0, 0, 1, 0)  # F = 0, of degree 0: l = 0 without a peel
@example(90, 5, 0, 3, 0)  # F = 0 again, on E6
@example(1, 0, 1, 1, 0)  # F = L: every F - E_j is nef, so Riemann-Roch counts it
@example(1, 0, 1, 1, 2)  # F = 4L - E1 - ... - E6: all 12 base-point classes are nef
@example(74, 0, 6, 1, 12)  # F = 14L - 7E1 - 4E2 - 3E3 - 2E4 - 2E5 - E6: all 12 are nef
@example(1, 0, 0, 1, 3)  # F = 5L - 2(E1 + ... + E6): none of the 12 is nef
@example(90, 0, 1, 2, 1)  # F = 3L on E6: F - E_1 is nef
@example(74, 3, 5, 3, 2)  # a chain of infinitely near points
@example(90, 0, 7, 4, 11)  # E6: every point but p_1 infinitely near
@given(st.integers(1, 90), st.integers(0, 2**32), st.integers(0, 29), st.integers(1, 4),
       st.integers(0, 29))
def test_mu_bounds_match_the_reference(type_id, seed, i, k, j):
    # k*G + H is nef for nef G and H, and reaches degree 60
    N = type_by_id(type_id).neg_set()
    samples = sample_nef(N, 30, seed)
    F = k * samples[i % len(samples)] + samples[j % len(samples)]
    report = check_mu_bounds(F, N)
    assert report.stats == tuple(_reference_stats(F, N, u) for u in N.usable)
    assert report.passed, report.violations
    for index in range(1, 7):  # every index, usable or not
        assert mu_stats(F, N, index) == _reference_stats(F, N, index)


def test_lane_test_matches_the_curve_scan():
    # every class of sample_nef's box with t <= 2, its corners at t = 12 and
    # the four fixed classes, on every type; on the corners and fixed classes,
    # which meet curves in -48..24, every lane must read 128 + D.C exactly
    small = [(t, *m) for t in range(3) for m in itertools.product(range(-t, 1), repeat=6)]
    corners = [(12, *m) for m in itertools.product((0, -12), repeat=6)]
    corners += [tuple(c) for c in (ZERO, L, -K, FIVE_L_MINUS_2)]
    for t in enumerate_types():
        N = t.neg_set()
        NEG = N.NEG
        high, rows = _lanes(N)
        packed = {D: high + sum(row[abs(v)] for row, v in zip(rows, D)) for D in small + corners}
        for D, v in packed.items():
            nef = min(intersect(D, c) for c in NEG) >= 0
            assert (v & high == high) == nef, (t.id, D)
        for D in corners:
            lanes = [packed[D] >> 8 * k & 255 for k in range(len(NEG))]
            assert lanes == [128 + intersect(D, c) for c in NEG], (t.id, D)
