import dataclasses
import hashlib

import pytest

from sixpoints import (
    DivisorClass,
    L,
    ValidationError,
    ZERO,
    check_mu_bounds,
    enumerate_types,
    is_nef,
    mu_stats,
    run_invariant_suite,
    sample_nef,
    type_by_id,
    usable_point_indices,
)
from sixpoints.verify import FIVE_L_MINUS_2

# SHA-256 digests of the sampled classes and of every MuStats field of their
# check_mu_bounds reports, frozen from the release before the verify path was
# made faster.  A change to the sampler or to any bound changes them.
FROZEN_SWEEP_SHA256 = "50a782c166b896017d9c16564e58ad5f953c668ef0eea85fe2cb04b6c388711d"
FROZEN_TYPE_2_SHA256 = "9f1aee8ef56b8bdd6e46b86a6f343c974b23f70af6dfc9ed917df5fa49ca17fd"


def _samples_and_stats_digest(pairs) -> str:
    """Digest of [(N, samples)]: each class, then each MuStats as a tuple of
    its fields in declaration order (classes as plain tuples)."""
    h = hashlib.sha256()
    for N, samples in pairs:
        for F in samples:
            h.update(repr(tuple(F)).encode())
            for s in check_mu_bounds(F, N).stats:
                row = tuple(getattr(s, f.name) for f in dataclasses.fields(s))
                h.update(repr(tuple(tuple(v) if isinstance(v, tuple) else v for v in row)).encode())
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


def test_check_mu_bounds_requires_nef():
    with pytest.raises(ValidationError, match="not nef"):
        check_mu_bounds(DivisorClass(1, (-1, -1, -1, 0, 0, 0)), type_by_id(1).neg_set())


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
    assert usable_point_indices(type_by_id(1).neg_set()) == (1, 2, 3, 4, 5, 6)
    assert usable_point_indices(type_by_id(2).neg_set()) == (1, 3, 4, 5, 6)
    assert usable_point_indices(type_by_id(90).neg_set()) == (1,)


def test_sample_nef_contract():
    N = type_by_id(2).neg_set()
    first = sample_nef(N, count=80, seed=11)
    again = sample_nef(N, count=80, seed=11)
    assert first == again
    assert len(first) == 80
    assert len(set(first)) == 80
    assert all(is_nef(F, N) for F in first)
    from sixpoints import K
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


def test_invariant_suite_is_seeded():
    a = run_invariant_suite(seed=5, samples_per_type=5)
    b = run_invariant_suite(seed=5, samples_per_type=5)
    assert [c.detail for c in a.checks] == [c.detail for c in b.checks]
