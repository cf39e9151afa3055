import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from sixpoints import (
    AMPLE_CLASS,
    ConsistencyError,
    DivisorClass,
    K,
    L,
    NegCurveSet,
    ValidationError,
    ZERO,
    candidate_families,
    e,
    euler_characteristic,
    full_neg,
    h0,
    h1,
    h2,
    intersect,
    is_nef,
    minus_one_candidates,
    reduce_to_nef,
    selfint,
    type_by_id,
)

coeff = st.integers(min_value=-6, max_value=6)
classes = st.builds(DivisorClass, st.integers(-4, 10), st.tuples(*[coeff] * 6))

ROOT12 = e(1) - e(2)
CONIC = DivisorClass(2, (-1, -1, -1, -1, -1, -1))


def test_family_sizes():
    fam = candidate_families()
    assert len(fam.B) == 6
    assert len(fam.V) == 57
    assert len(fam.Lfam) == 57
    assert len(fam.Q) == 7
    assert len(fam.Vp) == 15
    assert len(fam.Lp) == 35
    assert len(fam.Vpp) == 15 and len(fam.Lpp) == 20 and len(fam.Qpp) == 1
    pool = set(fam.Vpp) | set(fam.Lpp) | set(fam.Qpp)
    assert len(pool) == 36
    for c in pool:
        assert selfint(c) == -2
        assert intersect(c, K) == 0


def test_minus_one_candidates():
    cands = minus_one_candidates()
    assert len(cands) == 27
    assert all(selfint(c) == -1 for c in cands)


def test_full_neg_general_position():
    assert len(full_neg(()).NEG) == 27


def test_full_neg_single_root():
    N = full_neg((ROOT12,))
    assert e(1) not in N.NEG
    assert e(2) in N.NEG
    assert DivisorClass(1, (-1, -1, 0, 0, 0, 0)) in N.NEG
    assert len(N.NEG) == 22
    assert N.NEG[:len(N.neg)] == N.neg
    assert all(selfint(c) == -1 for c in N.NEG[len(N.neg):])


def test_full_neg_conic():
    N = full_neg((CONIC,))
    assert all(not (c.d == 2 and selfint(c) == -1) for c in N.NEG if c != CONIC)


def test_full_neg_validation():
    with pytest.raises(ValidationError, match="self-intersection"):
        full_neg((e(1),))
    with pytest.raises(ValidationError, match="orthogonal"):
        full_neg((DivisorClass(0, (1, 1, 0, 0, 0, 0)),))
    with pytest.raises(ValidationError, match="meet"):
        full_neg((ROOT12, e(1) - e(3)))
    with pytest.raises(ValidationError, match="duplicate"):
        full_neg((ROOT12, ROOT12))


def test_is_nef_examples():
    for neg in ((), (ROOT12,), (CONIC,)):
        N = full_neg(neg)
        assert is_nef(-K, N)
        assert is_nef(L, N)
    assert not is_nef(DivisorClass(1, (-1, -1, -1, 0, 0, 0)), full_neg(()))


def test_reduce_examples():
    N = full_neg((ROOT12,))
    r = reduce_to_nef(DivisorClass(1, (-1, -1, 0, 0, 0, 0)), N)
    assert r.effective and r.reduced == ZERO
    assert r.subtractions == (DivisorClass(1, (-1, -1, 0, 0, 0, 0)),)

    r = reduce_to_nef(-K, N)
    assert r.effective and r.reduced == -K and r.subtractions == ()

    r = reduce_to_nef(DivisorClass(1, (-3, 0, 0, 0, 0, 0)), full_neg(()))
    assert not r.effective
    assert r.reduced.d < 0


def test_h0_plane_curves():
    # degree-t curves of the plane, independent of the configuration
    for neg in ((), (ROOT12,), (CONIC,), (ROOT12, e(3) - e(4), e(5) - e(6))):
        N = full_neg(neg)
        for t in range(6):
            assert h0(t * L, N) == math.comb(t + 2, 2)


def test_h0_examples():
    assert h0(DivisorClass(2, (-1, -1, 0, 0, 0, 0)), full_neg(())) == 4
    assert h0(DivisorClass(1, (-1, -1, 0, 0, 0, 0)), full_neg((ROOT12,))) == 1


def test_euler_characteristic():
    assert euler_characteristic(ZERO) == 1
    assert euler_characteristic(K) == 1
    assert euler_characteristic(L) == 3


def test_h2_examples():
    N = full_neg(())
    assert h2(ZERO, N) == 0
    assert h2(K, N) == 1
    assert h2(5 * L, N) == 0


def test_h1_examples():
    N = full_neg((ROOT12,))
    assert h1(ZERO, N) == 0
    assert h1(-(ROOT12), N) == 0
    for F in (ZERO, L, -K, 2 * L - e(1) - e(2)):
        assert h1(F, N) == 0  # nef classes have no first cohomology


@settings(max_examples=60, deadline=None)
@given(classes)
def test_reduction_decomposes_input(F):
    N = full_neg((ROOT12, e(3) - e(4)))
    r = reduce_to_nef(F, N)
    assert r.reduced + sum(r.subtractions, ZERO) == F
    if r.effective:
        assert is_nef(r.reduced, N)
    else:
        assert r.reduced.d < 0


@settings(max_examples=40, deadline=None)
@given(classes, st.sampled_from(range(27)))
def test_h0_monotone_along_curves(F, k):
    N = full_neg(())
    C = N.NEG[k]
    assert h0(F + C, N) >= h0(F, N)


def test_ample_class_meets_all_candidates_positively():
    fam = candidate_families()
    for c in set(fam.Bp + fam.Vp + fam.Lp + fam.Qp):
        assert intersect(AMPLE_CLASS, c) > 0


def test_h0_independent_of_reduction_order():
    rng = random.Random(5)
    N = full_neg((ROOT12, e(2) - e(3), DivisorClass(1, (-1, -1, -1, 0, 0, 0))))
    cases = [
        DivisorClass(4, (-2, -2, -1, -1, 0, 0)),
        DivisorClass(3, (-3, -1, -1, -1, -1, -1)),
        DivisorClass(1, (-1, -1, 0, 0, 0, -2)),
        DivisorClass(0, (-1, 1, 0, 0, 0, 0)),
    ]
    for F in cases:
        base = reduce_to_nef(F, N)
        expect = (h0(F, N), base.effective)
        for _ in range(20):
            order = list(N.NEG)
            rng.shuffle(order)
            shuffled = NegCurveSet(neg=N.neg, NEG=tuple(order))
            r = reduce_to_nef(F, shuffled)
            got = (h0(F, shuffled), r.effective)
            assert got == expect


def test_batched_peeling_stops_at_first_negative_degree():
    # L-E_i-E_j meets (0; -1,...,-1) in -2, which asks for two copies, but the
    # first copy already makes the degree negative (the step limit here is 1)
    r = reduce_to_nef(DivisorClass(0, (-1,) * 6), full_neg(()))
    assert not r.effective
    assert r.reduced.d == -1


def test_corrupted_curve_list_hits_the_step_guard():
    # a class of nonnegative square in NEG can never finish a reduction
    with pytest.raises(ConsistencyError, match="steps"):
        reduce_to_nef(L, NegCurveSet(neg=(), NEG=(-L,)))


def _reduce_one_curve_per_step(F, N):
    D, subs = F, []
    while D.d >= 0:
        hit = next((c for c in N.NEG if intersect(D, c) < 0), None)
        if hit is None:
            return D, subs, True
        D = D - hit
        subs.append(hit)
    return D, subs, False


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 90),
    st.builds(DivisorClass, st.integers(-2, 150), st.tuples(*[st.integers(-80, 3)] * 6)),
)
def test_batched_reduction_matches_one_curve_per_step(type_id, F):
    N = type_by_id(type_id).neg_set()
    r = reduce_to_nef(F, N)
    reduced, subs, effective = _reduce_one_curve_per_step(F, N)
    assert r.effective == effective
    assert h0(F, N) == (euler_characteristic(reduced) if effective else 0)
    if effective:
        assert r.reduced == reduced
        assert Counter(r.subtractions) == Counter(subs)
