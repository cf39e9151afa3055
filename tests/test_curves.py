import math
import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sixpoints import (
    AMPLE_CLASS,
    ConsistencyError,
    DivisorClass,
    K,
    L,
    NegCurveSet,
    ValidationError,
    ZERO,
    analyze,
    candidate_pool,
    check_mu_bounds,
    classify,
    dynkin_graph,
    e,
    enumerate_types,
    euler_characteristic,
    fatpoint_class,
    format_negset,
    full_neg,
    h0,
    h1,
    h2,
    hilbert_function,
    intersect,
    is_nef,
    minimal_resolution,
    minus_one_candidates,
    mu_stats,
    parse_negset,
    permute_points,
    proximity_reduce,
    reduce_to_nef,
    sample_nef,
    selfint,
    smith_invariant_factors,
    torsion,
    type_by_id,
)
from sixpoints import curves

coeff = st.integers(min_value=-6, max_value=6)
classes = st.builds(DivisorClass, st.integers(-4, 10), st.tuples(*[coeff] * 6))

ROOT12 = e(1) - e(2)
CONIC = DivisorClass(2, (-1, -1, -1, -1, -1, -1))


def test_family_sizes():
    pool, minus_one = candidate_pool(), minus_one_candidates()
    # the pool's blocks: 15 differences, 20 three-point lines, the six-point conic
    assert [c.d for c in pool] == [0] * 15 + [1] * 20 + [2]
    # the -1 list: 6 E_i, 15 two-point lines, 6 five-point conics
    assert [c.d for c in minus_one] == [0] * 6 + [1] * 15 + [2] * 6
    assert len(set(pool)) == 36
    for c in pool:
        assert selfint(c) == -2
        assert intersect(c, K) == 0
    for c in minus_one:
        assert selfint(c) == -1
        assert intersect(c, K) == -1


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


def test_neg_curve_set_repr_shows_its_own_tuples():
    N = full_neg(type_by_id(2).classes)
    assert repr(N) == f"NegCurveSet(neg={N.neg!r}, NEG={N.NEG!r})"
    assert repr(N).startswith("NegCurveSet(neg=(DivisorClass(0, (1, -1, 0, 0, 0, 0)),), NEG=(")


def test_full_neg_memo_hands_out_the_pool_classes():
    # a plain 7-tuple hashes and compares equal to the class it spells, so a
    # memo keyed on the input would hand the first caller's tuples to later
    # callers; it is keyed on the validated pool indices instead
    curves._full_neg.cache_clear()
    plain = (tuple(ROOT12), tuple(e(3) - e(4)))
    for neg in (plain, (ROOT12, e(3) - e(4))):
        N = full_neg(neg)
        assert N.neg == (ROOT12, e(3) - e(4))
        assert all(type(c) is DivisorClass for c in N.neg + N.NEG)


def test_full_neg_rejects_an_invalid_set_on_every_call():
    # exceptions are not memoized
    for _ in range(3):
        with pytest.raises(ValidationError, match="duplicate"):
            full_neg((ROOT12, ROOT12))
        with pytest.raises(ValidationError, match="meet"):
            full_neg([ROOT12, e(1) - e(3)])


def _gram_is_the_pairing(N):
    # the packed Gram rows of a narrow and a wide lane width, unpacked (with
    # 2^(W-1) added to every lane, each lane reads 2^(W-1) + C_i.C_k)
    n = len(N.NEG)
    for W in (8, 64):
        high, rows, _ = curves._packing(N, W)
        if len(rows) != n:
            return False
        for row, a in zip(rows, N.NEG):
            lanes = [((high + row) >> W * k & (1 << W) - 1) - (1 << W - 1) for k in range(n)]
            if lanes != [intersect(a, b) for b in N.NEG]:
                return False
    return True


def test_gram_matrix_matches_the_pairing():
    for t in enumerate_types():
        assert _gram_is_the_pairing(t.neg_set()), t.id
    rng = random.Random(8)
    N = type_by_id(60).neg_set()
    order = list(N.NEG)
    rng.shuffle(order)
    shuffled = NegCurveSet(neg=N.neg, NEG=tuple(order))
    assert shuffled.NEG != N.NEG and _gram_is_the_pairing(shuffled)


@pytest.mark.parametrize("entry", [reduce_to_nef, is_nef, h0, h1, h2])
def test_non_classes_rejected_at_the_boundary(entry):
    N = type_by_id(1).neg_set()
    for bad in ((1, 0, 0, 0, 0, 0, 0), [0, 0, 0, 0, 0, 0, 0], "L"):
        with pytest.raises(ValidationError, match="expected a DivisorClass"):
            entry(bad, N)


@pytest.mark.parametrize(
    "call",
    [
        lambda classes: is_nef(L, classes),
        lambda classes: reduce_to_nef(L, classes),
        lambda classes: h0(L, classes),
        lambda classes: h1(L, classes),
        lambda classes: h2(L, classes),
        lambda classes: sample_nef(classes),
        lambda classes: mu_stats(L, classes),
        lambda classes: check_mu_bounds(L, classes),
        lambda classes: classify(None),
        lambda classes: full_neg(None),
        lambda classes: proximity_reduce((1,) * 6, None),
        lambda classes: hilbert_function(classes, (1,) * 6).h_ideal(2.5),
        lambda classes: hilbert_function(classes, (1,) * 6).h_quotient(2.5),
        lambda classes: analyze(classes, (1,) * 6, betti="no"),
        lambda classes: classify([{}]),
        lambda classes: full_neg([[0, 1, -1, 0, 0, 0, 0]]),
        lambda classes: full_neg([(0, 1.0, -1, 0, 0, 0, 0)]),
        lambda classes: classify([(0, True, -1, 0, 0, 0, 0)]),
        lambda classes: euler_characteristic((0.5,) * 7),
        lambda classes: euler_characteristic((1, 2)),
        lambda classes: dynkin_graph(None),
        lambda classes: torsion(None),
        lambda classes: torsion(["x"]),
        lambda classes: smith_invariant_factors([[1, 2], [3]]),
        lambda classes: smith_invariant_factors([[0.5, 1]]),
        lambda classes: parse_negset(None),
        lambda classes: format_negset(["x"]),
        lambda classes: intersect((1, 2), L),
        lambda classes: selfint("abc"),
        lambda classes: permute_points((1, 2, 3), (1, 2, 3, 4, 5, 6)),
        lambda classes: permute_points(None, (1, 2, 3, 4, 5, 6)),
    ],
    ids=[
        "is_nef", "reduce_to_nef", "h0", "h1", "h2",
        "sample_nef", "mu_stats", "check_mu_bounds",
        "classify-None", "full_neg-None", "proximity_reduce-None",
        "h_ideal-float", "h_quotient-float", "analyze-betti-str",
        "classify-unhashable", "full_neg-unhashable", "full_neg-float", "classify-bool",
        "euler_characteristic-float", "euler_characteristic-width",
        "dynkin_graph-None", "torsion-None", "torsion-str", "smith-ragged", "smith-float",
        "parse_negset-None", "format_negset-str", "intersect-width", "selfint-str",
        "permute_points-width", "permute_points-None",
    ],
)
def test_wrong_argument_types_rejected_at_the_boundary(call):
    # a type's classes where its NegCurveSet belongs, no classes at all, or
    # an unhashable member where a class belongs
    with pytest.raises(ValidationError, match="expected a"):
        call(type_by_id(5).classes)


# Every entry point that reads an ordered vector, each called on one vector
# given as seq(values), and the value it returns for that vector
_ORDERED_ENTRY_POINTS = [
    (range(7), lambda seq: L + seq, DivisorClass(1, (1, 2, 3, 4, 5, 6))),
    (range(7), lambda seq: seq + L, DivisorClass(1, (1, 2, 3, 4, 5, 6))),
    (range(7), lambda seq: L - seq, DivisorClass(1, (-1, -2, -3, -4, -5, -6))),
    (range(0, -6, -1), lambda seq: DivisorClass(1, seq), DivisorClass(1, (0, -1, -2, -3, -4, -5))),
    (range(5, -1, -1), lambda seq: analyze(type_by_id(3).classes, seq, False).mults_reduced,
     (5, 4, 3, 2, 1, 0)),
    (range(5, -1, -1), lambda seq: hilbert_function(type_by_id(3).classes, seq).ideal_values,
     (0, 0, 0, 0, 0, 0, 2, 7, 14, 22, 32, 43)),
    (range(5, -1, -1), lambda seq: minimal_resolution(type_by_id(3).classes, seq).f1,
     ((8, 2), (9, 1), (11, 1), (13, 1))),
    (range(6), lambda seq: proximity_reduce(seq, type_by_id(2).classes), (1, 0, 2, 3, 4, 5)),
    (range(5, -1, -1), lambda seq: fatpoint_class(seq, 7),
     DivisorClass(7, (-5, -4, -3, -2, -1, 0))),
    (range(6, 0, -1), lambda seq: permute_points(e(1) - e(2), seq), e(6) - e(5)),
    (range(2, -1, -2), lambda seq: smith_invariant_factors([seq, [0, 3]]), (1, 6)),
]


@pytest.mark.parametrize("values, call, want", _ORDERED_ENTRY_POINTS)
def test_ordered_input_must_be_a_sequence(values, call, want):
    # a list, a tuple and a range give one answer; a set, a mapping and a
    # mapping's keys have no order to read, so each is rejected
    for seq in (list(values), tuple(values), values):
        assert call(seq) == want, seq
    for unordered in (set(values), dict.fromkeys(values, 0), dict.fromkeys(values).keys()):
        with pytest.raises(ValidationError):
            call(unordered)


def test_smith_invariant_factors_reads_a_generator_of_rows_once():
    assert smith_invariant_factors(row for row in ([2, 0], [0, 3])) == (1, 6)
    with pytest.raises(ValidationError, match="expected a matrix"):
        smith_invariant_factors(row for row in ({2, 0}, [0, 3]))


def test_full_neg_validation():
    with pytest.raises(ValidationError, match="self-intersection"):
        full_neg((e(1),))
    with pytest.raises(ValidationError, match="orthogonal"):
        full_neg((DivisorClass(0, (1, 1, 0, 0, 0, 0)),))
    with pytest.raises(ValidationError, match="meet"):
        full_neg((ROOT12, e(1) - e(3)))
    with pytest.raises(ValidationError, match="duplicate"):
        full_neg((ROOT12, ROOT12))
    # square -2 and orthogonal to K, but not candidates: negated classes and
    # a difference written the other way round
    for root in (-(L - e(1) - e(2) - e(3)), e(2) - e(1), -CONIC):
        with pytest.raises(ValidationError, match="candidate"):
            full_neg((root,))
        with pytest.raises(ValidationError, match="candidate"):
            hilbert_function([root], (1, 2, 0, 0, 0, 3))
    # a degree 0 class that is not a difference E_i - E_j
    with pytest.raises(ValidationError, match="candidate"):
        hilbert_function([DivisorClass(0, (2, -2, 0, 0, 0, 0))], (0,) * 6)


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


big = st.integers(-10**6, 10**6)


@settings(max_examples=200, deadline=None)
@given(st.one_of(classes, st.builds(DivisorClass, big, st.tuples(*[big] * 6))))
def test_closed_form_chi_is_riemann_roch(F):
    # binom(d + 2, 2) - sum m_i(m_i - 1)/2 against (F^2 - K.F)/2 + 1 by the pairing,
    # also on a plain list
    n = intersect(F, F) - intersect(K, F)
    assert n % 2 == 0
    assert euler_characteristic(F) == euler_characteristic(list(F)) == n // 2 + 1


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
    # Serre duality, also where h^2 > 0 (K, 2K - L) or h^1 > 0 (L - 3E1)
    assert h1(K, N) == 0 and h1(L - 3 * e(1), N) == 3
    for F in (K, 2 * K - L, L - 3 * e(1), -(ROOT12), 3 * L - 4 * e(2)):
        assert h1(F, N) == h1(K - F, N)


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


def test_distinct_negative_curves_meet_nonnegatively():
    # the premise of analyze's period step: peeling a curve, or stepping down
    # by L, never raises another curve's pairing, so a lane no peel of a run
    # selects only falls along the run
    for t in enumerate_types():
        N = t.neg_set()
        for i, a in enumerate(N.NEG):
            assert intersect(L, a) >= 0, (t.id, a)
            for b in N.NEG[i + 1:]:
                assert intersect(a, b) >= 0, (t.id, a, b)


def test_ample_class_meets_all_candidates_positively():
    candidates = candidate_pool() + minus_one_candidates()
    assert len(set(candidates)) == 63
    for c in candidates:
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
    # a curve list whose packed Gram rows read zero never updates the
    # pairings in a peel: E1 - E2 stays the first curve met negatively, and
    # peeling it leaves the degree as it is, so only the guard ends the
    # reduction
    base = full_neg((ROOT12,))
    N = NegCurveSet(neg=base.neg, NEG=base.NEG)
    F = L - e(2)
    W = curves._lane_width(F)
    high, rows, cols = curves._packing(N, W)
    N.packings[W] = (high, (0,) * len(rows), cols)
    with pytest.raises(ConsistencyError, match="steps"):
        reduce_to_nef(F, N)


def test_corrupted_packed_table_hits_the_exact_step_guard_at_degree_zero():
    # zeroed Gram rows at degree 0: E1 meets E1 - E2 in -1 forever, and each
    # copy peeled leaves the degree at 0, so only the guard ends the peel.  Its
    # lower bound there is 1 step; the exact limit, AMPLE_CLASS.E1 + 1 = 7,
    # is computed once the peel passes it, and the peel raises past that
    N = NegCurveSet(neg=(ROOT12,), NEG=full_neg((ROOT12,)).NEG)
    W = curves._lane_width(e(1))
    high, rows, cols = curves._packing(N, W)
    N.packings[W] = (high, (0,) * len(rows), cols)
    with pytest.raises(ConsistencyError, match="reduction of E1 exceeded 7 steps"):
        h0(e(1), N)


def test_support_lists_each_curves_nonzero_coefficients():
    # _peel updates a class only on the support of the curve it peels
    for t in enumerate_types():
        N = full_neg(t.classes)
        assert len(N.support) == len(N.NEG)
        for C, support in zip(N.NEG, N.support):
            assert all(v != 0 for _, v in support)
            rebuilt = [0] * 7
            for j, v in support:
                rebuilt[j] = v
            assert DivisorClass._from_vec(tuple(rebuilt)) == C


def test_curve_list_must_hold_candidate_classes():
    # the peel's lane width is derived for the candidates' shapes; -L, of
    # nonnegative square, could never finish a reduction
    for bad in ((-L,), (L - 100 * e(1),), (e(1) + e(2),), ((0, 1, -1, 0, 0, 0, 0),)):
        with pytest.raises(ValidationError, match="not a candidate curve class"):
            NegCurveSet(neg=(), NEG=bad)


def test_peel_on_a_nef_class_sets_no_step_guard(monkeypatch):
    def no_guard(F):
        raise AssertionError(f"_step_limit called on {F}")

    monkeypatch.setattr(curves, "_step_limit", no_guard)
    for t in (1, 2, 74, 90):
        N = type_by_id(t).neg_set()
        for F in sample_nef(N, 30, seed=2) + tuple(L - e(j) for j in N.usable):
            D, (W, p) = list(F), curves._pack(F, N)
            assert curves._peel(D, p, N, W) == (p, 0)  # its pairings, and no lane selected
            assert D == list(F)
    # nor does a peel within the guard's lower bound, 16d + 1 steps from
    # degree d: L - E1 - E2 takes one
    N = full_neg((ROOT12,))
    assert h0(L - e(1) - e(2), N) == 1
    # a peel past it computes the exact limit: E1 takes two steps at degree 0
    with pytest.raises(AssertionError, match="_step_limit called on"):
        h0(e(1), N)


def _reduce_one_curve_per_step(F, N):
    D, subs = F, []
    while D.d >= 0:
        hit = next((c for c in N.NEG if intersect(D, c) < 0), None)
        if hit is None:
            return D, subs, True
        D = D - hit
        subs.append(hit)
    return D, subs, False


def _list_peel(F, N):
    """The batched peel on a plain list of pairings, as it ran before the
    pairings were packed into lanes: (reduced, copies, effective)."""
    D, p, copies = list(F), [intersect(F, c) for c in N.NEG], []
    rows = [[intersect(a, c) for c in N.NEG] for a in N.NEG]  # the Gram matrix
    while D[0] >= 0:
        i = next((i for i, v in enumerate(p) if v < 0), None)
        if i is None:
            return DivisorClass._from_vec(tuple(D)), copies, True
        hit, row = N.NEG[i], rows[i]
        k = -(p[i] // -row[i])
        if hit[0] > 0:
            k = min(k, D[0] // hit[0] + 1)
        D = [a - k * c for a, c in zip(D, hit)]
        p = [a - k * g for a, g in zip(p, row)]
        copies += [hit] * k
    return DivisorClass._from_vec(tuple(D)), copies, False


@st.composite
def _wide_classes(draw):
    """A type and a class n*G + (a few multiples of its negative curves), G
    one of the type's sampled nef classes: coefficients up to about 1.2
    million, while the fixed part, and so the list of copies to compare,
    stays small."""
    type_id = draw(st.integers(1, 90))
    N = type_by_id(type_id).neg_set()
    F = draw(st.integers(0, 10**5)) * draw(st.sampled_from(sample_nef(N, 30, seed=5)))
    curve = st.sampled_from(N.NEG)
    for C, c in draw(st.lists(st.tuples(curve, st.integers(0, 40)), max_size=6)):
        F = F + c * C
    return type_id, F


@settings(max_examples=200, deadline=None)
@example((90, DivisorClass(9999, (-10000, 0, 0, 0, 0, 0))))  # ~100,000 copies, 1 or 2 a batch
@example((74, DivisorClass(6000, (0, 0, 0, 0, -5000, -5000))))
@example((1, 10**15 * (L - e(1)) + 40 * (L - e(1) - e(2))))  # pairings up to 10^15
@given(_wide_classes())
def test_wide_lanes_match_the_list_peel(case):
    # pairings of this size need lanes of up to 32 bits (56 in the last
    # example), whose width comes from a bound: a lane too narrow would carry
    # into the next one
    type_id, F = case
    N = type_by_id(type_id).neg_set()
    reduced, copies, effective = _list_peel(F, N)
    r = reduce_to_nef(F, N)
    assert (r.reduced, r.effective) == (reduced, effective)
    assert Counter(r.subtractions) == Counter(copies)
    assert h0(F, N) == (euler_characteristic(reduced) if effective else 0)
    assert is_nef(F, N) == all(intersect(F, c) >= 0 for c in N.NEG)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 90),
    st.builds(DivisorClass, st.integers(-2, 150), st.tuples(*[st.integers(-80, 3)] * 6)),
)
def test_batched_reduction_matches_one_curve_per_step(type_id, F):
    N = type_by_id(type_id).neg_set()
    r = reduce_to_nef(F, N)
    reduced, subs, effective = _reduce_one_curve_per_step(F, N)
    assert is_nef(F, N) == all(intersect(F, c) >= 0 for c in N.NEG)
    assert r.effective == effective
    assert h0(F, N) == (euler_characteristic(reduced) if effective else 0)
    if effective:
        assert r.reduced == reduced
        assert Counter(r.subtractions) == Counter(subs)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 90),
    st.builds(DivisorClass, st.integers(0, 120), st.tuples(*[st.integers(-40, 3)] * 6)),
)
def test_reducing_nef_part_minus_L_matches_reducing_D_minus_L(type_id, D):
    # the step fatpoints.analyze takes from one degree to the next: every
    # negative curve meets L nonnegatively, so the curves peeled off an
    # effective D are forced into D - L as well
    N = type_by_id(type_id).neg_set()
    r = reduce_to_nef(D, N)
    assume(r.effective)
    direct = reduce_to_nef(D - L, N)
    via_nef = reduce_to_nef(r.reduced - L, N)
    assert via_nef.effective == direct.effective
    if direct.effective:  # otherwise only the sign of the degree is promised
        assert via_nef.reduced == direct.reduced


@st.composite
def _lane_steps(draw):
    """A lane width W, lanes (x_j, delta_j, selected) within the contract of
    ``curves._repeats`` (x_j >= 0, |delta_j| < 2^(W-1)) and a cap n >= 0.
    Small values and unchanged lanes are drawn often, so that caps, lanes
    that reach 0 and selected lanes left unchanged all occur."""
    W = draw(st.sampled_from([8, 16, 24, 32]))
    top = (1 << W - 1) - 1
    x = st.integers(0, 40) | st.integers(0, top)
    delta = st.just(0) | st.integers(-3, 3) | st.integers(-top, top)
    lanes = draw(st.lists(st.tuples(x, delta, st.booleans()), min_size=1, max_size=27))
    return W, lanes, draw(st.integers(0, 60) | st.integers(0, 1 << W))


@settings(max_examples=500, deadline=None)
@example((8, [(5, 0, False), (40, -1, False), (90, -2, False)], 6))  # analyze's top run: capped by d
@example((16, [(30, -3, False), (7, 0, True)], 100))  # a selected lane that does not change
@example((16, [(30, -3, False), (7, 1, True)], 100))  # a selected lane that changes
@example((8, [(127, -127, False), (0, 0, False)], 5))  # the widest step a lane holds
@example((8, [(0, -127, False), (3, 0, False)], 5))  # 2 steps would overflow the lane
@example((32, [(9, -2, False)], 0))  # a cap of 0
@given(_lane_steps())
def test_repeats_matches_decode_and_divide(case):
    W, lanes, n = case
    half = 1 << W - 1
    p = sum(half + x << W * j for j, (x, _, _) in enumerate(lanes))
    dp = sum(delta << W * j for j, (_, delta, _) in enumerate(lanes))
    sel = sum(half << W * j for j, (_, _, s) in enumerate(lanes) if s)
    high = sum(half << W * j for j in range(len(lanes)))
    if any(s and delta for _, delta, s in lanes):
        want = 0  # a selected lane changes
    else:
        want = min([n] + [x // -delta for x, delta, _ in lanes if delta < 0])
    assert curves._repeats(p, dp, sel, high, W, n) == want
