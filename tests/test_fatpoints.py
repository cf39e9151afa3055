import hashlib
import itertools
import math
import operator
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from sixpoints import (
    ConsistencyError,
    DivisorClass,
    HilbertFunction,
    K,
    L,
    ValidationError,
    analyze,
    e,
    enumerate_types,
    euler_characteristic,
    fatpoint_class,
    full_neg,
    hilbert_function,
    intersect,
    is_nef,
    minimal_resolution,
    permute_points,
    proximity_reduce,
    reduce_to_nef,
    table2,
    type_by_id,
)
from sixpoints import curves, fatpoints
from sixpoints.typeenum import candidate_pool


def _proximity_one_unit(mults, classes):
    # reference: the one-unit-at-a-time loop proximity_reduce once ran.  While
    # some E_i - E_j among the classes has m_i < m_j, move one unit from m_j
    # to m_i; sum(k * m_k) falls by j - i >= 1 each step, so it stops
    m = list(mults)
    roots = [(c.index(1), c.index(-1)) for c in classes if c[0] == 0]
    while True:
        for i, j in roots:
            if m[i - 1] < m[j - 1]:
                m[i - 1] += 1
                m[j - 1] -= 1
                break
        else:
            return tuple(m)


def test_proximity_reduce_examples():
    t2 = type_by_id(2)
    assert proximity_reduce((1, 2, 0, 0, 0, 0), t2.classes) == (2, 1, 0, 0, 0, 0)
    t1 = type_by_id(1)
    assert proximity_reduce((3, 1, 4, 1, 5, 9), t1.classes) == (3, 1, 4, 1, 5, 9)
    assert proximity_reduce((0, 0, 0, 0, 0, 0), t2.classes) == (0, 0, 0, 0, 0, 0)


def test_proximity_reduce_chain():
    t90 = type_by_id(90)
    reduced = proximity_reduce((0, 0, 0, 0, 0, 6), t90.classes)
    assert sum(reduced) == 6
    roots = [(i, j) for i in range(1, 7) for j in range(1, 7)
             if e(i) - e(j) in t90.classes]
    assert all(reduced[i - 1] >= reduced[j - 1] for i, j in roots)


def test_proximity_reduce_rejects_negative():
    with pytest.raises(ValidationError):
        proximity_reduce((1, -1, 0, 0, 0, 0), type_by_id(1).classes)


def test_proximity_reduce_rejects_non_differences():
    # degree 0 classes that are not E_i - E_j with i < j
    for bad in ((2, -2, 0, 0, 0, 0), (1, -1, 1, -1, 0, 0), (-1, 1, 0, 0, 0, 0)):
        with pytest.raises(ValidationError, match="candidate"):
            proximity_reduce((1,) * 6, [DivisorClass(0, bad)])


def test_proximity_reduce_rejects_a_non_neg_set():
    # E1 - E2 and E1 - E3 meet negatively; analyze rejects the same classes
    classes = [e(1) - e(2), e(1) - e(3)]
    for run in (proximity_reduce, lambda m, c: analyze(c, m, betti=False)):
        with pytest.raises(ValidationError, match="meet negatively"):
            run((0, 5, 0, 0, 0, 0), classes)


@settings(max_examples=200, deadline=None)
@example(90, (0, 0, 0, 0, 0, 400))
@example(74, (0, 0, 0, 0, 0, 400))
@example(84, (0, 1, 0, 2, 0, 3))
@given(st.integers(1, 90), st.tuples(*[st.integers(0, 40)] * 6))
def test_proximity_reduce_matches_one_unit_loop(type_id, mults):
    classes = type_by_id(type_id).classes
    assert proximity_reduce(mults, classes) == _proximity_one_unit(mults, classes)


@settings(max_examples=200, deadline=None)
@example(90, (0, 0, 0, 0, 0, 400))
@example(74, (0, 0, 0, 0, 0, 10))
@given(st.integers(1, 90), st.tuples(*[st.integers(0, 40)] * 6))
def test_normalized_maximum_is_at_a_plane_point(type_id, mults):
    # why analyze may stop its scan at max(m) of the normalized multiplicities:
    # the largest is the multiplicity of a point that is not infinitely near
    # another, where L - E_j is nef
    classes = type_by_id(type_id).classes
    m = proximity_reduce(mults, classes)
    assert max(m[j - 1] for j in full_neg(classes).usable) == max(m)


def test_fatpoint_class():
    assert fatpoint_class((1,) * 6, 3) == -K
    assert fatpoint_class((0,) * 6, 0) == DivisorClass(0, (0,) * 6)
    assert fatpoint_class((3,) * 6, 9) == -3 * K


def test_hilbert_type_86_triple():
    t = type_by_id(86)
    hf = hilbert_function(t.classes, (3,) * 6)
    assert [hf.h_ideal(k) for k in range(8)] == [0, 0, 0, 0, 0, 0, 1, 3]
    for k in range(8, 14):
        assert hf.h_ideal(k) == math.comb(k + 2, 2) - 36
    assert hf.deg_z == 36
    # no forms of negative degree, in the ideal or the quotient
    assert [(hf.h_ideal(k), hf.h_quotient(k)) for k in (-1, -2, -50)] == [(0, 0)] * 3


def test_hilbert_uniform_single():
    hf = hilbert_function(type_by_id(1).classes, (1,) * 6)
    assert hf.quotient_values == (1, 3, 6)
    hf = hilbert_function(type_by_id(4).classes, (1,) * 6)
    assert hf.quotient_values == (1, 3, 5, 6)


def test_hilbert_empty_scheme():
    hf = hilbert_function(type_by_id(5).classes, (0,) * 6)
    assert hf.deg_z == 0 and hf.tail_from == 0
    assert all(hf.h_ideal(k) == math.comb(k + 2, 2) for k in range(6))


def test_resolution_examples():
    res = minimal_resolution(type_by_id(1).classes, (1,) * 6)
    assert res.f0 == ((3, 4),) and res.f1 == ((4, 3),)
    assert minimal_resolution(type_by_id(4).classes, (1,) * 6).f0 == ((2, 1), (3, 1))
    res = minimal_resolution(type_by_id(2).classes, (2,) * 6)
    assert res.f0 == ((5, 3), (6, 1)) and res.f1 == ((7, 3),)
    res = minimal_resolution(type_by_id(86).classes, (3,) * 6)
    assert res.f0 == ((6, 1), (8, 3), (9, 3)) and res.f1 == ((9, 3), (10, 3))


def test_empty_scheme_resolution():
    res = minimal_resolution(type_by_id(1).classes, (0,) * 6)
    assert res.f0 == ((0, 1),) and res.f1 == ()


def test_bad_multiplicities_rejected():
    classes = type_by_id(1).classes
    with pytest.raises(ValidationError, match="expected 6"):
        hilbert_function(classes, (1, 2, 3))
    with pytest.raises(ValidationError, match="sequence"):
        hilbert_function(classes, 5)
    with pytest.raises(ValidationError, match="sequence"):
        fatpoint_class(None, 3)
    for bad in ((1.5,) * 6, (True,) * 6, (1, 1, 1, 1, 1, 1.0), ("1",) * 6):
        with pytest.raises(ValidationError, match="integers"):
            hilbert_function(classes, bad)


def _random_cases(count, seed):
    rng = random.Random(seed)
    types = enumerate_types()
    for _ in range(count):
        t = rng.choice(types)
        mults = tuple(rng.randint(0, 3) for _ in range(6))
        yield t, mults


def test_duality_and_monotonicity_on_samples():
    for t, mults in _random_cases(12, seed=1):
        hf = hilbert_function(t.classes, mults)
        values = [hf.h_quotient(k) for k in range(hf.tail_from + 3)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        for k in range(hf.tail_from + 3):
            assert hf.h_ideal(k) + hf.h_quotient(k) == math.comb(k + 2, 2)


def test_resolution_identities_on_samples():
    for t, mults in _random_cases(10, seed=2):
        hf = hilbert_function(t.classes, mults)
        res = minimal_resolution(t.classes, mults)
        assert sum(g for _, g in res.f0) - sum(s for _, s in res.f1) == 1
        if res.f1:
            assert min(j for j, _ in res.f1) >= 1 + min(j for j, _ in res.f0)
        top = max([j for j, _ in res.f0] + [j for j, _ in res.f1])
        for k in range(top + 6):
            # R[-j]^mult has dimension mult * binom(k - j + 2, 2) in degree k
            f0, f1 = (sum(mult * math.comb(k - j + 2, 2) for j, mult in shifts if k >= j)
                      for shifts in (res.f0, res.f1))
            assert f0 - f1 == hf.h_ideal(k)


def _syzygies_degree_by_degree(hf, f0):
    # reference solver: the new syzygies of each degree are what F0 has beyond
    # h_I and the syzygies found so far; stop 5 degrees past the last event
    def dim(shifts, t):
        return sum(m * math.comb(t - j + 2, 2) for j, m in shifts if t >= j)

    syz = {}
    horizon = max(j for j, _ in f0) + 5
    t = 0
    while t <= horizon:
        defect = dim(f0, t) - hf.h_ideal(t) - dim(syz.items(), t)
        assert defect >= 0
        if defect:
            syz[t] = defect
            horizon = max(horizon, t + 5)
        t += 1
    return tuple(sorted(syz.items()))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 90), st.tuples(*[st.integers(0, 40)] * 6))
def test_syzygies_match_degree_by_degree_solution(type_id, mults):
    _, hf, res = analyze(type_by_id(type_id).classes, mults, betti=True)
    assert res.f1 == _syzygies_degree_by_degree(hf, res.f0)


def _analyze_every_degree(classes, mults):
    # reference with no shortcut: reduce every degree t = 0..sum(m)+3, and
    # count the generators from chi(d) and chi(d + L) of each nef part d
    m = _proximity_one_unit(mults, classes)
    N = full_neg(classes)
    t_max = sum(m) + 3
    nef = []
    for t in range(t_max + 1):
        r = reduce_to_nef(fatpoint_class(m, t), N)
        nef.append(r.reduced if r.effective else None)
    vals = [0 if d is None else euler_characteristic(d) for d in nef]
    deg_z = sum(v * (v + 1) // 2 for v in m)
    hz = [math.comb(t + 2, 2) - v for t, v in enumerate(vals)]
    assert hz[-2] == hz[-1] == deg_z
    tail_from = hz.index(deg_z)
    hf = HilbertFunction(tuple(vals[: tail_from + 1]), deg_z, tail_from, tuple(hz[: tail_from + 1]))
    f0 = []
    for t in range(-1, t_max):
        h_next = vals[t + 1]
        if t < 0 or nef[t] is None:
            g = h_next
        else:
            h_d = euler_characteristic(nef[t])
            h_dl = euler_characteristic(nef[t] + L)
            g = (h_next - h_dl) + max(0, h_dl - 3 * h_d)
        if g:
            f0.append((t + 1, g))
    f0 = tuple(f0)
    return m, hf, f0, _syzygies_degree_by_degree(hf, f0)


@settings(max_examples=200, deadline=None)
@example(90, (40, 0, 3, 17, 0, 40))  # E6: a chain of five infinitely near points
@example(90, (300, 300, 0, 0, 0, 0))  # chains with larger m: many curves per degree
@example(74, (0, 0, 0, 0, 0, 400))
@example(88, (0, 0, 0, 0, 0, 300))
@example(84, (0, 1, 0, 2, 0, 3))
@example(1, (0, 0, 0, 0, 0, 0))
@example(90, (200, 0, 0, 0, 0, 0))  # the scan ends at the largest plane point multiplicity
@example(86, (60,) * 6)  # a long top run of nef degrees
@given(st.integers(1, 90), st.tuples(*[st.integers(0, 40)] * 6))
def test_top_down_scan_matches_every_degree_reference(type_id, mults):
    classes = type_by_id(type_id).classes
    m, hf, res = analyze(classes, mults, betti=True)
    want = _analyze_every_degree(classes, mults)
    # hf's fields include the quotient values, which the reference computes
    # from its own ideal values
    assert (m, hf, res.f0, res.f1) == want


# SHA-256 of analyze(..., betti=True) on the seeded cases of _analyze_digest,
# frozen from the release that reduced each degree below the top nef run with
# reduce_to_nef, before the pairings were carried from degree to degree
FROZEN_ANALYZE_SHA256 = "43654fcbac0ed27ea47f31625559053091c2916fcccb152686f183342e37580c"


def _analyze_digest():
    rng = random.Random(20121)
    h = hashlib.sha256()
    for _ in range(600):
        type_id = rng.randint(1, 90)
        top = rng.choice((2, 6, 20, 60))
        mults = tuple(rng.randint(0, top) for _ in range(6))
        m, hf, res = analyze(type_by_id(type_id).classes, mults, betti=True)
        row = (type_id, mults, m, hf.ideal_values, hf.deg_z, hf.tail_from, res.f0, res.f1)
        h.update(repr(row).encode())
    return h.hexdigest()


def test_analyze_matches_frozen_digest():
    assert _analyze_digest() == FROZEN_ANALYZE_SHA256


def _checked_scan(type_id, mults):
    """analyze with the packed pairings each peel is handed (carried from the
    degree above, from the top degree's reduction or from a period step) and
    those it hands back unpacked and checked against the class: (peels
    checked, of them the first after a period step)."""
    checked = [0, 0]
    stepped = [False]
    peel, step = fatpoints._peel, fatpoints._step

    def checked_peel(D, p, N, W, subs=None):
        assert _lanes_of(p, W, len(N.NEG)) == [intersect(D, c) for c in N.NEG]
        p, selected = peel(D, p, N, W, subs)
        assert _lanes_of(p, W, len(N.NEG)) == [intersect(D, c) for c in N.NEG]
        checked[0] += 1
        checked[1] += stepped[0]
        stepped[0] = False
        return p, selected

    def noted_step(*args):
        stepped[0] = (out := step(*args)) is not None
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fatpoints, "_peel", checked_peel)
        mp.setattr(fatpoints, "_step", noted_step)
        analyze(type_by_id(type_id).classes, mults, betti=True)
    return tuple(checked)


@settings(max_examples=150, deadline=None)
@example(90, (300, 300, 0, 0, 0, 0))
@example(74, (0, 0, 0, 0, 0, 200))
@example(86, (60,) * 6)
@given(st.integers(1, 90), st.tuples(*[st.integers(0, 40)] * 6))
def test_carried_pairings_match_fresh_ones(type_id, mults):
    # analyze hands each peel the packed pairings it carried from the degree
    # above (or from the top degree's reduction, or from a period step);
    # unpacked, they must be those of the class, and so must the ones the
    # peel hands back
    assert _checked_scan(type_id, mults)[0] > 0


@pytest.mark.parametrize("type_id, mults", [
    (86, (60,) * 6), (61, (50, 40, 30, 20, 10, 5)),
    (1, (60, 50, 40, 30, 20, 10)), (90, (46, 31, 81, 93, 95, 59)),
])
def test_pairings_carried_over_a_period_step_match_fresh_ones(type_id, mults):
    # a period step hands on P_t + n*Delta with p_t + n*(p_t - p_{t+q}); the
    # first peel after it checks those pairings too
    assert _checked_scan(type_id, mults)[1] > 0


def _lanes_of(p, W, n):
    """The n signed W-bit lanes of packed pairings p, lowest first."""
    return [(p >> W * k & (1 << W) - 1) - (1 << W - 1) for k in range(n)]


def _count_peel_steps(monkeypatch):
    # the curve scans of analyze's peels: one per batch of copies peeled, plus
    # the last, which finds the class nef.  Consecutive batches of one peel
    # take different curves, so the batches are the runs of equal curves in
    # its record of copies.
    steps = [0]
    real = fatpoints._peel

    def counted(D, p, N, W, subs=None):
        copies = []
        p, selected = real(D, p, N, W, copies)
        steps[0] += sum(1 for _ in itertools.groupby(copies)) + (D[0] >= 0)
        if subs is not None:
            subs.extend(copies)
        return p, selected

    monkeypatch.setattr(fatpoints, "_peel", counted)
    return steps


def _count_calls(monkeypatch, module, name):
    calls = [0]
    original = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_scan_peels_only_the_new_curves_at_each_degree(monkeypatch):
    # each degree reduces the nef part of the degree above minus L, so a chain
    # type makes a few peel steps per degree, not a full reduction per degree
    # (about 4.7 million curve scans here when every degree was reduced from
    # scratch)
    steps = _count_peel_steps(monkeypatch)
    mults = (5000, 5000, 0, 0, 0, 0)
    analyze(type_by_id(90).classes, mults, betti=True)
    assert 0 < steps[0] <= 4 * (sum(mults) + 4)


def test_top_nef_run_is_filled_without_reductions(monkeypatch):
    # the degrees where t*L - sum(m*E) reduces to a nef P - i*L are filled
    # from the top degree's nef part P: 365 and 1,604 reductions when each
    # of them was reduced
    calls = _count_calls(monkeypatch, fatpoints, "_peel")
    analyze(type_by_id(1).classes, (100,) * 6, betti=True)
    assert 0 < calls[0] <= 15
    calls[0] = 0
    analyze(type_by_id(86).classes, (400,) * 6, betti=True)
    assert 0 < calls[0] <= 402


@pytest.mark.parametrize("type_id, mults", [(1, (100,) * 6), (86, (60,) * 6), (86, (400,) * 6)])
def test_top_run_stops_at_the_last_possible_generator(monkeypatch, type_id, mults):
    # analyze lists h_I and the nef degrees in the top run r..T only up to
    # the last degree t that can carry a generator, where h_t > 3 h_{t-1} or
    # t = r; extended in closed form to T they give the same generators
    seen = []
    real = fatpoints._generators

    def recorded(h, nef_deg, alpha):
        seen.append((h, nef_deg))
        return real(h, nef_deg, alpha)

    monkeypatch.setattr(fatpoints, "_generators", recorded)
    m, hf, res = analyze(type_by_id(type_id).classes, mults, betti=True)
    (h, nef_deg), = seen
    top = sum(m) + 3
    assert len(h) == len(nef_deg) < top + 1
    full_h = list(h) + [math.comb(t + 2, 2) - hf.deg_z for t in range(len(h), top + 1)]
    full_nef = list(nef_deg) + list(range(len(h), top + 1))
    assert real(full_h, full_nef, 0) == res.f0  # counted from degree 0, not alpha


@pytest.mark.parametrize("type_id, mults", [
    (86, (400,) * 6),  # 401 peels one degree at a time
    # the chain inputs at the CLI cap: 5,001 peels one degree at a time
    (74, (0, 0, 0, 0, 0, 10000)), (88, (0, 0, 0, 0, 0, 10000)), (90, (5000, 5000, 0, 0, 0, 0)),
])
def test_period_steps_replace_the_peels_of_repeating_degrees(monkeypatch, type_id, mults):
    calls = _count_calls(monkeypatch, fatpoints, "_peel")
    analyze(type_by_id(type_id).classes, mults, betti=True)
    assert 0 < calls[0] <= 20


def _scan_one_degree_at_a_time(classes, mults):
    """analyze's scan as it ran before the period step: one peel per degree
    below the top nef run, on the pairings carried from the degree above.
    Returns (P, deg_z, h, nef_deg, alpha) as analyze finds them, and per
    scanned degree t with sections (nef part, packed pairings, lanes its peel
    selected)."""
    N = full_neg(classes)
    D, p, W = fatpoints._top_nef_part(mults, N)
    P = DivisorClass(D[0], tuple(D[1:]))
    d, m = P[0], tuple(-v for v in P[1:])
    deg_z = sum(v * (v + 1) // 2 for v in m)
    k = min([d] + [intersect(P, C) // C[0] for C in N.NEG if C[0] > 0])
    r = d - k
    end = min(d, max(r, math.isqrt(2 * deg_z)))
    h = [0] * r + [math.comb(t + 2, 2) - deg_z for t in range(r, end + 1)]
    nef_deg = [-1] * r + list(range(r, end + 1))
    degs = curves._packing(N, W)[2][0]
    D[0] -= k + 1
    p -= (k + 1) * degs
    alpha, records = r, {}
    for t in range(r - 1, max(m) - 1, -1):
        p, selected = curves._peel(D, p, N, W)
        if D[0] < 0:
            break
        h[t] = euler_characteristic(D)
        nef_deg[t] = D[0]
        alpha = t
        records[t] = (tuple(D), p, selected)
        D[0] -= 1
        p -= degs
    return (P, deg_z, h, nef_deg, alpha), records


def _analyze_one_degree_at_a_time(classes, mults):
    (P, deg_z, h, nef_deg, alpha), _ = _scan_one_degree_at_a_time(classes, mults)
    hf = fatpoints._hilbert(P, deg_z, h)
    f0 = fatpoints._generators(h, nef_deg, alpha)
    return tuple(-v for v in P[1:]), hf, fatpoints._resolution(hf, h, f0, alpha)


def _seeded_scans():
    """Seeded (type, multiplicities): m up to 100, inputs at the CLI cap (sum
    10,000), and one multiplicity of 300,000 with a few hundred beside it,
    whose pairings need 16-, 24- and 32-bit lanes."""
    rng = random.Random(29)
    cases = [(rng.randint(1, 90), tuple(rng.randint(0, 100) for _ in range(6))) for _ in range(60)]
    for _ in range(6):
        cut = sorted(rng.randint(0, 10000) for _ in range(5))
        cases.append((rng.randint(1, 90), tuple(map(operator.sub, cut + [10000], [0] + cut))))
    for _ in range(3):
        type_id = rng.randint(1, 90)
        mults = [rng.randint(0, 300) for _ in range(6)]
        # at a plane point, where the scan stops, so it scans at most 1,803 degrees
        mults[rng.choice(full_neg(type_by_id(type_id).classes).usable) - 1] = 300000
        cases.append((type_id, tuple(mults)))
    return cases


def test_period_steps_match_the_scan_one_degree_at_a_time():
    widths = set()
    for type_id, mults in _seeded_scans():
        classes = type_by_id(type_id).classes
        widths.add(fatpoints._top_nef_part(mults, full_neg(classes))[2])
        want = _analyze_one_degree_at_a_time(classes, mults)
        assert analyze(classes, mults, betti=True) == want, (type_id, mults)
    assert {16, 24, 32} <= widths


def test_period_step_is_exact_on_every_run():
    # the step's test is exact, whichever run it is handed: on each run of q
    # consecutive scanned degrees, it either declines or steps to the nef part
    # and pairings the scan reaches, filling h_I and the nef degrees on the way
    rng = random.Random(7)
    steps = 0
    for _ in range(40):
        type_id = rng.randint(1, 90)
        classes = type_by_id(type_id).classes
        mults = tuple(rng.randint(0, 60) for _ in range(6))
        (P, _, h, nef_deg, _), records = _scan_one_degree_at_a_time(classes, mults)
        N = full_neg(classes)
        W = fatpoints._top_nef_part(mults, N)[2]
        high = curves._packing(N, W)[0]
        t_min = max(-v for v in P[1:])
        for t in records:
            for q in range(1, 5):
                if t + q not in records:
                    break
                run = [records[t + q - o] for o in range(q + 1)]
                h_low, nef_low = h[:], nef_deg[:]  # to be filled below t
                h_low[t_min:t] = nef_low[t_min:t] = [None] * (t - t_min)
                stepped = fatpoints._step(run, t, t_min, h_low, nef_low, high, W)
                if stepped is None:
                    continue
                D, p, n = stepped
                steps += 1
                assert (tuple(D), p) == records[t - n][:2], (type_id, mults, t, q)
                assert h_low[t - n:t] == h[t - n:t] and nef_low[t - n:t] == nef_deg[t - n:t]
    assert steps > 1000


def test_scan_stops_at_the_largest_plane_point_multiplicity(monkeypatch):
    # below m1 the class meets the nef class L - E1 negatively, so no degree
    # there is reduced (about 100,000 curve scans when the first degree
    # without sections was reduced down to a negative degree)
    steps = _count_peel_steps(monkeypatch)
    hf = analyze(type_by_id(90).classes, (10000, 0, 0, 0, 0, 0), betti=True).hilbert
    assert 0 < steps[0] <= 100
    # degree 10000 forms with a 10000-fold point at p1: forms in two variables
    assert hf.h_ideal(9999) == 0 and hf.h_ideal(10000) == 10001


def test_nef_pencils_are_the_plane_points():
    # L - E_j is nef exactly when p_j is not infinitely near another point
    for t in enumerate_types():
        N = full_neg(t.classes)
        nef = tuple(j for j in range(1, 7) if is_nef(L - e(j), N))
        assert nef == N.usable, t.id


def test_proximity_reduction_is_transparent():
    t = type_by_id(84)  # long chain of infinitely near points
    raw = (0, 1, 0, 2, 0, 3)
    reduced = proximity_reduce(raw, t.classes)
    assert proximity_reduce(reduced, t.classes) == reduced
    assert hilbert_function(t.classes, raw) == hilbert_function(t.classes, reduced)
    assert minimal_resolution(t.classes, raw) == minimal_resolution(t.classes, reduced)


def test_permutation_equivariance_spot():
    rng = random.Random(3)
    pool = set(candidate_pool())
    done = 0
    types = enumerate_types()
    while done < 6:
        t = rng.choice(types)
        sigma = tuple(rng.sample(range(1, 7), 6))
        image = [permute_points(c, sigma) for c in t.classes]
        if not all(c in pool for c in image):
            continue
        mults = tuple(rng.randint(0, 2) for _ in range(6))
        moved = [0] * 6
        for i in range(6):
            moved[sigma[i] - 1] = mults[i]
        assert hilbert_function(t.classes, mults) == hilbert_function(image, moved)
        assert minimal_resolution(t.classes, mults) == minimal_resolution(image, moved)
        done += 1


def test_table2_shape():
    report = table2()
    assert set(report.cases) == {"1", "2a", "2b1", "2b2", "2b3"}
    assert sum(len(v) for v in report.cases.values()) == 90
    assert report.cases["2a"] == (34, 68, 87)
    assert report.cases["2b3"] == (17, 41, 45, 65, 75, 77, 80, 86)


# Each consistency check of analyze, reached by feeding one of its steps
# broken data through a wrapper around the real step.  A wrapper passes on
# any further arguments, so it does not pin the step's signature.
_BROKEN_SCHEME = (86, (3,) * 6)  # F0 = R[-6] + R[-8]^3 + R[-9]^3, h_I = 1, 3, 9 from degree 6


def _analyze_with(monkeypatch, name, wrap):
    monkeypatch.setattr(fatpoints, name, wrap(getattr(fatpoints, name)))
    type_id, mults = _BROKEN_SCHEME
    return analyze(type_by_id(type_id).classes, mults, betti=True)


def test_a_non_monotone_quotient_is_a_consistency_error(monkeypatch):
    # h_I(1) raised by 3 drops h_Z(1) below h_Z(0) = 1
    def wrap(real):
        return lambda P, deg_z, h, *rest: real(P, deg_z, [h[0], h[1] + 3, *h[2:]], *rest)

    with pytest.raises(ConsistencyError, match="quotient Hilbert function is not monotone"):
        _analyze_with(monkeypatch, "_hilbert", wrap)


def test_a_hilbert_function_that_does_not_stabilize_is_a_consistency_error(monkeypatch):
    def wrap(real):
        return lambda P, deg_z, h, *rest: real(P, deg_z + 1, h, *rest)

    with pytest.raises(ConsistencyError, match="failed to stabilize by degree 21"):
        _analyze_with(monkeypatch, "_hilbert", wrap)


def test_a_negative_generator_count_is_a_consistency_error(monkeypatch):
    # h_I zeroed in the last listed degree, 9, above a degree with sections
    def wrap(real):
        return lambda h, nef_deg, *rest: real([*h[:-1], 0], nef_deg, *rest)

    with pytest.raises(ConsistencyError, match="negative generator count -16 in degree 9"):
        _analyze_with(monkeypatch, "_generators", wrap)


def test_a_free_module_defect_is_a_consistency_error(monkeypatch):
    # without the generator in the initial degree 6, F0 is short of h_I there
    def wrap(real):
        return lambda hf, h, f0, *rest: real(hf, h, f0[1:], *rest)

    with pytest.raises(ConsistencyError, match="disagree in degree 6 \\(defect -1\\)"):
        _analyze_with(monkeypatch, "_resolution", wrap)


def test_an_ideal_without_generators_is_a_consistency_error(monkeypatch):
    def wrap(real):
        return lambda *args: ()  # what _generators returns for an ideal with no generators

    with pytest.raises(ConsistencyError, match="ideal has no generators"):
        _analyze_with(monkeypatch, "_generators", wrap)
