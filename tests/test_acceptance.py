"""Acceptance suite: one test per advertised guarantee, each printing a
pass/fail line (run with -s to see them).

Two literal clauses are expected failures because the source tables they pin
are internally inconsistent, as documented in the repository notes: the
90-row catalog contains one relabelling-equivalent pair of rows (67 and 71),
so only 89 distinct orbits exist, and the published uniform-multiplicity case
lists place type 48 with the configurations carrying a conic although no
valid reading of row 48 does.  The repaired statements are tested green right
next to the literal ones; nothing else is relaxed.
"""

import math
import random

import pytest

from sixpoints import (
    check_mu_bounds,
    enumerate_types,
    full_neg,
    h0,
    hilbert_function,
    minimal_resolution,
    permute_points,
    reduce_to_nef,
    sample_nef,
    table2,
    type_by_id,
)
from sixpoints.curves import NegCurveSet
from sixpoints.fatpoints import (
    CASE_1_M1,
    CASE_1_M2,
    CASE_2A_M2,
    CASE_2B1_M2,
    CASE_2B2_M2,
    CASE_2B3_M2,
    CASE_2_M1,
    UniformData,
)
from sixpoints.typeenum import DUPLICATE_CATALOG_ROWS, orbit_gaps, table_rows

SEED = 20260810

# The uniform multiplicity case lists as the sources print them.  Honest
# computation moves type 48 from case 1 to case 2(b2); everything else is
# reproduced verbatim.
SOURCE_CASE_1 = (4, 8, 12, 16, 25, 26, 30, 33, 37, 42, 47, 48, 50, 53, 58,
                 61, 64, 66, 70, 72, 76, 78, 81, 83, 85, 88, 89, 90)
SOURCE_CASE_2A = (34, 68, 87)
SOURCE_CASE_2B1 = (1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 18, 19, 20, 21, 22, 27,
                   28, 31, 35, 36, 38, 43, 44, 49, 51, 54, 57, 59, 62, 73,
                   74, 79)
SOURCE_CASE_2B2 = (9, 15, 23, 24, 29, 32, 39, 40, 46, 52, 55, 56, 60, 63,
                   67, 69, 71, 82, 84)
SOURCE_CASE_2B3 = (17, 41, 45, 65, 75, 77, 80, 86)

COMPUTED_CASE_1 = tuple(i for i in SOURCE_CASE_1 if i != 48)
COMPUTED_CASE_2B2 = tuple(sorted(SOURCE_CASE_2B2 + (48,)))

KNOWN_GRAPHS = {
    "A_1", "2A_1", "A_2", "3A_1", "A_1A_2", "A_3", "4A_1", "2A_1A_2",
    "A_1A_3", "2A_2", "A_4", "D_4", "A_12A_2", "2A_1A_3", "A_1A_4",
    "A_5", "D_5", "3A_2", "A_1A_5", "E_6",
}


def _report(line):
    print(line)


@pytest.mark.xfail(
    strict=True,
    reason="catalog rows 67 and 71 are one relabelling orbit (witness: points "
           "4->6, 5->4, 6->5), so only 89 distinct orbits exist; see notes",
)
def test_criterion_1_catalog_reproduction_literal():
    types = enumerate_types()
    orbits = {t.classes for t in types}
    ok = len(types) == 90 and len(orbits) == 90
    _report("criterion 1 (literal one-to-one): "
            + ("PASS" if ok else
               f"FAIL - {len(types)} catalog rows but {len(orbits)} distinct orbits"))
    assert ok


def test_criterion_1_catalog_reproduction():
    types = enumerate_types()
    rows = table_rows()
    # the exhaustive enumeration of orbits finds exactly the catalog's: no
    # configuration type is missing, and no row names a non-configuration
    assert orbit_gaps(types) == ((), ())
    assert [t.id for t in types] == list(range(1, 91))
    for t, row in zip(types, rows):
        assert t.label == row.label
        assert t.neg_label == row.neg
        assert t.torsion.text() == row.torsion
        expected_graph = "" if t.id == 1 else (
            t.label[:-1] if t.label[-1].islower() else t.label
        )
        assert t.graph.name == expected_graph
    # the enumeration covers every orbit; the only repeated rows are the
    # documented pair, which share identical canonical classes
    assert len({t.classes for t in enumerate_types()}) == 89
    assert DUPLICATE_CATALOG_ROWS == (frozenset({67, 71}),)
    assert type_by_id(67).classes == type_by_id(71).classes
    nontrivial = {t.id: t.torsion.text() for t in types if t.torsion.invariant_factors}
    assert nontrivial == {
        32: "Z2", 33: "Z2", 34: "Z2", 67: "Z2", 68: "Z2", 69: "Z2",
        70: "Z2", 71: "Z2", 72: "Z2", 85: "Z3", 86: "Z3",
        87: "Z2", 88: "Z2", 89: "Z2",
    }
    _report("criterion 1: PASS - 90 catalog rows reproduced exactly "
            "(ids, labels, notations, graphs, torsion); 89 distinct orbits, "
            "rows 67/71 being the one published duplicate")


def test_criterion_2_graph_census():
    names = {t.graph.name for t in enumerate_types() if t.graph.name}
    ok = names == KNOWN_GRAPHS
    _report("criterion 2: " + ("PASS - exactly the 20 expected graphs occur"
                               if ok else f"FAIL - {sorted(names)}"))
    assert ok


def test_criterion_3_twenty_seven_lines():
    n = len(full_neg(()).NEG)
    _report(f"criterion 3: {'PASS' if n == 27 else 'FAIL'} - "
            f"{n} negative curves on the general blow-up")
    assert n == 27


def _uniform(t, m):
    hf = hilbert_function(t.classes, (m,) * 6)
    res = minimal_resolution(t.classes, (m,) * 6)
    return UniformData(hz=hf.quotient_values, f0=res.f0, f1=res.f1)


def test_criterion_4_table_two_patterns():
    report = table2()
    for t in enumerate_types():
        m1, m2 = report.outcomes[t.id]
        if t.id in COMPUTED_CASE_1:
            assert (m1, m2) == (CASE_1_M1, CASE_1_M2), t.id
        elif t.id in SOURCE_CASE_2A:
            assert (m1, m2) == (CASE_2_M1, CASE_2A_M2), t.id
        elif t.id in SOURCE_CASE_2B1:
            assert (m1, m2) == (CASE_2_M1, CASE_2B1_M2), t.id
        elif t.id in COMPUTED_CASE_2B2:
            assert (m1, m2) == (CASE_2_M1, CASE_2B2_M2), t.id
        else:
            assert t.id in SOURCE_CASE_2B3
            assert (m1, m2) == (CASE_2_M1, CASE_2B3_M2), t.id
    assert report.cases["1"] == COMPUTED_CASE_1
    assert report.cases["2a"] == SOURCE_CASE_2A
    assert report.cases["2b1"] == SOURCE_CASE_2B1
    assert report.cases["2b2"] == COMPUTED_CASE_2B2
    assert report.cases["2b3"] == SOURCE_CASE_2B3
    _report("criterion 4: PASS - every type matches its uniform multiplicity "
            "pattern; case lists reproduced except type 48, which computes to "
            "case 2(b2) because no valid reading of its catalog row carries a conic")


@pytest.mark.xfail(
    strict=True,
    reason="the published case lists put type 48 in case 1, but row 48's only "
           "valid reading has no conic through the six points; see notes",
)
def test_criterion_4_case_lists_literal():
    report = table2()
    ok = (report.cases["1"] == SOURCE_CASE_1
          and report.cases["2b2"] == SOURCE_CASE_2B2)
    _report("criterion 4 (literal case lists): "
            + ("PASS" if ok else "FAIL - type 48 lands in case 2(b2), not case 1"))
    assert ok


def test_criterion_5_closing_example():
    t = type_by_id(86)
    hf = hilbert_function(t.classes, (3,) * 6)
    res = minimal_resolution(t.classes, (3,) * 6)
    ok = (
        [hf.h_ideal(k) for k in range(8)] == [0, 0, 0, 0, 0, 0, 1, 3]
        and all(hf.h_ideal(k) == math.comb(k + 2, 2) - 36 for k in range(8, 15))
        and res.f0 == ((6, 1), (8, 3), (9, 3))
        and res.f1 == ((9, 3), (10, 3))
    )
    _report("criterion 5: " + ("PASS - triple uniform scheme on type 86 "
                               "reproduces the expected data" if ok else "FAIL"))
    assert ok


def test_criterion_6_multiplication_rank_bounds():
    checked = 0
    for t in enumerate_types():
        N = t.neg_set()
        samples = sample_nef(N, count=200, seed=SEED)
        assert len(samples) >= 200, f"type {t.id} produced only {len(samples)} samples"
        for F in samples:
            report = check_mu_bounds(F, N)
            assert report.passed, (t.id, F, report.violations)
            checked += 1
    _report(f"criterion 6: PASS - the kernel bounds hold for {checked} "
            f"sampled nef classes (200 per type, every usable base index)")


def test_criterion_7_property_suites():
    rng = random.Random(SEED)
    types = enumerate_types()

    # Hilbert duality and resolution identities on seeded samples
    for _ in range(25):
        t = rng.choice(types)
        mults = tuple(rng.randint(0, 3) for _ in range(6))
        hf = hilbert_function(t.classes, mults)
        for k in range(hf.tail_from + 4):
            assert hf.h_ideal(k) + hf.h_quotient(k) == math.comb(k + 2, 2)
        res = minimal_resolution(t.classes, mults)
        assert sum(g for _, g in res.f0) - sum(s for _, s in res.f1) == 1
        top = max([j for j, _ in res.f0] + [j for j, _ in res.f1])
        for k in range(top + 6):
            # R[-j]^mult has dimension mult * binom(k - j + 2, 2) in degree k
            f0, f1 = (sum(mult * math.comb(k - j + 2, 2) for j, mult in shifts if k >= j)
                      for shifts in (res.f0, res.f1))
            assert f0 - f1 == hf.h_ideal(k)

    # permutation equivariance on 50 seeded (type, multiplicity, permutation)
    # triples whose permuted classes stay in the candidate pool
    from sixpoints.typeenum import candidate_pool
    pool = set(candidate_pool())
    done = 0
    while done < 50:
        t = rng.choice(types)
        sigma = tuple(rng.sample(range(1, 7), 6))
        image = [permute_points(c, sigma) for c in t.classes]
        if not all(c in pool for c in image):
            continue
        mults = tuple(rng.randint(0, 3) for _ in range(6))
        moved = [0] * 6
        for i in range(6):
            moved[sigma[i] - 1] = mults[i]
        assert hilbert_function(t.classes, mults) == hilbert_function(image, moved)
        assert minimal_resolution(t.classes, mults) == minimal_resolution(image, moved)
        done += 1

    # order independence of the section count under 20 shuffles per case
    for _ in range(10):
        t = rng.choice(types)
        N = t.neg_set()
        F = _random_class(rng)
        base = (h0(F, N), reduce_to_nef(F, N).effective)
        for _ in range(20):
            order = list(N.NEG)
            rng.shuffle(order)
            shuffled = NegCurveSet(neg=N.neg, NEG=tuple(order))
            assert (h0(F, shuffled), reduce_to_nef(F, shuffled).effective) == base

    _report("criterion 7: PASS - duality, rank and dimension identities, "
            "permutation equivariance (50 triples), and reduction order "
            "independence (20 shuffles per case) all hold")


def _random_class(rng):
    from sixpoints import DivisorClass
    t = rng.randint(0, 10)
    return DivisorClass(t, tuple(-rng.randint(-2, max(0, t)) for _ in range(6)))
