"""A census of the package's self-checks: every ``raise ConsistencyError``
in ``src/sixpoints`` and every check that ``verify.run_invariant_suite``
runs is tripped by a named mutant, or it is deleted.

An ``ast`` scan lists the sites, each keyed by module, enclosing function
and message template (the message with each formatted part read as
``{}``), and the checks by name.  ``SITES`` maps each site to the mutant
that trips it, and ``CHECKS`` maps each check to a mutant that it alone
fails.  A mutant patches one library function or constant where the
library reads it, or serves a corrupted catalog through
``typeenum.table1_text``.  It then makes its public calls and returns
what they reported: the message of each ``ConsistencyError`` raised and
the detail of each failed check.  A site passes when one of those messages
matches its template; a check passes when it is the only one that failed.
The scan fails on a site or a check with no entry, and on an entry whose
site is gone, so a new check must come with its mutant.
"""

import ast
import re
from pathlib import Path

import pytest

import sixpoints
from sixpoints import (
    ConsistencyError,
    DivisorClass,
    K,
    NegCurveSet,
    analyze,
    candidate_pool,
    classify,
    curves,
    e,
    enumerate_types,
    fatpoints,
    h0,
    h1,
    intersect,
    parse_negset,
    run_invariant_suite,
    type_by_id,
    typeenum,
    verify,
)
from sixpoints.curves import AMPLE_CLASS, _pool_indices

PACKAGE = Path(sixpoints.__file__).parent


def _template(node) -> str:
    if isinstance(node, ast.Constant):
        return str(node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(_template(v) if isinstance(v, ast.Constant) else "{}" for v in node.values)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _template(node.left) + _template(node.right)
    return "{}"


def _entries(node, fn=None):
    """("site", "module.function: template") for each ``raise
    ConsistencyError`` under node, in its innermost function, and ("check",
    name) for each check passed to ``verify._check``."""
    fn = node.name if isinstance(node, ast.FunctionDef) else fn
    if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "ConsistencyError"):
        yield "site", f"{fn}: {_template(node.exc.args[0])}"
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_check":
        yield "check", node.args[0].value
    for child in ast.iter_child_nodes(node):
        yield from _entries(child, fn)


def _scan():
    """The ``ConsistencyError`` sites of the package and the names of the
    checks ``run_invariant_suite`` runs, in source order."""
    found = {"site": [], "check": []}
    for path in sorted(PACKAGE.glob("*.py")):
        for kind, key in _entries(ast.parse(path.read_text(encoding="utf-8"))):
            found[kind].append(f"{path.stem}.{key}" if kind == "site" else key)
    return found["site"], found["check"]


# ---------------------------------------------------------------------------
# public calls, and what they report


def _raised(call, *args):
    """{call: message} of the ConsistencyError that the call raises."""
    with pytest.raises(ConsistencyError) as info:
        call(*args)
    return {call.__name__: str(info.value)}


def _failed_checks():
    """{check name: detail} of each failed check of a small suite run."""
    report = run_invariant_suite(seed=0, samples_per_type=2)
    return {c.name: c.detail for c in report.checks if not c.passed}


def _rows():
    return typeenum.table1_text().splitlines(keepends=True)


# ---------------------------------------------------------------------------
# the mutants: each takes a monkeypatch and the serve_catalog fixture


def zeroed_gram_rows(mp, serve):
    """The lane tables serve Gram rows of zeros, so a peel never moves the
    pairings: E1 on type 2 peels E1 - E2 forever."""
    N = type_by_id(2).neg_set()
    real = curves._packing
    mp.setattr(curves, "_packing",
               lambda N, W: (lambda high, rows, cols: (high, (0,) * len(rows), cols))(*real(N, W)))
    return _raised(h0, e(1), N)


def peel_never_nef(mp, serve):
    """A peel that leaves every class at a negative degree: h^0 = 0, so h^1
    comes out negative."""
    N = type_by_id(1).neg_set()

    def never_nef(D, p, N, W, subs=None):
        D[0] = -1
        return p, 0

    mp.setattr(curves, "_peel", never_nef)
    return _raised(h1, DivisorClass(1, (0,) * 6), N)


def _analyze_broken_scheme():
    # F0 = R[-6] + R[-8]^3 + R[-9]^3 and h_I = 1, 3, 9 from degree 6
    return _raised(analyze, type_by_id(86).classes, (3,) * 6, True)


def hilbert_raised_in_degree_1(mp, serve):
    """h_I(1) read 3 too high, which drops h_Z(1) below h_Z(0)."""
    real = fatpoints._hilbert
    mp.setattr(fatpoints, "_hilbert", lambda deg_z, h: real(deg_z, [h[0], h[1] + 3, *h[2:]]))
    return _analyze_broken_scheme()


def last_degree_zeroed(mp, serve):
    """h_I zeroed in the last listed degree, above a degree with sections."""
    real = fatpoints._generators
    mp.setattr(fatpoints, "_generators", lambda h, *rest: real([*h[:-1], 0], *rest))
    return _analyze_broken_scheme()


def first_generator_dropped(mp, serve):
    """F0 without its generator in the initial degree."""
    real = fatpoints._resolution
    mp.setattr(fatpoints, "_resolution", lambda hf, h, f0, *rest: real(hf, h, f0[1:], *rest))
    return _analyze_broken_scheme()


def spurious_generators(mp, serve):
    """One more generator, and so one more syzygy, in every degree t with
    h_I(t - 1) > 0: the resolution stays consistent."""
    real = fatpoints._generators

    def mutant(h, nef_deg, alpha):
        gens = dict(real(h, nef_deg, alpha))
        for t in range(1, len(h)):
            if h[t - 1] > 0:
                gens[t] = gens.get(t, 0) + 1
        return tuple(sorted(gens.items()))

    mp.setattr(fatpoints, "_generators", mutant)
    return _failed_checks()


def wrong_label_row(mp, serve):
    """Row 5 labelled A_2a, where its classes make 2A_1."""
    rows = _rows()
    rows[5] = rows[5].replace("\t2A_1a\t", "\tA_2a\t")
    serve(rows)
    return _raised(type_by_id, 5)


def wrong_torsion_row(mp, serve):
    """Row 5 with torsion Z2, where its classes give none."""
    rows = _rows()
    rows[5] = rows[5].replace("\t0\n", "\tZ2\n")
    serve(rows)
    return _raised(type_by_id, 5)


def row_on_another_orbit(mp, serve):
    """Row 2 moved onto row 3's orbit, an undeclared duplicate."""
    rows = _rows()
    rows[2] = "2\tA_1a\t1: ABC\t0\n"
    serve(rows)
    return _raised(enumerate_types)


def rows_swapped(mp, serve):
    """Rows 5 and 6 in each other's place."""
    rows = _rows()
    rows[5], rows[6] = rows[6], rows[5]
    serve(rows)
    return {**_raised(enumerate_types), **_raised(type_by_id, 5)}


def catalog_without_last_row(mp, serve):
    """The catalog without row 90, the only E_6: its orbit is left uncovered,
    and its classes classify as no type."""
    rows = _rows()
    classes = parse_negset(rows[-1].split("\t")[2])
    serve(rows[:-1])
    return {**_failed_checks(), **_raised(classify, classes)}


def pairing_off_kperp(mp, serve):
    """The pairing verify reads, plus (a.K)(b.K): unchanged where either
    class lies in K-perp, as every pool class does, but L.L = 10."""
    real = verify.intersect
    mp.setattr(verify, "intersect", lambda a, b: real(a, b) + real(a, K) * real(b, K))
    return _failed_checks()


def pool_short_of_one(mp, serve):
    """The candidate pool without the conic class."""
    mp.setattr(verify, "candidate_pool", lambda: candidate_pool()[:-1])
    return _failed_checks()


def pool_with_a_minus_one_class(mp, serve):
    """The candidate pool with E1 for the conic class."""
    mp.setattr(verify, "candidate_pool", lambda: candidate_pool()[:-1] + (e(1),))
    return _failed_checks()


def pool_off_kperp(mp, serve):
    """The candidate pool with E1 + E2, of square -2, for the conic class."""
    mp.setattr(verify, "candidate_pool", lambda: candidate_pool()[:-1] + (e(1) + e(2),))
    return _failed_checks()


def no_types(mp, serve):
    """enumerate_types returns no types."""
    mp.setattr(verify, "enumerate_types", lambda: ())
    return _failed_checks()


def lost_line(mp, serve):
    """The general configuration's curve list without its last -1 curve,
    the conic through p2..p6."""
    real = curves._full_neg

    def dropping_a_line(idxs):
        N = real(idxs)
        return NegCurveSet(N.neg, N.NEG[:-1]) if not idxs else N

    mp.setattr(curves, "_full_neg", dropping_a_line)
    return _failed_checks()


def orbit_not_enumerated(mp, serve):
    """The orbit enumeration without the orbit of type 2."""
    real, missed = typeenum._enumerate_orbits, _pool_indices(type_by_id(2).classes)
    mp.setattr(typeenum, "_enumerate_orbits", lambda: [o for o in real() if o != missed])
    return _failed_checks()


def spurious_graph(mp, serve):
    """A line count for A_6, a graph no type has."""
    mp.setitem(verify.LINES_PER_GRAPH, "A_6", 0)
    return _failed_checks()


def ample_class_of_degree_15(mp, serve):
    """AMPLE_CLASS one degree lower, where it meets L - E1 - E2 - E3 in 0."""
    low = DivisorClass(15, AMPLE_CLASS.m)
    mp.setattr(curves, "AMPLE_CLASS", low)
    mp.setattr(verify, "AMPLE_CLASS", low)
    return _failed_checks()


def peel_ends_two_degrees_high(mp, serve):
    """A peel whose nef part ends two degrees too high, so it overcounts
    the sections of each peeled class while h^1 stays >= 0."""
    real = curves._peel

    def raised(D, p, N, W, subs=None):
        out = real(D, p, N, W, subs)
        if D[0] >= 0:
            D[0] += 2
        return out

    mp.setattr(curves, "_peel", raised)
    return _failed_checks()


def nothing_sampled(mp, serve):
    """sample_nef returns no classes."""
    mp.setattr(verify, "sample_nef", lambda N, count, seed: ())
    return _failed_checks()


def strict_nef(mp, serve):
    """is_nef with a strict inequality, so a class meeting a curve in 0 is
    not nef."""
    mp.setattr(verify, "is_nef", lambda F, N: all(intersect(F, C) > 0 for C in N.NEG))
    return _failed_checks()


def _mu_stats_with(mp, **fields):
    real = curves.mu_stats
    mp.setattr(curves, "mu_stats", lambda F, N, index=1: real(F, N, index)._replace(**fields))
    return _failed_checks()


def l_zeroed(mp, serve):
    """mu_stats reporting l = 0."""
    return _mu_stats_with(mp, l=0)


def lstar_zeroed(mp, serve):
    """mu_stats reporting l* = 0."""
    return _mu_stats_with(mp, lstar=0)


def qstar_raised(mp, serve):
    """mu_stats reporting q* = 1."""
    return _mu_stats_with(mp, qstar=1)


# ---------------------------------------------------------------------------
# the table


SITES = {
    "curves._peel: reduction of {} exceeded {} steps; negative-curve set is broken":
        zeroed_gram_rows,
    "curves._check_h1: negative h^1 = {} for {}; h^0 computation is broken": peel_never_nef,
    "fatpoints._hilbert: quotient Hilbert function is not monotone to the degree":
        hilbert_raised_in_degree_1,
    "fatpoints._generators: negative generator count {} in degree {}": last_degree_zeroed,
    "fatpoints._resolution: free module dimensions disagree in degree {} (defect {})":
        first_generator_dropped,
    "fatpoints.table2: type {} matches no known uniform multiplicity pattern: {}":
        spurious_generators,
    "typeenum._build_type: type {}: computed graph {} does not match label {}": wrong_label_row,
    "typeenum._build_type: type {}: computed torsion {} does not match catalog {}":
        wrong_torsion_row,
    "typeenum.build_types: catalog rows sharing an orbit: {}; expected exactly {}":
        row_on_another_orbit,
    "typeenum.build_types: catalog ids are not consecutive from 1": rows_swapped,
    "typeenum.type_by_id: catalog row {} has id {}": rows_swapped,
    "typeenum.classify: canonical set missing from the enumerated types": catalog_without_last_row,
    "verify._lattice_signature: pairing of basis {},{} is {}": pairing_off_kperp,
    "verify._pool_shape: pool has {} classes": pool_short_of_one,
    "verify._pool_shape: {} has square {}": pool_with_a_minus_one_class,
    "verify._pool_shape: {} not orthogonal to K": pool_off_kperp,
    "verify._types: the catalog has no types, so there is nothing to check": no_types,
    "verify._lines_per_graph: type {} ({}) has {} -1 curves, not {}": lost_line,
    "verify._type_count: enumeration found {} orbit(s) missing from the catalog, e.g. {}":
        catalog_without_last_row,
    "verify._type_count: catalog rows {} match no enumerated orbit": orbit_not_enumerated,
    "verify._graph_census: unexpected graphs {}, missing {}": spurious_graph,
    "verify._ample_positivity: {} meets {} nonpositively": ample_class_of_degree_15,
    "verify._mu_consistency: {} (type {})": peel_ends_two_degrees_high,
    "verify._mu_consistency: no nef class was sampled, so no rank bound was checked":
        nothing_sampled,
    "verify._special_class_checks: 5L - 2(E1+...+E6) should be nef here": strict_nef,
    "verify._special_class_checks: l({}F) should be positive": l_zeroed,
    "verify._special_class_checks: l*({}F) should be positive": lstar_zeroed,
    "verify._special_class_checks: q* + l* should vanish for the surjectivity witness":
        qstar_raised,
}

# each check, and a mutant that it fails and no other check does
CHECKS = {
    "lattice signature": pairing_off_kperp,
    "candidate pool": pool_short_of_one,
    "lines per graph": lost_line,
    "type count": orbit_not_enumerated,
    "graph census": spurious_graph,
    "reduction potential positivity": ample_class_of_degree_15,
    "fat point schemes": spurious_generators,
    "multiplication rank bounds": peel_ends_two_degrees_high,
    "special classes": strict_nef,
}

MUTANTS = sorted({*SITES.values(), *CHECKS.values()}, key=lambda m: m.__name__)


def test_every_site_and_every_check_has_exactly_one_entry():
    sites, checks = _scan()
    assert len(set(sites)) == len(sites), "two sites share a key: give one a distinct message"
    assert sorted(sites) == sorted(SITES)
    assert checks == list(CHECKS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.__name__)
def test_the_mutant_trips_its_sites(mutant, monkeypatch, serve_catalog):
    reported = mutant(monkeypatch, serve_catalog)
    for site in (s for s, m in SITES.items() if m is mutant):
        pattern = re.escape(site.split(": ", 1)[1]).replace(re.escape("{}"), ".*")
        assert any(re.fullmatch(pattern, msg, re.DOTALL) for msg in reported.values()), (
            site, reported)
    for check in (c for c, m in CHECKS.items() if m is mutant):
        assert set(reported) == {check}, reported
