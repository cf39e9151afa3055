import functools
import itertools
import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sixpoints import (
    ConsistencyError,
    DivisorClass,
    L,
    ValidationError,
    candidate_pool,
    classify,
    dynkin_graph,
    e,
    enumerate_types,
    intersect,
    parse_negset,
    permute_points,
    smith_invariant_factors,
    torsion,
    type_by_id,
)
from sixpoints import typeenum
from sixpoints.curves import _pool_indices
from sixpoints.typeenum import (
    DUPLICATE_CATALOG_ROWS,
    TableRow,
    build_types,
    orbit_gaps,
    table_rows,
)


def test_pool_order():
    pool = candidate_pool()
    assert len(pool) == 36
    assert pool[0] == e(1) - e(2)
    assert pool[14] == e(5) - e(6)
    assert pool[15] == DivisorClass(1, (-1, -1, -1, 0, 0, 0))
    assert pool[35] == DivisorClass(2, (-1, -1, -1, -1, -1, -1))


@functools.lru_cache(maxsize=1)
def _block_offset_perm_table():
    """The relabelling table worked out from the pool's block layout (15
    pairs, 20 triples, the conic), kept as a reference for _perm_lanes: for
    each permutation, where each pool class goes, -1 where it leaves the pool."""
    pairs = list(itertools.combinations(range(1, 7), 2))
    triples = list(itertools.combinations(range(1, 7), 3))
    table = []
    for sigma in itertools.permutations(range(1, 7)):
        row = [0] * 36
        for k, (i, j) in enumerate(pairs):
            a, b = sigma[i - 1], sigma[j - 1]
            row[k] = pairs.index((a, b)) if a < b else -1
        for k, t in enumerate(triples):
            img = tuple(sorted(sigma[p - 1] for p in t))
            row[15 + k] = 15 + triples.index(img)
        row[35] = 35
        table.append((sigma, tuple(row)))
    return table


def _reference_canonical(idxs):
    """The 720-permutation loop the lane kernel replaced: the smallest sorted
    image over the permutations that keep every class in the pool, and the
    first permutation that reaches it."""
    best = witness = None
    for sigma, row in _block_offset_perm_table():
        mapped = [row[i] for i in idxs]
        if -1 in mapped:
            continue
        t = tuple(sorted(mapped))
        if best is None or t < best:
            best, witness = t, sigma
    return best, witness


def test_perm_lanes_match_the_block_layout():
    sigmas, columns = typeenum._perm_lanes()
    reference = _block_offset_perm_table()
    assert len(sigmas) == len(reference) == 720 and len(columns) == 36
    for k, (sigma, row) in enumerate(reference):
        decoded = []
        for column in columns:
            lane = column >> 64 * k & (2**64 - 1)
            mask = lane - 2**36
            assert lane == 0 or (mask > 0 and mask & (mask - 1) == 0)
            decoded.append(-1 if lane == 0 else 36 - mask.bit_length())
        assert (sigmas[k], tuple(decoded)) == (sigma, row)
    assert all(column >> 64 * 720 == 0 for column in columns)


def test_canonical_indices_match_the_loop_on_every_orbit():
    for canon in typeenum._enumerate_orbits():
        assert typeenum._canonical_indices(canon) == _reference_canonical(canon)


def test_canonical_indices_match_the_loop_on_relabelled_rows():
    rng = random.Random(0)
    table = _block_offset_perm_table()
    for row in table_rows():
        idxs = _pool_indices(parse_negset(row.neg))
        for _, image in rng.sample(table, 12):
            relabelled = tuple(image[i] for i in idxs)
            if -1 not in relabelled:
                assert typeenum._canonical_indices(relabelled) == _reference_canonical(relabelled)


def _grow_neg_set(picks):
    """The pool indices in picks, in order, each kept when it meets every one
    kept before it nonnegatively: a pairwise-nonnegative subset of the pool."""
    pool = candidate_pool()
    kept = []
    for i in picks:
        if i not in kept and all(intersect(pool[i], pool[j]) >= 0 for j in kept):
            kept.append(i)
    return tuple(kept)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 35), max_size=12))
@example([])
@example([0, 5, 12, 14, 15, 34])  # the six-class rows 85..90
@example([0, 9, 14, 15, 24, 31])
@example([0, 5, 12, 14, 15, 22])
@example([0, 5, 11, 12, 15, 22])
@example([0, 5, 9, 12, 14, 35])
@example([0, 5, 9, 12, 14, 15])
def test_canonical_indices_match_the_loop_on_grown_sets(picks):
    idxs = _grow_neg_set(picks)
    assert typeenum._canonical_indices(idxs) == _reference_canonical(idxs)


def test_six_class_examples_are_the_six_class_rows():
    rows = [_pool_indices(parse_negset(r.neg)) for r in table_rows()]
    six = [idxs for idxs in rows if len(idxs) == 6]
    assert six == [(0, 5, 12, 14, 15, 34), (0, 9, 14, 15, 24, 31), (0, 5, 12, 14, 15, 22),
                   (0, 5, 11, 12, 15, 22), (0, 5, 9, 12, 14, 35), (0, 5, 9, 12, 14, 15)]
    assert all(_grow_neg_set(idxs) == idxs for idxs in six)  # growth keeps every class


def test_classify_identifies_equivalent_pairs():
    a, _ = classify([e(1) - e(3), e(2) - e(4)])
    b, _ = classify([e(1) - e(2), e(3) - e(4)])
    assert a == b


def test_classify_trivial():
    assert classify([])[0].classes == ()
    for i, j in itertools.combinations(range(1, 7), 2):
        t, _ = classify([e(i) - e(j)])
        assert t.classes == (e(1) - e(2),)


def test_classify_witness_and_idempotence():
    # canonical classes classify to themselves, with a witness that fixes them
    for t in enumerate_types():
        again, sigma = classify(t.classes)
        assert again.classes == t.classes
        assert {permute_points(c, sigma) for c in t.classes} == set(t.classes)


perms = st.permutations(list(range(1, 7)))


@settings(max_examples=50, deadline=None)
@given(st.sets(st.sampled_from(candidate_pool()), max_size=4), perms)
def test_classify_is_orbit_invariant(subset, sigma):
    classes = sorted(subset)
    image = [permute_points(c, tuple(sigma)) for c in classes]
    try:
        t, _ = classify(classes)
        t_image, _ = classify(image)
    except ValidationError:
        assume(False)  # not a neg set, or relabelled out of the candidates
    assert t_image == t


@pytest.mark.parametrize("bad", [True, False, "3", 3.0, None])
def test_type_by_id_rejects_non_ints(bad):
    with pytest.raises(ValidationError, match="type id must be an int"):
        type_by_id(bad)


def test_smith_invariant_factors():
    assert smith_invariant_factors([]) == ()
    assert smith_invariant_factors([[0, 0], [0, 0]]) == ()
    assert smith_invariant_factors([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (1, 1, 1)
    assert smith_invariant_factors([[2, 0], [0, 3]]) == (1, 6)
    assert smith_invariant_factors([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == (2, 2, 156)


def test_integer_rank():
    # the rank over the integers is the number of invariant factors
    assert len(smith_invariant_factors([[1, 2], [2, 4]])) == 1
    assert len(smith_invariant_factors(candidate_pool())) == 6


def test_torsion_examples():
    assert torsion(parse_negset("0: BC, DE; 1: ABC, ADE")).invariant_factors == (2,)
    assert torsion(parse_negset("0: AB, BC, DE, EF; 1: ABC, DEF")).invariant_factors == (3,)
    assert torsion([e(1) - e(2)]).invariant_factors == ()


def test_torsion_rejects_classes_off_kperp():
    with pytest.raises(ValidationError):
        torsion([e(1)])


_KPERP_BASIS = (*(e(i) - e(i + 1) for i in range(1, 6)), L - e(1) - e(2) - e(3))


def _kperp_coordinates(c):
    """Coordinates of a class orthogonal to K in the basis _KPERP_BASIS."""
    resid = [c[i + 1] + (c.d if i < 3 else 0) for i in range(6)]
    return (*itertools.accumulate(resid[:5]), c.d)


def test_torsion_agrees_with_kperp_coordinates():
    # the Smith factors of the classes' own coefficients and of their
    # coordinates in a basis of K-perp agree whole, 1s included, on the
    # catalog, on every enumerated orbit and on seeded K-perp matrices
    assert [_kperp_coordinates(b) for b in _KPERP_BASIS] == [
        tuple(int(i == j) for j in range(6)) for i in range(6)]
    pool = candidate_pool()
    sets = [t.classes for t in enumerate_types()]
    sets += [tuple(pool[i] for i in canon) for canon in typeenum._enumerate_orbits()]
    rng = random.Random(33)
    for _ in range(400):
        rows = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(rng.randint(1, 7))]
        sets.append(tuple(
            DivisorClass(v[0], tuple(v[1:]))
            for v in ([sum(u * b[j] for u, b in zip(row, _KPERP_BASIS)) for j in range(7)]
                      for row in rows)))
    for classes in sets:
        want = smith_invariant_factors([_kperp_coordinates(c) for c in classes])
        assert smith_invariant_factors(classes) == want, classes
        assert torsion(classes).invariant_factors == tuple(f for f in want if f > 1)


def test_dynkin_examples():
    assert dynkin_graph(parse_negset("0: AB, BC")).name == "A_2"
    assert dynkin_graph(parse_negset("0: AB, BC, CD, DE, EF; 1: ABC")).name == "E_6"
    assert dynkin_graph(parse_negset("0: BC, CD, DE; 1: ABC")).name == "D_4"
    assert dynkin_graph(parse_negset("0: AB, BC, CD, DE; 1: ABC")).name == "D_5"
    assert dynkin_graph([]).name == ""
    assert dynkin_graph(parse_negset("0: AB, BC, DE, EF; 1: ABC")).name == "A_12A_2"


def test_distinct_pool_classes_that_meet_nonnegatively_meet_in_0_or_1():
    # the fact dynkin_graph rests on to read a neg set's pairings as edges
    pairings = {intersect(a, b) for a, b in itertools.combinations(candidate_pool(), 2)}
    assert {w for w in pairings if w >= 0} == {0, 1}
    assert not {-c for c in candidate_pool()} & set(candidate_pool())


def _leg_walk_label(vertices, adj):
    """ADE name of a component by walking the legs from its branch vertex:
    an independent reference for ``typeenum._component_label``."""
    k = len(vertices)
    deg = {v: sum(adj[v][w] for w in vertices if w != v) for v in vertices}
    if sum(deg.values()) // 2 != k - 1:
        raise ConsistencyError("intersection graph component is not a tree")
    branch = [v for v in vertices if deg[v] > 2]
    if not branch:
        if k > 5:
            raise ConsistencyError(f"path component of length {k} is not an allowed diagram")
        return f"A_{k}"
    if len(branch) == 1 and deg[branch[0]] == 3:
        b = branch[0]
        legs = []
        for start in (w for w in vertices if adj[b][w]):
            length, prev, cur = 1, b, start
            while True:
                nxt = [w for w in vertices if adj[cur][w] and w != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                length += 1
            legs.append(length)
        shape = {(1, 1, 1): "D_4", (1, 1, 2): "D_5", (1, 2, 2): "E_6"}.get(tuple(sorted(legs)))
        if shape:
            return shape
    raise ConsistencyError("intersection graph component is not an allowed ADE diagram")


def _labelled_graphs():
    """Every labelled tree on 1..7 vertices, by Prufer sequence, and the
    cycles on 3..7 vertices, as edge lists on range(n)."""
    yield 1, []
    for n in range(2, 8):
        for seq in itertools.product(range(n), repeat=n - 2):
            degree = [1] * n
            for v in seq:
                degree[v] += 1
            edges = []
            for v in seq:
                leaf = degree.index(1)
                edges.append((leaf, v))
                degree[leaf] -= 1
                degree[v] -= 1
            edges.append(tuple(u for u in range(n) if degree[u] == 1))
            yield n, edges
    for n in range(3, 8):
        yield n, [(i, (i + 1) % n) for i in range(n)]


def test_component_label_agrees_with_the_leg_walk():
    def outcome(label, vertices, adj):
        try:
            return label(vertices, adj)
        except ConsistencyError as exc:
            return f"error: {exc}"

    seen = Counter()
    for n, edges in _labelled_graphs():
        adj = [[0] * n for _ in range(n)]
        for u, v in edges:
            adj[u][v] = adj[v][u] = 1
        vertices = list(range(n))
        want = outcome(_leg_walk_label, vertices, adj)
        assert outcome(typeenum._component_label, vertices, adj) == want, edges
        seen[want] += 1
    assert sum(seen.values()) == 1 + sum(n ** (n - 2) for n in range(2, 8)) + 5
    assert {"D_4", "D_5", "E_6", "A_5"} <= set(seen) and len(seen) == 12, seen


def test_enumeration_counts():
    types = enumerate_types()
    assert len(types) == 90
    assert [t.id for t in types] == list(range(1, 91))
    assert len({t.classes for t in types}) == 89
    singletons = [t.id for t in types if len(t.classes) == 1]
    assert singletons == [2, 3, 4]
    assert max(len(t.classes) for t in types) == 6
    labels = [t.label for t in types]
    assert len(set(labels)) == 90


def test_catalog_rows_round_trip_through_letters():
    from sixpoints import format_negset

    for row in table_rows():
        classes = parse_negset(row.neg)
        assert format_negset(classes) == row.neg


def test_every_type_is_linearly_independent():
    # build_types does not check this: its graph check admits only ADE trees
    # of square -2 classes, whose Gram matrix (minus a Cartan matrix) is
    # negative definite; pinned on the catalog and on every enumerated orbit
    pool = candidate_pool()
    sets = [t.classes for t in enumerate_types()]
    sets += [tuple(pool[i] for i in canon) for canon in typeenum._enumerate_orbits()]
    for classes in sets:
        assert len(smith_invariant_factors(classes)) == len(classes)


def test_edge_weights_are_simple():
    from sixpoints import intersect

    for t in enumerate_types():
        for a, b in itertools.combinations(t.classes, 2):
            assert intersect(a, b) in (0, 1)


def test_graph_determines_torsion():
    by_graph = {}
    for t in enumerate_types():
        by_graph.setdefault(t.graph.name, set()).add(t.torsion.invariant_factors)
    assert all(len(v) == 1 for v in by_graph.values())


def test_classify_examples():
    t, _ = classify(parse_negset("0: AB, CD; 2: ABCDEF"))
    assert (t.id, t.label) == (16, "3A_1d")
    t, _ = classify([])
    assert t.id == 1
    t, _ = classify([e(1) - e(2)])
    assert (t.id, t.label) == (2, "A_1a")


def test_classify_witness_maps_input_to_canonical():
    classes = parse_negset("0: DE; 1: ABC")
    t, sigma = classify(classes)
    assert t.id == 7
    assert {permute_points(c, sigma) for c in classes} == set(t.classes)


def test_classify_resolves_duplicate_rows_to_smaller_id():
    # rows 67 and 71 of the published catalog are the same configuration
    r67 = type_by_id(67)
    r71 = type_by_id(71)
    assert r67.classes == r71.classes
    t, _ = classify(parse_negset(r71.neg_label))
    assert t.id == 67


def test_classify_errors():
    with pytest.raises(ValidationError, match="candidate"):
        classify([e(1)])
    with pytest.raises(ValidationError, match="negatively"):
        classify([e(1) - e(2), e(1) - e(3)])
    # dynkin_graph takes a neg set too, under the same rule
    for bad, fragment in ((["x"], "candidate"), ([L, L], "candidate"),
                          ([e(1) - e(2)] * 2, "duplicate"),
                          ([e(1) - e(2), e(1) - e(3)], "negatively")):
        with pytest.raises(ValidationError, match=fragment):
            dynkin_graph(bad)


def test_labels_agree_with_graphs():
    for t in enumerate_types():
        if t.id == 1:
            assert t.graph.name == ""
            continue
        expected = t.label[:-1] if t.label[-1].islower() else t.label
        assert t.graph.name == expected


def test_twenty_graphs():
    names = {t.graph.name for t in enumerate_types() if t.graph.name}
    assert len(names) == 20


def test_build_types_rejects_corrupted_catalog():
    rows = list(table_rows())
    # moving row 2 onto row 3's orbit creates an undeclared duplicate
    bad = rows.copy()
    bad[1] = TableRow(2, "A_1a", "1: ABC", "0")
    with pytest.raises(ConsistencyError):
        build_types(bad)
    # torsion disagreeing with the computed group
    bad = rows.copy()
    bad[4] = TableRow(5, "2A_1a", "0: AB, CD", "Z2")
    with pytest.raises(ConsistencyError):
        build_types(bad)


def test_build_types_does_not_enumerate(monkeypatch):
    def refuse():
        raise AssertionError("build_types ran the orbit enumeration")

    monkeypatch.setattr(typeenum, "_enumerate_orbits", refuse)
    types = build_types(table_rows())
    assert [t.id for t in types] == list(range(1, 91))
    assert types == enumerate_types()


def _clear_type_caches():
    for cached in (typeenum._build_type, typeenum.enumerate_types, typeenum._types_by_canon):
        cached.cache_clear()


def test_type_by_id_builds_only_its_own_row(monkeypatch):
    calls = []
    real = typeenum.dynkin_graph
    monkeypatch.setattr(typeenum, "dynkin_graph", lambda classes: calls.append(classes) or real(classes))
    _clear_type_caches()
    t = type_by_id(61)
    assert calls == [t.classes]
    assert type_by_id(61) is t
    assert len(calls) == 1


@pytest.mark.parametrize("enumerate_first", [False, True])
def test_type_by_id_is_the_enumerated_type(enumerate_first):
    _clear_type_caches()
    types = enumerate_types() if enumerate_first else None
    singles = [type_by_id(n) for n in range(1, 91)]
    types = types or enumerate_types()
    assert len(types) == 90
    assert all(a is b for a, b in zip(singles, types))


def test_a_row_out_of_place_is_a_consistency_error(monkeypatch):
    # rows 5 and 6 swapped: the id of the row at position 5 is 6
    rows = list(table_rows())
    rows[4], rows[5] = rows[5], rows[4]
    monkeypatch.setattr(typeenum, "table_rows", lambda: tuple(rows))
    with pytest.raises(ConsistencyError, match="catalog row 5 has id 6"):
        type_by_id(5)
    assert type_by_id(7).id == 7
    with pytest.raises(ConsistencyError, match="not consecutive"):
        build_types(rows)


def test_orbit_gaps_reports_a_missing_row():
    # without its last row the catalog still builds, but the orbit check
    # finds the orbit of row 90 uncovered
    types = build_types(table_rows()[:-1])
    assert [t.id for t in types] == list(range(1, 90))
    assert orbit_gaps(types) == ((type_by_id(90).classes,), ())


def test_orbit_gaps_reports_a_stray_type():
    # a type whose classes are not canonical is no enumerated orbit, and the
    # orbit it should have stood for is left uncovered
    types = list(enumerate_types())
    types[1] = types[1]._replace(classes=(e(2) - e(3),))
    assert orbit_gaps(types) == ((type_by_id(2).classes,), (2,))


def test_duplicate_rows_constant_matches_catalog():
    assert DUPLICATE_CATALOG_ROWS == (frozenset({67, 71}),)
