"""Classification of the 90 configuration types.

A configuration type records which degenerate positions six (possibly
infinitely near) points occupy: a neg set, that is a pairwise-nonnegative set
of the 36 candidate classes of ``curves.candidate_pool`` (15 differences
E_i - E_j, 20 three-point line classes, one six-point conic class), taken up
to relabelling of the points.  ``_build_type`` builds a type from one row of
the shipped, human-audited table that fixes ids and labels, as the canonical
representative of the row's relabelling orbit, with its intersection graph
(an ADE diagram, since the classes are independent) and the torsion of the
quotient of the orthogonal complement of the canonical class by its span,
read off the classes' own coefficients (see ``torsion``), both checked
against the row.
``type_by_id`` builds its own row only; ``enumerate_types`` (and so
``classify``) builds every row and checks across them, in ``build_types``,
that the ids run 1..n and only DUPLICATE_CATALOG_ROWS share an orbit.  That
the rows cover every orbit is proved apart, by ``verify``: see ``orbit_gaps``.
The table is read through the package's own loader, so it loads from a zip
archive as from a directory (``table1_text``).

A set is canonicalized under all 720 relabellings at once: each pool class
has a 64-bit lane per permutation, 2^36 + 2^(35 - v) if it goes to pool
index v and 0 if it leaves the pool, so a set's summed lanes hold the count
of its classes kept above the mask of their images.  The max lane has the
full count and, among those, the largest mask, which is the smallest sorted
tuple; its first index is the first permutation, in ``itertools``' order,
that reaches it (``_perm_lanes``, ``_canonical_indices``).
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from array import array
from collections import Counter
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .curves import (
    NegCurveSet,
    _check_class,
    _neg_indices,
    _pool_indices,
    candidate_pool,
    full_neg,
)
from .errors import ConsistencyError, ValidationError
from .lattice import DivisorClass, K, N_POINTS, _intersect
from .notation import parse_negset


@lru_cache(maxsize=1)
def _perm_lanes() -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The permutations of the point labels, in ``itertools.permutations``
    order (which fixes the witness ``classify`` reports), and for each pool
    class an integer with one 64-bit lane per permutation: 2^36 + 2^(35 - v)
    when the permutation sends the class to pool index v, 0 when its image
    leaves the pool (a difference E_j - E_i with j > i).

    Built from bytes, not from a lookup per class and permutation: in its
    byte for each permutation sigma, the class dL + sum m_p E_p gets the name
    64d + 32 - sum m_p 2^(sigma(p) - 1) of its image, which is 1..63 for a
    difference (above 32 exactly when it stays in the pool), 96 plus its
    three point bits for a line and 223 for the conic.  The identity comes
    first, so byte 0 of a class's names is the name of the class itself.
    """
    sigmas = tuple(itertools.permutations(range(1, N_POINTS + 1)))
    n = len(sigmas)
    flat = bytes(itertools.chain.from_iterable(sigmas))
    to_bit = bytes.maketrans(bytes(range(1, N_POINTS + 1)), bytes(1 << q for q in range(N_POINTS)))
    # 2^(sigma(p) - 1) in the byte of each sigma; each name fits its byte, so none borrows
    bits = [int.from_bytes(flat[p::N_POINTS].translate(to_bit), "little") for p in range(N_POINTS)]
    ones = int.from_bytes(b"\1" * n, "little")
    names = [((64 * c[0] + 32) * ones - sum(m * b for m, b in zip(c[1:], bits))).to_bytes(n, "little")
             for c in candidate_pool()]
    lane = [bytes(8)] * 256
    for v, name in enumerate(names):
        lane[name[0]] = (2**36 + 2**(35 - v)).to_bytes(8, "little")
    return sigmas, tuple(int.from_bytes(b"".join(map(lane.__getitem__, name)), "little")
                         for name in names)


def _canonical_indices(idxs: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lexicographically smallest relabelled image of a pool-index set, among
    permutations keeping every class in the pool (the identity does), with
    the first permutation in ``itertools.permutations`` order that reaches it.

    Each lane of the summed ``_perm_lanes`` columns is 2^36 times the count
    of classes kept plus the mask of their images (distinct classes have
    distinct images: no carry).  The max lane has the full count len(idxs)
    and the largest mask, whose set has the smaller least element where two
    differ, that is the smaller sorted tuple; its first index is the witness.
    """
    sigmas, columns = _perm_lanes()
    lanes = array("Q", sum(map(columns.__getitem__, idxs)).to_bytes(8 * len(sigmas), "little"))
    if sys.byteorder == "big":
        lanes.byteswap()
    best = max(lanes)
    mask = format(best, "064b")[-len(columns):]  # bit 35 - v holds pool index v
    return tuple(v for v, bit in enumerate(mask) if bit == "1"), sigmas[lanes.index(best)]


# ---------------------------------------------------------------------------
# integer linear algebra


def _smallest_entry(A: list[list[int]], top: int) -> tuple[int, int] | None:
    """Position of a nonzero entry of least absolute value in the submatrix
    below and right of (top, top), or None if that submatrix is zero."""
    pivot = None
    for i in range(top, len(A)):
        for j in range(top, len(A[0])):
            v = A[i][j]
            if v and (pivot is None or abs(v) < abs(A[pivot[0]][pivot[1]])):
                pivot = (i, j)
    return pivot


def smith_invariant_factors(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith normal form, in divisibility order.

    Smallest-pivot elimination with exact integer arithmetic; a final
    gcd/lcm pass on the diagonal enforces the divisibility chain.
    """
    A = list(rows) if isinstance(rows, Iterable) else None  # read once: it may be a generator
    if (A is None or not all(isinstance(r, Sequence) for r in A)
            or len({len(r) for r in A}) > 1 or not all(type(v) is int for r in A for v in r)):
        raise ValidationError(f"expected a matrix of integers, rows of equal length, got {rows!r}")
    A = [list(r) for r in A]
    if not A or not A[0]:
        return ()
    m, n = len(A), len(A[0])
    diag: list[int] = []
    top = 0
    while top < min(m, n):
        pivot = _smallest_entry(A, top)
        if pivot is None:
            break
        while True:
            pi, pj = pivot
            A[top], A[pi] = A[pi], A[top]
            for r in A:
                r[top], r[pj] = r[pj], r[top]
            if A[top][top] < 0:
                A[top] = [-x for x in A[top]]
            p = A[top][top]
            dirty = False
            for i in range(top + 1, m):
                if A[i][top]:
                    q = A[i][top] // p
                    A[i] = [x - q * y for x, y in zip(A[i], A[top])]
                    dirty = dirty or bool(A[i][top])
            for j in range(top + 1, n):
                if A[top][j]:
                    q = A[top][j] // p
                    for i in range(m):
                        A[i][j] -= q * A[i][top]
                    dirty = dirty or bool(A[top][j])
            if not dirty:
                break
            pivot = _smallest_entry(A, top)
        diag.append(A[top][top])
        top += 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            g = math.gcd(a, b)
            diag[i], diag[j] = g, (a * b // g if g else 0)
    return tuple(diag)


# ---------------------------------------------------------------------------
# domain types


class TorsionGroup(NamedTuple):
    """Torsion of the quotient of K-perp by the span of a type, as invariant
    factors greater than 1 (empty means torsion free)."""

    invariant_factors: tuple[int, ...]

    def text(self) -> str:
        if not self.invariant_factors:
            return "0"
        return "x".join(f"Z{f}" for f in self.invariant_factors)


class DynkinGraph(NamedTuple):
    """Intersection graph of a type, named by its ADE components (for
    example ``A_12A_2``; the empty string for no classes)."""

    name: str


class ConfigurationType(NamedTuple):
    """One of the 90 types.  ``classes`` is the canonical representative of
    the relabelling orbit, and multiplicities given with a type id refer to its
    labelling (shown by ``types list --format json`` and ``types classify``);
    ``neg_label`` is the audited catalog row's, often labelled differently."""

    id: int
    label: str
    neg_label: str
    classes: tuple[DivisorClass, ...]
    graph: DynkinGraph
    torsion: TorsionGroup

    def neg_set(self) -> NegCurveSet:
        return full_neg(self.classes)


def torsion(classes: Iterable[DivisorClass]) -> TorsionGroup:
    """Torsion of the quotient of K-perp by the span R of classes, read off the
    Smith normal form of their own coefficients: K-perp is the kernel of x -> x.K,
    so Z^7/K-perp embeds in Z and is free, 0 -> K-perp/R -> Z^7/R -> Z^7/K-perp
    -> 0 splits for R inside K-perp, and both quotients have the same torsion."""
    if not isinstance(classes, Iterable):
        raise ValidationError(f"expected a collection of classes, got {classes!r}")
    rows = list(classes)
    for c in rows:
        _check_class(c)
        if _intersect(c, K) != 0:
            raise ValidationError(f"{c} is not orthogonal to the canonical class")
    factors = smith_invariant_factors(rows)
    return TorsionGroup(tuple(f for f in factors if f > 1))


def _component_label(vertices: list[int], adj) -> str:
    # Neg set members are independent (each pairs positively with AMPLE_CLASS, and
    # they meet pairwise >= 0 in the negative definite K-perp), so a component is a
    # Dynkin diagram on k <= 6 vertices.  The simple roots E1-E2, ..., E5-E6,
    # L-E1-E2-E3 have Gram determinant 3, squarefree, so they span K-perp, and a
    # component on 6 vertices has determinant 3 times a square: E_6, not A_6 (7) or D_6 (4)
    k = len(vertices)
    if all(sum(adj[v][w] for w in vertices) < 3 for v in vertices):
        return f"A_{k}"
    return "E_6" if k == 6 else f"D_{k}"


def _label_key(label: str) -> tuple[str, int]:
    family, rank = label.split("_")
    return family, int(rank)


def _graph_name(labels: Sequence[str]) -> str:
    counts = Counter(labels)
    return "".join(f"{counts[lab] if counts[lab] > 1 else ''}{lab}"
                   for lab in sorted(counts, key=_label_key))


def dynkin_graph(classes: Iterable[DivisorClass]) -> DynkinGraph:
    """Intersection graph of a neg set, its components named by
    ``_component_label`` (they can only be A1..A5, D4, D5 and E6)."""
    pool = candidate_pool()
    classes = [pool[i] for i in _neg_indices(classes)]
    # members meet in 0 or 1: K^2 = 3 and signature (1, 6) make K-perp, which holds
    # the candidates, negative definite, so for distinct a, b with a.b >= 0 Cauchy-
    # Schwarz gives (a.b)^2 <= a^2 b^2 = 4, equal only at b = -a, and -a is never a
    # candidate (it has negative degree or is E_j - E_i with j > i)
    adj = [[_intersect(a, b) if i != j else 0 for j, b in enumerate(classes)]
           for i, a in enumerate(classes)]
    unseen = set(range(len(classes)))
    labels = []
    while unseen:
        stack = [unseen.pop()]
        comp = list(stack)
        while stack:
            v = stack.pop()
            for w in list(unseen):
                if adj[v][w]:
                    unseen.remove(w)
                    stack.append(w)
                    comp.append(w)
        labels.append(_component_label(comp, adj))
    return DynkinGraph(_graph_name(labels))


# ---------------------------------------------------------------------------
# the shipped table, and the enumeration that proves it complete


class TableRow(NamedTuple):
    id: int
    label: str
    neg: str
    torsion: str


# Catalog rows that are one relabelling orbit even though they are printed as
# separate entries: 67 and 71 are carried onto each other by renumbering the
# points 4 -> 6, 5 -> 4, 6 -> 5, and every finer structural reading (towers,
# cluster levels, line incidences) is isomorphic as well.  The ids stay in the
# catalog because downstream references use them; both resolve to the same
# canonical classes.  (Exhaustive enumeration of all pairwise-nonnegative
# pool subsets gives 89 orbits, one fewer than the catalog has rows.)
#
# Row 48 of the shipped table is also a repair: the sources print
# "0: BC, CD; 1: ABC, DEF", which is not a configuration at all (the DEF line
# passes through the infinitely near point D but misses C below it, so it
# meets the curve with class E3 - E4 negatively).  The unique minimal fix,
# "0: BC, CD; 1: ABC, AEF", is valid, has the printed label's graph and the
# printed torsion, and is a representative of the one orbit the other 89 rows
# miss.
DUPLICATE_CATALOG_ROWS: tuple[frozenset[int], ...] = (frozenset({67, 71}),)


def table1_text() -> str:
    """Raw contents of the shipped type table (tab separated, with header)."""
    path = os.path.join(os.path.dirname(__file__), "data", "table1.tsv")
    return __spec__.loader.get_data(path).decode("utf-8")


@lru_cache(maxsize=1)
def table_rows() -> tuple[TableRow, ...]:
    lines = table1_text().splitlines()[1:]
    return tuple(
        TableRow(int(id_s), label, neg, tor)
        for id_s, label, neg, tor in (line.split("\t") for line in lines if line)
    )


def _enumerate_orbits() -> list[tuple[int, ...]]:
    """All pairwise-nonnegative subsets of the pool, one canonical index tuple
    per orbit, grown one class at a time for six rounds."""
    pool = candidate_pool()
    compat = [[_intersect(a, b) >= 0 for b in pool] for a in pool]
    orbits: list[tuple[int, ...]] = [()]
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(N_POINTS):
        grown = set()
        for t in frontier:
            for c in range(len(pool)):
                if c not in t and all(compat[c][i] for i in t):
                    grown.add(_canonical_indices(t + (c,))[0])
        frontier = sorted(grown)
        orbits.extend(frontier)
    return orbits


def orbit_gaps(
    types: Sequence[ConfigurationType],
) -> tuple[tuple[tuple[DivisorClass, ...], ...], tuple[int, ...]]:
    """Match the types against an exhaustive enumeration of the orbits.

    Returns the enumerated orbits (as canonical classes) that no type covers,
    and the ids of the types whose classes are no enumerated orbit.  Both are
    empty exactly when the types cover every configuration and nothing else:
    this is the proof that the catalog is the whole classification.
    """
    pool = candidate_pool()
    orbits = [tuple(pool[i] for i in canon) for canon in _enumerate_orbits()]
    covered = {t.classes for t in types}
    enumerated = set(orbits)
    missing = tuple(o for o in orbits if o not in covered)
    stray = tuple(t.id for t in types if t.classes not in enumerated)
    return missing, stray


@lru_cache(maxsize=128)  # room for the 90 rows; keyed by content, so a changed row rebuilds
def _build_type(row: TableRow) -> ConfigurationType:
    """One catalog row's type: the canonical classes of its orbit, whose graph
    and torsion must match the row's label and torsion column.  They are
    independent, as every neg set is, so their graph is a finite-type ADE
    diagram (see ``_component_label``)."""
    try:
        idxs = _pool_indices(parse_negset(row.neg))
    except ValidationError as exc:
        raise ValidationError(f"type {row.id}: {exc}") from None
    pool = candidate_pool()
    classes = tuple(pool[i] for i in _canonical_indices(idxs)[0])
    graph = dynkin_graph(classes)
    tor = torsion(classes)
    expected_name = "" if row.id == 1 else (
        row.label[:-1] if row.label[-1].islower() else row.label
    )
    if graph.name != expected_name:
        raise ConsistencyError(
            f"type {row.id}: computed graph {graph.name!r} does not match label {row.label!r}"
        )
    if tor.text() != row.torsion:
        raise ConsistencyError(
            f"type {row.id}: computed torsion {tor.text()} does not match catalog {row.torsion}"
        )
    return ConfigurationType(row.id, row.label, row.neg, classes, graph, tor)


def build_types(rows: Sequence[TableRow]) -> tuple[ConfigurationType, ...]:
    """One type per catalog row, each built and checked by ``_build_type``,
    then the checks across rows: only the documented duplicate rows may share
    an orbit, and the ids must run 1..len(rows) in row order.  Whether the
    rows cover every orbit is not checked here; ``orbit_gaps`` does that.
    """
    types = tuple(map(_build_type, rows))
    ids_by_classes: dict[tuple[DivisorClass, ...], list[int]] = {}
    for t in types:
        ids_by_classes.setdefault(t.classes, []).append(t.id)
    shared = {frozenset(ids) for ids in ids_by_classes.values() if len(ids) > 1}
    if shared != set(DUPLICATE_CATALOG_ROWS):
        raise ConsistencyError(
            f"catalog rows sharing an orbit: {sorted(map(sorted, shared))}; "
            f"expected exactly {sorted(map(sorted, DUPLICATE_CATALOG_ROWS))}"
        )
    if [t.id for t in types] != list(range(1, len(rows) + 1)):
        raise ConsistencyError("catalog ids are not consecutive from 1")
    return types


@lru_cache(maxsize=1)
def enumerate_types() -> tuple[ConfigurationType, ...]:
    """The 90 configuration types, built from the shipped catalog rows."""
    return build_types(table_rows())


@lru_cache(maxsize=1)
def _types_by_canon() -> dict[tuple[DivisorClass, ...], ConfigurationType]:
    # duplicate catalog rows resolve to the smaller id, which comes last here
    return {t.classes: t for t in reversed(enumerate_types())}


def type_by_id(type_id: int) -> ConfigurationType:
    """The type of catalog row ``type_id``, built from that row alone."""
    if type(type_id) is not int:
        raise ValidationError(f"type id must be an int, got {type_id!r}")
    rows = table_rows()
    if not 1 <= type_id <= len(rows):
        raise ValidationError(f"type id {type_id} out of range 1..{len(rows)}")
    row = rows[type_id - 1]
    if row.id != type_id:
        raise ConsistencyError(f"catalog row {type_id} has id {row.id}")
    return _build_type(row)


def classify(neg: Iterable[DivisorClass]) -> tuple[ConfigurationType, tuple[int, ...]]:
    """Match a candidate neg set to its type; also returns the relabelling
    that carries the input onto the type's canonical classes."""
    canon, sigma = _canonical_indices(_neg_indices(neg))
    t = _types_by_canon().get(tuple(map(candidate_pool().__getitem__, canon)))
    if t is None:
        raise ConsistencyError("canonical set missing from the enumerated types")
    return t, sigma
