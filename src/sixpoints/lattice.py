"""Exact arithmetic in the divisor class lattice of a six-point blow-up of the plane.

Classes live in the rank-7 lattice spanned by the pullback L of a line and the
exceptional classes E1..E6, which are orthogonal for the intersection pairing
with L^2 = 1 and Ei^2 = -1 (signature (1, 6)).  Coefficients are plain Python
integers, so arithmetic is exact at any size and wraparound cannot occur.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ValidationError

N_POINTS = 6


def _check_width(other) -> None:
    if len(other) != N_POINTS + 1:
        raise ValidationError(
            f"cannot combine a class with an operand of width {len(other)}, "
            f"expected {N_POINTS + 1}"
        )


class DivisorClass(tuple):
    """An integer class d*L + m1*E1 + ... + m6*E6, stored as (d, m1, ..., m6).

    Coefficients are literal: L - E1 - E2 is ``DivisorClass(1, (-1, -1, 0, 0, 0, 0))``.
    Instances are immutable, hashable, and support +, -, unary minus and
    multiplication by an integer.
    """

    __slots__ = ()

    def __new__(cls, d: int, m: Sequence[int]) -> "DivisorClass":
        mt = tuple(m)
        if len(mt) != N_POINTS:
            raise ValidationError(
                f"expected {N_POINTS} exceptional coefficients, got {len(mt)}"
            )
        return tuple.__new__(cls, (d, *mt))

    @classmethod
    def _from_vec(cls, vec: tuple[int, ...]) -> "DivisorClass":
        return tuple.__new__(cls, vec)

    @property
    def d(self) -> int:
        """Coefficient of L (the degree of the image curve in the plane)."""
        return self[0]

    @property
    def m(self) -> tuple[int, ...]:
        """Coefficients of E1..E6, with sign as written."""
        return tuple(self[1:])

    def __add__(self, other):
        _check_width(other)
        return DivisorClass._from_vec(tuple(a + b for a, b in zip(self, other)))

    def __radd__(self, other):
        if other == 0:  # lets sum() work on lists of classes
            return self
        return self.__add__(other)

    def __sub__(self, other):
        _check_width(other)
        return DivisorClass._from_vec(tuple(a - b for a, b in zip(self, other)))

    def __neg__(self):
        return DivisorClass._from_vec(tuple(-a for a in self))

    def __mul__(self, k):
        return DivisorClass._from_vec(tuple(k * a for a in self))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"DivisorClass({self[0]}, {self.m!r})"

    def __str__(self) -> str:
        terms = []
        if self[0]:
            c = {1: "", -1: "-"}.get(self[0], str(self[0]))
            terms.append(f"{c}L")
        for i in range(1, 7):
            v = self[i]
            if not v:
                continue
            mag = "" if abs(v) == 1 else str(abs(v))
            terms.append(("+" if v > 0 and terms else "-" if v < 0 else "") + f"{mag}E{i}")
        return "".join(terms) if terms else "0"


def intersect(a: DivisorClass, b: DivisorClass) -> int:
    """Intersection pairing: a.d*b.d - sum_i a.m_i*b.m_i."""
    return (a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]
            - a[4] * b[4] - a[5] * b[5] - a[6] * b[6])


def selfint(a: DivisorClass) -> int:
    return intersect(a, a)


L = DivisorClass(1, (0, 0, 0, 0, 0, 0))
E = tuple(
    DivisorClass(0, tuple(1 if j == i else 0 for j in range(N_POINTS)))
    for i in range(N_POINTS)
)
ZERO = DivisorClass(0, (0, 0, 0, 0, 0, 0))


def e(i: int) -> DivisorClass:
    """Exceptional class E_i, 1-indexed."""
    if not 1 <= i <= N_POINTS:
        raise ValidationError(f"point index {i} out of range 1..{N_POINTS}")
    return E[i - 1]


def canonical_class() -> DivisorClass:
    """The canonical class K = -3L + E1 + ... + E6; -K is the anticanonical class."""
    return DivisorClass(-3, (1, 1, 1, 1, 1, 1))


K = canonical_class()


def permute_points(c: DivisorClass, sigma: Sequence[int]) -> DivisorClass:
    """Relabel points by sigma (1-indexed: point i becomes point sigma[i-1])."""
    m = [0] * N_POINTS
    for i in range(N_POINTS):
        m[sigma[i] - 1] = c[i + 1]
    return DivisorClass(c[0], m)


@dataclass(frozen=True)
class CollinearityMatrix:
    """0/1 incidence rows, one per maximal collinear subset of three or more points."""

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))


def from_collinearity_matrix(matrix) -> list[DivisorClass]:
    """Classes of the proper transforms of the lines a collinearity matrix records.

    Row (b1..b6) becomes the class L - sum of E_i over the marked points,
    i.e. (1; -b1, ..., -b6).  Output order matches row order.
    """
    rows = matrix.rows if isinstance(matrix, CollinearityMatrix) else tuple(
        tuple(r) for r in matrix
    )
    for i, row in enumerate(rows):
        if len(row) != N_POINTS or any(v not in (0, 1) for v in row):
            raise ValidationError(f"row {i} is not a 0/1 vector of width {N_POINTS}")
        if sum(row) < 3:
            raise ValidationError(
                f"row {i} marks only {sum(row)} points; a recorded line needs at least 3"
            )
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            shared = sum(a * b for a, b in zip(rows[i], rows[j]))
            if shared > 1:
                raise ValidationError(
                    f"rows {i} and {j} share {shared} points; two lines share at most 1"
                )
    return [DivisorClass(1, tuple(-b for b in row)) for row in rows]
