"""Exact arithmetic in the divisor class lattice of a six-point blow-up of the plane.

Classes live in the rank-7 lattice spanned by the pullback L of a line and the
exceptional classes E1..E6, which are orthogonal for the intersection pairing
with L^2 = 1 and Ei^2 = -1 (signature (1, 6)).  Coefficients are plain Python
integers, so arithmetic is exact at any size and wraparound cannot occur.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ValidationError

N_POINTS = 6


class DivisorClass(tuple):
    """An integer class d*L + m1*E1 + ... + m6*E6, stored as (d, m1, ..., m6).

    Coefficients are literal: L - E1 - E2 is ``DivisorClass(1, (-1, -1, 0, 0, 0, 0))``;
    m is a sequence of six, and every coefficient must be of type int (bool
    and float are rejected).  Instances are immutable, hashable, and support
    +, -, unary minus and multiplication by an integer.
    """

    __slots__ = ()

    def __new__(cls, d: int, m: Sequence[int]) -> "DivisorClass":
        if not isinstance(m, Sequence):
            raise ValidationError(f"expected {N_POINTS} exceptional coefficients, got {m!r}")
        vec = (d, *m)
        _check_vector(vec)
        return tuple.__new__(cls, vec)

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
        _check_vector(other)
        return DivisorClass._from_vec(tuple(a + b for a, b in zip(self, other)))

    def __radd__(self, other):
        if type(other) is int and other == 0:  # lets sum() work on lists of classes
            return self
        return self.__add__(other)

    def __sub__(self, other):
        _check_vector(other)
        return DivisorClass._from_vec(tuple(a - b for a, b in zip(self, other)))

    def __neg__(self):
        return DivisorClass._from_vec(tuple(-a for a in self))

    def __mul__(self, k):
        if type(k) is not int:
            raise ValidationError(f"a class can only be multiplied by an integer, got {k!r}")
        return DivisorClass._from_vec(tuple(k * a for a in self))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"DivisorClass({self[0]}, {self.m!r})"

    def __str__(self) -> str:
        terms = []
        if self[0]:
            c = {1: "", -1: "-"}.get(self[0], str(self[0]))
            terms.append(f"{c}L")
        for i in range(1, N_POINTS + 1):
            v = self[i]
            if not v:
                continue
            mag = "" if abs(v) == 1 else str(abs(v))
            terms.append(("+" if v > 0 and terms else "-" if v < 0 else "") + f"{mag}E{i}")
        return "".join(terms) if terms else "0"


def _check_vector(v) -> None:
    if type(v) is not DivisorClass and not (
        isinstance(v, Sequence) and len(v) == N_POINTS + 1 and all(type(x) is int for x in v)
    ):
        raise ValidationError(f"expected a class or {N_POINTS + 1} integers d, m1..m6, got {v!r}")


def _intersect(a: Sequence[int], b: Sequence[int]) -> int:
    """intersect without its argument checks, for vectors built in the package."""
    return (a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]
            - a[4] * b[4] - a[5] * b[5] - a[6] * b[6])


def intersect(a: DivisorClass, b: DivisorClass) -> int:
    """Intersection pairing a.d*b.d - sum_i a.m_i*b.m_i of classes or 7-int sequences."""
    _check_vector(a)
    _check_vector(b)
    return _intersect(a, b)


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
    if type(i) is not int:
        raise ValidationError(f"point index must be an int, got {i!r}")
    if not 1 <= i <= N_POINTS:
        raise ValidationError(f"point index {i} out of range 1..{N_POINTS}")
    return E[i - 1]


# The canonical class K = -3L + E1 + ... + E6; -K is the anticanonical class.
K = DivisorClass(-3, (1, 1, 1, 1, 1, 1))


def permute_points(c: DivisorClass, sigma: Sequence[int]) -> DivisorClass:
    """Relabel points by sigma (1-indexed: point i becomes point sigma[i-1]),
    a permutation of 1..6; c is a class or 7 integers."""
    _check_vector(c)
    if not isinstance(sigma, Sequence):
        raise ValidationError(f"sigma must be a permutation of 1..{N_POINTS}, got {sigma!r}")
    sigma = tuple(sigma)
    if any(type(v) is not int for v in sigma) or sorted(sigma) != list(range(1, N_POINTS + 1)):
        raise ValidationError(f"sigma must be a permutation of 1..{N_POINTS}, got {sigma}")
    m = [0] * N_POINTS
    for i in range(N_POINTS):
        m[sigma[i] - 1] = c[i + 1]
    return DivisorClass(c[0], m)
