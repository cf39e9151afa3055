import pytest
from hypothesis import given, strategies as st

from sixpoints import (
    DivisorClass,
    E,
    K,
    L,
    ZERO,
    ValidationError,
    canonical_class,
    e,
    intersect,
    permute_points,
    selfint,
)

coeff = st.integers(min_value=-9, max_value=9)
classes = st.builds(DivisorClass, coeff, st.tuples(*[coeff] * 6))


def cls(d, *m):
    return DivisorClass(d, m)


def test_intersect_basis_examples():
    assert intersect(L, L) == 1
    assert selfint(cls(1, -1, -1, 0, 0, 0, 0)) == -1
    assert selfint(cls(2, -1, -1, -1, -1, -1, -1)) == -2
    assert intersect(cls(0, 1, -1, 0, 0, 0, 0), cls(0, 0, 1, -1, 0, 0, 0)) == 1


def test_gram_matrix_signature():
    basis = (L,) + E
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            expected = 0 if i != j else (1 if i == 0 else -1)
            assert intersect(a, b) == expected


def test_canonical_class():
    assert canonical_class() == cls(-3, 1, 1, 1, 1, 1, 1)
    assert selfint(K) == 3
    assert intersect(-K, L) == 3
    assert intersect(-K, e(1) - e(2)) == 0


@given(classes, classes)
def test_intersect_symmetric(a, b):
    assert intersect(a, b) == intersect(b, a)


@given(classes, classes, classes, st.integers(-5, 5), st.integers(-5, 5))
def test_intersect_bilinear(a, b, c, x, y):
    assert intersect(x * a + y * b, c) == x * intersect(a, c) + y * intersect(b, c)


def test_arithmetic():
    a = cls(1, -1, -1, 0, 0, 0, 0)
    assert a + a == cls(2, -2, -2, 0, 0, 0, 0)
    assert a - a == ZERO
    assert -a == cls(-1, 1, 1, 0, 0, 0, 0)
    assert 3 * a == cls(3, -3, -3, 0, 0, 0, 0)
    assert sum([a, a, a]) == 3 * a
    assert a.d == 1 and a.m == (-1, -1, 0, 0, 0, 0)
    assert a + (1, 0, 0, 0, 0, 0, -1) == cls(2, -1, -1, 0, 0, 0, -1)
    assert a - [0, 1, 0, 0, 0, 0, 0] == cls(1, -2, -1, 0, 0, 0, 0)


def test_wrong_width_rejected():
    with pytest.raises(ValidationError):
        DivisorClass(1, (0, 0, 0))
    for bad in ((1, 2), (1,) * 8):
        with pytest.raises(ValidationError, match="width"):
            L + bad
        with pytest.raises(ValidationError, match="width"):
            bad + L
        with pytest.raises(ValidationError, match="width"):
            L - bad


def test_non_integer_coefficients_rejected():
    for d, m in ((3.0, (-1,) * 6), (2.5, (0,) * 6), (True, (0,) * 6),
                 (1, (0, 0, 0, 0, 0, 1.0)), (1, (False,) * 6), ("1", (0,) * 6)):
        with pytest.raises(ValidationError, match="integers"):
            DivisorClass(d, m)
    for k in (2.5, 2.0, True):
        with pytest.raises(ValidationError, match="integer"):
            L * k
        with pytest.raises(ValidationError, match="integer"):
            k * L
    # a plain tuple or list operand of + or - is checked at the operator
    for bad in ((0.5,) * 7, (1, 0, 0, 0, 0, 0, 2.0), (True,) + (0,) * 6, (0,) * 6 + ("1",)):
        with pytest.raises(ValidationError, match="non-integer"):
            L + bad
        with pytest.raises(ValidationError, match="non-integer"):
            bad + L
        with pytest.raises(ValidationError, match="non-integer"):
            L - bad


def test_permute_points():
    sigma = (2, 1, 3, 4, 5, 6)
    assert permute_points(e(1) - e(2), sigma) == e(2) - e(1)
    assert permute_points(L, sigma) == L
