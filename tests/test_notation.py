import itertools

import pytest
from hypothesis import given, strategies as st

from sixpoints import DivisorClass, ValidationError, format_negset, parse_negset
from sixpoints.notation import class_letters
from sixpoints.typeenum import candidate_pool


def cls(d, *m):
    return DivisorClass(d, m)


def test_parse_mixed_groups():
    got = parse_negset("0: AB, CD; 2: ABCDEF")
    assert got == [
        cls(0, 1, -1, 0, 0, 0, 0),
        cls(0, 0, 0, 1, -1, 0, 0),
        cls(2, -1, -1, -1, -1, -1, -1),
    ]


def test_parse_empty():
    assert parse_negset("") == []
    assert parse_negset("   ") == []


def test_parse_lines():
    assert parse_negset("1: ABC, ADE") == [
        cls(1, -1, -1, -1, 0, 0, 0),
        cls(1, -1, 0, 0, -1, -1, 0),
    ]


def test_parse_ignores_whitespace():
    assert parse_negset("0:AB,CD;2:ABCDEF") == parse_negset("0: AB, CD;  2: ABCDEF")


@pytest.mark.parametrize("text,fragment", [
    ("0 AB", "expected 'degree:"),
    ("3: AB", "degree must be 0, 1 or 2"),
    ("0: AG", "not a point letter"),
    ("0: BA", "strictly increasing"),
    ("0: ABC", "degree 0 needs exactly 2"),
    ("1: AB", "degree 1 needs exactly 3"),
    ("2: ABCDE", "degree 2 needs exactly 6"),
    ("0: AB, AB", "duplicate class"),
    ("0:", "no terms"),
    (";", "position 0: empty group"),
    ("0: AB;", "position 6: empty group"),
    ("0: AB,,CD", "position 6: empty term"),
    ("0: AB,", "position 6: empty term"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ValidationError, match=fragment):
        parse_negset(text)


def test_parse_errors_carry_positions():
    with pytest.raises(ValidationError, match="position 10"):
        parse_negset("0: AB; 1: AB")


def test_format_sorts_terms_and_groups():
    classes = parse_negset("1: ABC; 0: CD, AB")
    assert format_negset(classes) == "0: AB, CD; 1: ABC"


def test_format_rejects_input_that_is_not_a_collection():
    with pytest.raises(ValidationError, match="expected a collection of classes, got 5"):
        format_negset(5)


def test_class_letters_rejects_non_pool_shapes():
    with pytest.raises(ValidationError):
        class_letters(cls(3, -1, -1, -1, -1, -1, -1))
    with pytest.raises(ValidationError):
        class_letters(cls(0, 1, 1, -1, -1, 0, 0))


def _shape_letters(c):
    """An independent reference for class_letters, by the shape of the
    coefficients: (degree, letters), or None for a class with no name."""
    d, m = c.d, c.m
    if d == 0:
        pos = [i for i, v in enumerate(m, 1) if v == 1]
        neg = [i for i, v in enumerate(m, 1) if v == -1]
        if len(pos) == 1 and len(neg) == 1 and pos[0] < neg[0] and sum(map(abs, m)) == 2:
            return 0, "ABCDEF"[pos[0] - 1] + "ABCDEF"[neg[0] - 1]
    elif d in (1, 2):
        neg = [i for i, v in enumerate(m, 1) if v == -1]
        if len(neg) == (3, 6)[d - 1] and all(v in (0, -1) for v in m):
            return d, "".join("ABCDEF"[i - 1] for i in neg)
    return None


def test_class_letters_agrees_with_the_shape_rule():
    # every class with degree -1..2 and coefficients -2..2: 62,500 classes
    named = 0
    for d in range(-1, 3):
        for m in itertools.product(range(-2, 3), repeat=6):
            c = DivisorClass(d, m)
            try:
                got = class_letters(c)
            except ValidationError as exc:
                assert str(exc) == f"{c} has no letter notation"
                got = None
            assert got == _shape_letters(c), c
            named += got is not None
    assert named == len(candidate_pool()) == 36


def test_every_well_formed_term_parses_to_its_class():
    # each degree with each strictly increasing letter string of its arity
    parsed = set()
    for d, arity in ((0, 2), (1, 3), (2, 6)):
        for points in itertools.combinations(range(6), arity):
            letters = "".join("ABCDEF"[i] for i in points)
            m = [0] * 6
            for i in points:
                m[i] = -1
            if d == 0:
                m[points[0]] = 1  # E_i - E_j with i < j
            want = DivisorClass(d, m)
            assert parse_negset(f"{d}: {letters}") == [want]
            assert class_letters(want) == (d, letters)
            parsed.add(want)
    assert parsed == set(candidate_pool())


@given(st.sets(st.sampled_from(candidate_pool()), max_size=6))
def test_round_trip_through_letters(subset):
    classes = sorted(subset)
    text = format_negset(classes)
    assert sorted(parse_negset(text)) == classes
