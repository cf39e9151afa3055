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


def test_class_letters_rejects_non_pool_shapes():
    with pytest.raises(ValidationError):
        class_letters(cls(3, -1, -1, -1, -1, -1, -1))
    with pytest.raises(ValidationError):
        class_letters(cls(0, 1, 1, -1, -1, 0, 0))


@given(st.sets(st.sampled_from(candidate_pool()), max_size=6))
def test_round_trip_through_letters(subset):
    classes = sorted(subset)
    text = format_negset(classes)
    assert sorted(parse_negset(text)) == classes
