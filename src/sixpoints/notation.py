"""Letter notation for sets of negative classes.

Points p1..p6 are written A..F and a leading number gives the degree of the
curve, so ``0: AB, CD; 2: ABCDEF`` is the set {E1 - E2, E3 - E4,
2L - E1 - ... - E6}.  Grammar (whitespace-insensitive)::

    negset := group (';' group)* | ''        empty input means the empty set
    group  := degree ':' term (',' term)*
    degree := '0' | '1' | '2'
    term   := letters from A..F, strictly increasing

Degree 0 terms have exactly two letters (E_x - E_y with x < y), degree 1
exactly three (L - E_x - E_y - E_z), degree 2 exactly six: the terms name the
36 candidate classes of ``curves.candidate_pool``, by their points, in order.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .curves import candidate_pool
from .errors import ValidationError
from .lattice import DivisorClass

_LETTERS = "ABCDEF"
_ARITY = {0: 2, 1: 3, 2: 6}


@lru_cache(maxsize=1)
def _names() -> tuple[dict, dict]:
    """Each candidate's (degree, letters of its nonzero points), and the inverse map."""
    names = {c: (c[0], "".join(ch for ch, v in zip(_LETTERS, c[1:]) if v))
             for c in candidate_pool()}
    return names, {name: c for c, name in names.items()}


def parse_negset(text: str) -> list[DivisorClass]:
    """Parse letter notation into divisor classes, in written order.

    Raises ValidationError with a character position for syntax errors, empty
    groups or terms, arity mismatches, out-of-order letters and duplicate classes.
    """
    if not isinstance(text, str):
        raise ValidationError(f"expected a string in letter notation, got {text!r}")
    out: list[DivisorClass] = []
    if not text.strip():
        return out
    gpos = 0
    for gtext in text.split(";"):
        if not gtext.strip():
            raise ValidationError(f"syntax error at position {gpos}: empty group")
        colon = gtext.find(":")
        if colon < 0:
            raise ValidationError(
                f"syntax error at position {gpos}: expected 'degree: terms' in {gtext.strip()!r}"
            )
        dtext = gtext[:colon].strip()
        if dtext not in ("0", "1", "2"):
            raise ValidationError(
                f"syntax error at position {gpos}: degree must be 0, 1 or 2, got {dtext!r}"
            )
        degree = int(dtext)
        body = gtext[colon + 1:]
        if not body.strip():
            raise ValidationError(
                f"syntax error at position {gpos + colon + 1}: degree {degree} group has no terms"
            )
        start = gpos + colon + 1
        for raw in body.split(","):
            ttext = raw.strip()
            tpos = start + len(raw) - len(raw.lstrip())
            start += len(raw) + 1
            if not ttext:
                raise ValidationError(f"syntax error at position {tpos}: empty term")
            for ch in ttext:
                if ch not in _LETTERS:
                    raise ValidationError(
                        f"syntax error at position {tpos}: {ch!r} is not a point letter A..F"
                    )
            if any(a >= b for a, b in zip(ttext, ttext[1:])):
                raise ValidationError(
                    f"letters in {ttext!r} at position {tpos} must be strictly increasing"
                )
            if len(ttext) != _ARITY[degree]:
                raise ValidationError(
                    f"term {ttext!r} at position {tpos} has {len(ttext)} letters; "
                    f"degree {degree} needs exactly {_ARITY[degree]}"
                )
            # the increasing letters at their degree's arity name a candidate
            cls = _names()[1][degree, ttext]
            if cls in out:
                raise ValidationError(f"duplicate class {ttext!r} at position {tpos}")
            out.append(cls)
        gpos += len(gtext) + 1
    return out


def class_letters(c: DivisorClass) -> tuple[int, str]:
    """Inverse of the term mapping: (degree, letter string) for a candidate class."""
    if type(c) is not DivisorClass:
        raise ValidationError(f"expected a DivisorClass, got {c!r}")
    name = _names()[0].get(c)
    if name is None:
        raise ValidationError(f"{c} has no letter notation")
    return name


def format_negset(classes: Iterable[DivisorClass]) -> str:
    """Serialize classes to letter notation: degree groups ascending,
    terms sorted within each group.  Empty input gives the empty string."""
    if not isinstance(classes, Iterable):
        raise ValidationError(f"expected a collection of classes, got {classes!r}")
    groups: dict[int, list[str]] = {}
    for c in classes:
        d, letters = class_letters(c)
        groups.setdefault(d, []).append(letters)
    return "; ".join(
        f"{d}: " + ", ".join(sorted(groups[d])) for d in sorted(groups)
    )
