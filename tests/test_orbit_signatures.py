"""The Hilbert functions of small fat point schemes tell the orbits apart.

A type's signature is the multiset of ideal Hilbert functions of every
scheme in a permutation-closed box of multiplicities.  Relabelling the
points permutes the box onto itself, so types in one orbit have equal
signatures; the test checks the converse on the catalog: only the two rows
that are one orbit share a signature.
"""

import itertools
from collections import Counter

from sixpoints import analyze, enumerate_types
from sixpoints.typeenum import DUPLICATE_CATALOG_ROWS

# {0, 1, 2}^6 with m1 + ... + m6 <= 6: closed under permuting the points
BOX = tuple(m for m in itertools.product(range(3), repeat=6) if sum(m) <= 6)


def _signature_classes(values, box):
    """The type ids grouped by equal signature over ``box``, as a set of frozensets."""
    groups = {}
    for type_id, by_mults in values.items():
        signature = frozenset(Counter(by_mults[m] for m in box).items())
        groups.setdefault(signature, set()).add(type_id)
    return {frozenset(ids) for ids in groups.values()}


def test_hilbert_functions_separate_the_89_orbits():
    assert len(BOX) == 435
    values = {t.id: {m: analyze(t.classes, m, False).hilbert.ideal_values for m in BOX}
              for t in enumerate_types()}
    classes = _signature_classes(values, BOX)
    assert len(classes) == 89
    assert {ids for ids in classes if len(ids) > 1} == set(DUPLICATE_CATALOG_ROWS)
    # the smaller box m1 + ... + m6 <= 5 does not suffice (73 classes)
    small = tuple(m for m in BOX if sum(m) <= 5)
    assert len(_signature_classes(values, small)) < 89
