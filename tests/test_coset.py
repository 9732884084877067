import pytest

from baerkit.coset import EnumerationLimitError, enumerate_cosets, to_group
from baerkit.presentation import parse_presentation, parse_word
from baerkit.verify import (
    alternating4_presentation,
    cyclic_presentation,
    dihedral_presentation,
    quaternion_presentation,
    symmetric_presentation,
)

KNOWN_ORDERS = [
    (cyclic_presentation(1), 1),
    (cyclic_presentation(5), 5),
    (cyclic_presentation(12), 12),
    (dihedral_presentation(8), 8),
    (dihedral_presentation(10), 10),
    (dihedral_presentation(16), 16),
    (quaternion_presentation(), 8),
    (symmetric_presentation(3), 6),
    (symmetric_presentation(4), 24),
    (alternating4_presentation(), 12),
]


def test_enumeration_reaches_known_orders():
    for text, order in KNOWN_ORDERS:
        table = enumerate_cosets(parse_presentation(text))
        assert table.coset_count == order, text


def test_enumeration_over_subgroup_counts_cosets():
    pres = parse_presentation(symmetric_presentation(3))
    table = enumerate_cosets(pres, subgroup_gens=(parse_word("a", pres.generators),))
    assert table.coset_count == 2
    table = enumerate_cosets(pres, subgroup_gens=(parse_word("b", pres.generators),))
    assert table.coset_count == 3


def test_enumeration_respects_coset_limit():
    pres = parse_presentation(symmetric_presentation(4))
    with pytest.raises(EnumerationLimitError) as info:
        enumerate_cosets(pres, max_cosets=10)
    assert info.value.cosets_defined >= 10


def test_table_columns_are_permutations():
    pres = parse_presentation(quaternion_presentation())
    table = enumerate_cosets(pres)
    n = table.coset_count
    for col in table.cols:
        assert sorted(col) == list(range(n))


def test_to_group_rejects_subgroup_tables():
    pres = parse_presentation(symmetric_presentation(3))
    table = enumerate_cosets(pres, subgroup_gens=(parse_word("a", pres.generators),))
    with pytest.raises(ValueError):
        to_group(table)


def test_group_multiplication_agrees_with_table_action():
    pres = parse_presentation(dihedral_presentation(12))
    table = enumerate_cosets(pres)
    group = to_group(table)
    for i in range(len(pres.generators)):
        g = group.gen_element(i)
        for e in range(group.size):
            assert group.mult(e, g) == table.cols[2 * i][e]


def test_every_relator_acts_trivially():
    for text, _ in KNOWN_ORDERS:
        pres = parse_presentation(text)
        group = to_group(enumerate_cosets(pres))
        for rel in pres.relators:
            assert group.word_to_element(rel) == 0


def test_deterministic_numbering():
    pres = parse_presentation(symmetric_presentation(4))
    t1 = enumerate_cosets(pres)
    t2 = enumerate_cosets(pres)
    assert t1.cols == t2.cols


def test_relator_longer_than_max_cosets_is_rejected_before_enumeration():
    pres = parse_presentation("gens: a; rels: a^11")
    with pytest.raises(EnumerationLimitError) as info:
        enumerate_cosets(pres, max_cosets=10)
    assert info.value.cosets_defined == 0
    assert enumerate_cosets(pres, max_cosets=11).coset_count == 11
