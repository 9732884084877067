import hashlib
import json
import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baerkit.coset import (
    DEFAULT_MAX_COSETS,
    CosetTable,
    EnumerationLimitError,
    _close_relators,
    _letter_words,
    _letters,
    _validate,
    enumerate_cosets,
    to_group,
)
from baerkit.presentation import parse_presentation, parse_word, word
from baerkit.verify import (
    alternating4_presentation,
    build_class3_p_group,
    build_group,
    class3_p_group_presentation,
    class4_2group_presentation,
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


def test_to_group_lifts_cyclic_subgroup_tables():
    pres = parse_presentation(symmetric_presentation(3))
    for gen, order in (("a", 3), ("b", 2)):
        table = enumerate_cosets(
            pres, subgroup_gens=(parse_word(gen, pres.generators),))
        assert table.subgroup_order == order
        assert to_group(table).cols == to_group(enumerate_cosets(pres)).cols
    # labels are exponents of one generator: H must be cyclic
    with pytest.raises(ValueError):
        enumerate_cosets(pres, subgroup_gens=tuple(
            parse_word(g, pres.generators) for g in ("a", "b")))


def test_group_multiplication_agrees_with_table_action():
    pres = parse_presentation(dihedral_presentation(12))
    table = enumerate_cosets(pres)
    group = to_group(table)
    # element[c]: the element that coset c became, found by walking the
    # table and the group's columns side by side from coset 0
    element = {0: 0}
    queue = [0]
    for c in queue:
        for l, col in enumerate(table.cols):
            if col[c] not in element:
                element[col[c]] = group.cols[l][element[c]]
                queue.append(col[c])
    assert sorted(element.values()) == list(range(group.size))
    for i in range(len(pres.generators)):
        g = group.gen_element(i)
        for c in range(table.coset_count):
            assert group.mult(element[c], g) == element[table.cols[2 * i][c]]


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


def test_lookahead_pass_is_bounded_by_max_steps():
    # The one relator has 10,000 letters: the first sweep saturates the
    # table, and only the step limit stops the lookahead pass.
    pres = parse_presentation("gens: a, b; rels: ((a*b)^50)^100")
    with pytest.raises(EnumerationLimitError, match="max_steps") as info:
        enumerate_cosets(pres, max_cosets=10000, max_steps=100000)
    assert 100000 < info.value.steps <= 110000


@pytest.mark.parametrize("text", [
    # Scanning coset 0 against the 10,000-letter relator defines one
    # coset per letter: the scan must stop at the limit, not fill the
    # table first.
    "gens: a, b; rels: ((a*b)^50)^100",
    # The relator reduces to nothing, so only row fills define cosets.
    "gens: a; rels: a*a^-1",
])
def test_max_steps_bounds_the_cosets_defined(text):
    with pytest.raises(EnumerationLimitError, match="max_steps") as info:
        enumerate_cosets(parse_presentation(text), max_cosets=10000,
                         max_steps=1000)
    assert info.value.cosets_defined == 1002
    assert info.value.steps == 1001


def _cols_digest(cols) -> str:
    return hashlib.sha256(json.dumps(cols).encode()).hexdigest()


P3_DIGEST = "31ec3d9695d71ac11850dc48af4a636e9254b712ed4d2b6cc501d7a6d1541cba"


@pytest.mark.parametrize("text, max_cosets, digest", [
    (class3_p_group_presentation(3), DEFAULT_MAX_COSETS, P3_DIGEST),
    # 3,349 cosets are defined at p = 3, so this one runs a lookahead
    # pass and a compaction on the way to the same table
    (class3_p_group_presentation(3), 2000, P3_DIGEST),
    (class4_2group_presentation(), DEFAULT_MAX_COSETS,
     "6ad72f546263205fa186ce6adebfc175a9ad2478742ee24003ccaae4812cae35"),
    (symmetric_presentation(4), DEFAULT_MAX_COSETS,
     "559e7a0c32e513fffe88733e906c5afcc1bc2960b4ac31264d0df59097d4ace9"),
    ("gens: a, b; rels: a^151; b^10; b^-1*a*b = a^87", DEFAULT_MAX_COSETS,
     "d6658fdba9f69fe66a9e55e50e3c3fe70c3df1a137c957027bdbe1dc613bb897"),
    ("gens: a, b; rels: a^90; b^9; [a,b]", DEFAULT_MAX_COSETS,
     "cc94e14dde7794f0f39142a1670637b73f9a8fb6eede763e785be1cbb3b9dbbd"),
])
def test_tables_are_pinned(text, max_cosets, digest):
    # The definition order of the enumeration is pinned.  It no longer
    # reaches reports (to_group standardizes), but it keeps the trivial-
    # subgroup tables, the oracle for the lift, fixed.
    table = enumerate_cosets(parse_presentation(text), max_cosets=max_cosets)
    assert _cols_digest(table.cols) == digest


def test_class3_p5_table_is_pinned(class3_p5):
    assert _cols_digest(class3_p5.cols) == (
        "0e5fb76064b5ef4a690ce8d9ff87fad9cdf0b5e829067de8c06ababeed6478b6")


def _table_and_words(text, subgroup=()):
    pres = parse_presentation(text)
    subs = tuple(parse_word(w, pres.generators) for w in subgroup)
    gen_col = {g: 2 * i for i, g in enumerate(pres.generators)}
    return (enumerate_cosets(pres, subgroup_gens=subs),
            [_letters(r, gen_col) for r in pres.relators],
            [_letters(w, gen_col) for w in subs])


def test_validate_accepts_an_enumerated_table():
    _validate(*_table_and_words(symmetric_presentation(3), ["a"]))


def _corrupt_table(kind):
    # S3 over <a>: two cosets, a fixes both and b swaps them.
    table, rel_words, sub_words = _table_and_words(
        symmetric_presentation(3), ["a"])
    cols = table.cols
    if kind == "short":
        cols[0].pop()
    elif kind == "unset":
        cols[0][1] = -1
    elif kind == "out of range":
        cols[2][1] = table.coset_count
    elif kind == "not inverse":
        # a swaps the cosets while a^-1 still fixes them
        cols[0][0], cols[0][1] = cols[0][1], cols[0][0]
    elif kind == "open relator":
        # C3 with a acting as the transposition (1 2): the columns stay
        # mutually inverse and a^3 closes on coset 0, but not on 1 or 2
        table, rel_words, sub_words = _table_and_words("gens: a; rels: a^3")
        table.cols[0], table.cols[1] = [0, 2, 1], [0, 2, 1]
    elif kind == "moved coset 0":
        sub_words = [[2]]
    return table, rel_words, sub_words


@pytest.mark.parametrize("kind, message", [
    ("short", "coset table is not complete"),
    ("unset", "coset table is not complete"),
    ("out of range", "coset table is not complete"),
    ("not inverse", "coset table columns are not mutually inverse"),
    ("open relator", "relator does not close on the final table"),
    ("moved coset 0", "subgroup generator does not fix coset 0"),
])
def test_validate_rejects_corrupted_tables(kind, message):
    with pytest.raises(RuntimeError) as info:
        _validate(*_corrupt_table(kind))
    assert str(info.value) == message


def test_to_group_rejects_a_lift_whose_relator_does_not_close():
    # C3 over H = <a>: one coset, and a carries label 1.  Claiming
    # |H| = 2 lifts a to a transposition, on which a^3 does not close;
    # the lifted columns are still mutually inverse permutations.
    pres = parse_presentation("gens: a; rels: a^3")
    a = parse_word("a", pres.generators)
    table = CosetTable(pres, (a,), [[0], [0]], 1, [[1], [-1]], 2)
    with pytest.raises(RuntimeError) as info:
        to_group(table)
    assert str(info.value) == "relator does not close on the final table"


def _hlt_group(pres):
    # the oracle: the full table over the trivial subgroup, standardized
    return to_group(enumerate_cosets(pres))


def test_lifted_corpus_groups_equal_the_standardized_hlt_tables(
        corpus_groups):
    for name, group in corpus_groups:
        for part in group.meta.get("factors", (group,)):
            assert part.cols == _hlt_group(part.presentation).cols, name


@pytest.mark.parametrize("text", [
    dihedral_presentation(80),
    "gens: a, b; rels: a^151; b^10; b^-1*a*b = a^87",
    "gens: a, b; rels: a^90; b^9; [a,b]",
    "gens: x, y; rels: x^9; y^27; [x,y]^3; [x,y,x]; [x,y,y]",
])
def test_lifted_mixed_kinds_equal_the_standardized_hlt_tables(text):
    group = build_group(text)
    assert group.cols == _hlt_group(parse_presentation(text)).cols


def test_class3_p7_builds_within_its_own_order_of_cosets():
    # HLT over the trivial subgroup would need 2,000,000 cosets and a
    # lookahead pass; over <x> the limit only has to hold |G| itself.
    group = build_class3_p_group(7, max_cosets=117_649)
    assert group.size == 117_649
    with pytest.raises(EnumerationLimitError,
                       match="order 117649.*max_cosets=117648"):
        build_class3_p_group(7, max_cosets=117_648)
    # The refusal comes before the lifted table (four columns of 117,649
    # 8-byte entries, 3.8 MB) is allocated.
    pres = group.presentation
    table = enumerate_cosets(pres, (parse_word("x", pres.generators),))
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationLimitError):
            to_group(table, max_cosets=117_648)
        assert tracemalloc.get_traced_memory()[1] < 100_000
    finally:
        tracemalloc.stop()


def test_infinite_subgroup_gives_order_zero_and_no_group():
    pres = parse_presentation("gens: a, b; rels: b^2; (a*b)^2")
    table = enumerate_cosets(pres, (parse_word("a", pres.generators),))
    assert (table.coset_count, table.subgroup_order) == (2, 0)
    with pytest.raises(EnumerationLimitError, match="infinite"):
        to_group(table)


# -- the gcd of the labels the relators close with ---------------------------

def _unique_gcd_reference(cols, labs, rel_words, order):
    # The gcd as it was first taken: over the distinct label sums.
    every = np.arange(cols.shape[1])
    for w in rel_words:
        x, k = every, 0
        for l in w:
            if order != 1:
                k = k + labs[l][x]
            x = cols[l][x]
        order = gcd(order, *np.unique(k).tolist())
    return order


def _table_arrays(pres, subgroup_word):
    table = enumerate_cosets(pres, (subgroup_word,))
    n = table.coset_count
    cols = np.array(table.cols, dtype=np.int64).reshape(len(table.cols), n)
    labs = np.array(table.labels, dtype=np.int64).reshape(cols.shape)
    return cols, labs, _letter_words(pres, pres.relators)


def _assert_gcd_matches_reference(cols, labs, rel_words):
    # Entry 0 is _validate's with a subgroup generator, 1 its entry
    # without one (labs is then never read); -labs makes every label
    # sum negate, so the gcd must not depend on the signs.
    assert _close_relators(cols, None, rel_words, 1) == 1
    for table_labs in (labs, -labs):
        for order in (0, 12):
            assert (_close_relators(cols, table_labs, rel_words, order)
                    == _unique_gcd_reference(cols, table_labs, rel_words, order))


def test_relator_gcd_matches_the_unique_reference_on_the_corpus(corpus_groups):
    for name, group in corpus_groups:
        for part in group.meta.get("factors", (group,)):
            pres = part.presentation
            cols, labs, rel_words = _table_arrays(pres, word(pres.generators[0]))
            assert (labs < 0).any(), name
            _assert_gcd_matches_reference(cols, labs, rel_words)


# Metacyclic presentations a^m, b^n, a^b = a^r: <a> is normal, so the
# group has order at most m*n and every enumeration ends.
_letter = st.sampled_from(["a", "a^-1", "b", "b^-1"])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 6),
       st.integers(-3, 3).filter(lambda r: r != 0),
       st.lists(_letter, min_size=1, max_size=4))
def test_relator_gcd_matches_the_unique_reference_on_small_presentations(
        m, n, r, letters):
    pres = parse_presentation(f"gens: a, b; rels: a^{m}; b^{n}; b^-1*a*b = a^{r}")
    sub = parse_word("*".join(letters), pres.generators)
    cols, labs, rel_words = _table_arrays(pres, sub)
    _assert_gcd_matches_reference(cols, labs, rel_words)
