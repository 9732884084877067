import math
import random
import re

import numpy as np
import pytest

from baerkit.core import (
    ConcreteGroup,
    GroupError,
    Subgroup,
    center,
    centralizer,
    derived_length,
    derived_series,
    derived_subgroup,
    direct_product,
    exponent,
    factorize,
    frattini_p_group,
    is_metabelian,
    lower_central_series,
    nilpotency_class,
    normal_closure,
    quotient,
    sylow_decomposition,
    upper_central_series,
)
from baerkit.presentation import Word, free_reduce, parse_word
from baerkit.subnormal import t_n_subgroup
from baerkit.verify import (
    build_class3_p_group,
    build_group,
    cyclic_presentation,
    dihedral_presentation,
)

from oracles import (
    c6_model,
    d8_model,
    find_isomorphism,
    naive_center,
    naive_centralizer,
    naive_derived_series,
    naive_lower_central_class,
    naive_order,
    naive_upper_central_series,
    per_element_direct_product,
    per_element_quotient,
    per_element_sylow_parts,
    q8_model,
    s3_model,
)


def _extra_pairs(group):
    # The column pairs added for shallow words.
    return (len(group.ext_cols) - len(group.cols)) // 2


def _orders(group):
    return sorted(group.element_order(e) for e in range(group.size))


def test_factorize_frozen_values():
    assert factorize(1) == {}
    assert factorize(720) == {2: 4, 3: 2, 5: 1}
    assert factorize(15625) == {5: 6}


def test_identity_and_inverses(s4):
    for e in range(s4.size):
        assert s4.mult(e, 0) == e
        assert s4.mult(0, e) == e
        assert s4.mult(e, s4.inv(e)) == 0
        assert s4.mult(s4.inv(e), e) == 0


def test_multiplication_is_associative_on_sampled_triples(s4):
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (rng.randrange(s4.size) for _ in range(3))
        assert s4.mult(s4.mult(a, b), c) == s4.mult(a, s4.mult(b, c))


def test_presented_groups_match_hand_built_models(s3):
    assert find_isomorphism(s3, s3_model(), {"a": 3, "b": 1})
    c6 = build_group(cyclic_presentation(6), name="C6")
    assert find_isomorphism(c6, c6_model(), {"a": 1})


def test_s3_isomorphism_via_generator_search(s3):
    model = s3_model()
    a = s3.gen_element(0)
    b = s3.gen_element(1)
    candidates_a = [e for e in range(model.size) if naive_order(model, e) == 3]
    candidates_b = [e for e in range(model.size) if naive_order(model, e) == 2]
    assert any(
        find_isomorphism(s3, model, {"a": ia, "b": ib})
        for ia in candidates_a for ib in candidates_b)
    assert s3.element_order(a) == 3
    assert s3.element_order(b) == 2


def test_q8_isomorphism_via_generator_search(q8):
    model = q8_model()
    fours = [e for e in range(model.size) if naive_order(model, e) == 4]
    assert any(
        find_isomorphism(q8, model, {"a": ia, "b": ib})
        for ia in fours for ib in fours)


def test_d8_isomorphism_via_generator_search(d8):
    model = d8_model()
    fours = [e for e in range(model.size) if naive_order(model, e) == 4]
    twos = [e for e in range(model.size) if naive_order(model, e) == 2]
    assert any(
        find_isomorphism(d8, model, {"r": ir, "s": is_})
        for ir in fours for is_ in twos)


def test_element_order_profiles_frozen(s3, d8, q8):
    assert _orders(s3) == [1, 2, 2, 2, 3, 3]
    assert _orders(d8) == [1, 2, 2, 2, 2, 2, 4, 4]
    assert _orders(q8) == [1, 2, 4, 4, 4, 4, 4, 4]


def test_power_matches_iterated_multiplication(s4):
    rng = random.Random(3)
    for _ in range(50):
        e = rng.randrange(s4.size)
        k = rng.randrange(-12, 13)
        acc = 0
        step = e if k >= 0 else s4.inv(e)
        for _ in range(abs(k)):
            acc = s4.mult(acc, step)
        assert s4.power(e, k) == acc


def test_center_orders_frozen(s3, d8, q8):
    assert center(s3).size == 1
    assert center(d8).size == 2
    assert center(q8).size == 2
    assert set(center(q8).elements) == {
        e for e in range(q8.size) if q8.element_order(e) <= 2}


def test_center_agrees_with_naive_scan(d8, q8):
    for group in (d8, q8):
        assert set(center(group).elements) == set(naive_center(group))


def test_conjugacy_class_sizes_frozen(s3, d8, q8, s4):
    assert sorted(len(c) for c in s3.conjugacy_classes()) == [1, 2, 3]
    assert sorted(len(c) for c in d8.conjugacy_classes()) == [1, 1, 2, 2, 2]
    assert sorted(len(c) for c in q8.conjugacy_classes()) == [1, 1, 2, 2, 2]
    assert sorted(len(c) for c in s4.conjugacy_classes()) == [1, 3, 6, 6, 8]


def test_conjugation_preserves_order_and_class(s4):
    rng = random.Random(11)
    for _ in range(100):
        x = rng.randrange(s4.size)
        g = rng.randrange(s4.size)
        y = s4.conj(x, g)
        assert s4.element_order(x) == s4.element_order(y)
        assert any(x in cl and y in cl for cl in s4.conjugacy_classes())


@pytest.fixture(scope="module")
def map_groups(s3, s4, q8, d16, class3_p2):
    """Groups for the whole-group maps: presented ones, a quotient and a
    direct product."""
    return [s4, q8, d16, class3_p2, quotient(d16, center(d16)),
            direct_product(q8, s3)]


def test_comm_with_perm_matches_pointwise(map_groups):
    rng = random.Random(13)
    for group in map_groups:
        n = group.size
        for e in range(n):
            assert group.mult(e, group.inv(e)) == 0
        for l, perm in enumerate(group._conj_perms):
            s = group.cols[l][0]
            assert perm.tolist() == [group.conj(e, s) for e in range(n)]
        picks = group.generator_elements() + [rng.randrange(n) for _ in range(4)]
        for y in picks:
            table = group.comm_with_perm(y)
            assert table.tolist() == [group.comm(x, y) for x in range(n)]
            conj = group._along_tree(y, group._conj_perms)
            assert conj.tolist() == [group.conj(y, g) for g in range(n)]


def test_comm_with_perm_of_a_central_element_is_all_zeros(q8, class3_p2):
    c6xc60 = build_group("gens: a, b; rels: a^6; b^60; [a, b]")
    for group in (q8, class3_p2, c6xc60):
        cols = group._npcols
        central = center(group).elements
        assert len(central) > 1
        for y in central:
            table = group.comm_with_perm(y)
            assert table.dtype == np.int64
            assert table.tolist() == [0] * group.size
            # The fill the shortcut skips gives the same map.
            fill = group._along_tree(group.inv(y), group._conj_perms)
            for l in group.shallow_word[y]:
                fill = cols[l][fill]
            assert fill.tolist() == table.tolist()


def _deepest(lengths):
    depth = max(lengths)
    return [e for e, k in enumerate(lengths) if k == depth]


def test_batched_arithmetic_matches_scalar(map_groups):
    rng = random.Random(19)
    deep = build_group(dihedral_presentation(400))
    # Here letter * size passes 2**16, so the gather offsets must be
    # computed in a wide integer type whatever numpy's casting rules are.
    wide = build_group("gens: a, b; rels: a^150; b^150; [a, b]")
    c1000 = build_group(cyclic_presentation(1000))
    for group in map_groups + [deep, wide, c1000]:
        n = group.size
        rep = [group.element_word(e).letter_count() for e in range(n)]
        deepest = _deepest(rep) + _deepest(list(map(len, group.shallow_word)))
        a = [0, 0] + deepest + [rng.randrange(n) for _ in range(40)]
        b = deepest + [0, rng.randrange(n)] + [rng.randrange(n) for _ in range(40)]
        A, B = np.array(a), np.array(b)
        assert group.mult_batch(A, B).tolist() == \
            [group.mult(x, y) for x, y in zip(a, b)]
        assert group.comm_batch(A, B).tolist() == \
            [group.comm(x, y) for x, y in zip(a, b)]
        for k in range(-5, 6):
            assert group.power_batch(A, k).tolist() == \
                [group.power(x, k) for x in a]
        empty = np.array([], dtype=np.int64)
        for op in (group.mult_batch, group.comm_batch):
            assert op(empty, empty).size == 0
        assert group.power_batch(empty, 3).size == 0
        assert group.power_batch(empty, 0).size == 0
        # A scalar on either side, as the SymPy oracle multiplies an
        # arange by one element.
        for y in (0, deepest[0], b[-1]):
            got = group.mult_batch(A, y)
            assert got.dtype == np.int64
            assert got.tolist() == [group.mult(x, y) for x in a]
            assert group.comm_batch(A, y).tolist() == \
                [group.comm(x, y) for x in a]
        for x in (deepest[0], a[-1]):
            got = group.mult_batch(x, B)
            assert got.dtype == np.int64
            assert got.tolist() == [group.mult(x, y) for y in b]
            assert group.comm_batch(x, B).tolist() == \
                [group.comm(x, y) for y in b]
        # 2-D index arrays keep their shape.
        A2, B2 = A[:40].reshape(5, 8), B[:40].reshape(5, 8)
        for op, scalar in ((group.mult_batch, group.mult),
                           (group.comm_batch, group.comm)):
            got = op(A2, B2)
            assert got.shape == (5, 8) and got.dtype == np.int64
            assert got.ravel().tolist() == \
                [scalar(x, y) for x, y in zip(a[:40], b[:40])]
        for k in (-3, 2, 7):
            got = group.power_batch(A2, k)
            assert got.shape == (5, 8) and got.dtype == np.int64
            assert got.ravel().tolist() == [group.power(x, k) for x in a[:40]]
        assert group.mult_batch(A, B).dtype == np.int64
        assert group.mult_batch(A.astype(np.int32), B).dtype == np.int64


def _walk(cols, word):
    e = 0
    for l in word:
        e = cols[l][e]
    return e


def test_shallow_and_representative_words_spell_each_element(
        s3, s4, q8, d16, class3_p2):
    d80 = build_group(dihedral_presentation(80))
    c6xc60 = build_group("gens: a, b; rels: a^6; b^60; [a, b]")
    # A quotient is numbered by least coset member and a product by
    # pairs; the product's tree reaches its elements out of index order.
    for group in (s4, d80, c6xc60, class3_p2, quotient(d16, center(d16)),
                  direct_product(q8, s3)):
        assert len(group.cols) == 2 * group.ngens
        assert len(group.ext_cols) == len(group.cols) + 2 * _extra_pairs(group)
        for e in range(group.size):
            assert _walk(group.ext_cols, group.shallow_word[e]) == e
            assert group.word_to_element(group.element_word(e)) == e
    assert _extra_pairs(d80) == 2  # so the walks cover extra columns


@pytest.mark.parametrize("text, pairs, letters", [
    (dihedral_presentation(256), 4, 860),
    (dihedral_presentation(400), 4, 1744),
    ("gens: a, b; rels: a^6; b^60; [a, b]", 3, 1350),
    (cyclic_presentation(1000), 4, 16993),
    ("gens: a; rels: a", 0, 0),
    (cyclic_presentation(2), 0, 1),
])
def test_extra_pairs_and_shallow_word_letters_are_pinned(text, pairs, letters):
    group = build_group(text)
    assert _extra_pairs(group) == pairs
    assert sum(map(len, group.shallow_word)) == letters
    assert sum(map(len, group.shallow_word)) <= 5 * group.size or pairs == 4


def test_class3_p5_extra_pairs_are_pinned(class3_p5):
    assert _extra_pairs(class3_p5) == 3
    assert sum(map(len, class3_p5.shallow_word)) == 76922
    assert sum(class3_p5.element_word(e).letter_count()
               for e in range(class3_p5.size)) == 204436


def test_extra_pairs_leave_a_pad_letter_in_a_byte():
    # 124 generators use letters 0..247, so three pairs fit below the
    # pad letter 254 and a fourth would not.
    names = [f"a{i}" for i in range(1, 125)]
    text = (f"gens: {', '.join(names)}; rels: a1^200; "
            + "; ".join(f"{g} = a1" for g in names[1:]))
    group = build_group(text)
    assert group.size == 200
    assert _extra_pairs(group) == 3
    assert len(group.ext_cols) == 254
    assert max(max(w, default=0) for w in group.shallow_word) < 254
    a = np.arange(group.size)
    b = a[::-1].copy()
    assert group.mult_batch(a, b).tolist() == \
        [group.mult(x, y) for x, y in zip(a.tolist(), b.tolist())]


def _queue_words(cols):
    # breadth-first with a queue, each element's letters in order
    words = {0: b""}
    queue = [0]
    for e in queue:
        for l, col in enumerate(cols):
            if col[e] not in words:
                words[col[e]] = words[e] + bytes((l,))
                queue.append(col[e])
    return [words[e] for e in range(len(cols[0]))]


def _spelled(group, letters):
    return free_reduce(Word(tuple(
        (group.gen_names[l // 2], -1 if l % 2 else 1) for l in letters)))


def test_representative_words_are_the_queue_search_words():
    # A shuffled numbering, so the search order is not 0..n-1.
    rng = random.Random(23)
    for text in (dihedral_presentation(40), "gens: a, b; rels: a^6; b^20; [a, b]"):
        std = build_group(text)
        new = [0] + rng.sample(range(1, std.size), std.size - 1)
        cols = [[0] * std.size for _ in std.cols]
        for col, out in zip(std.cols, cols):
            for x in range(std.size):
                out[new[x]] = new[col[x]]
        group = ConcreteGroup(cols)
        assert _extra_pairs(group) > 0
        assert [group.element_word(e) for e in range(group.size)] == \
            [_spelled(group, w) for w in _queue_words(group.cols)]
        shortest = _queue_words(group.ext_cols)
        assert list(map(len, group.shallow_word)) == list(map(len, shortest))


def test_intransitive_columns_are_refused():
    with pytest.raises(GroupError, match="transitive"):
        ConcreteGroup([[0, 1, 2, 3], [0, 1, 2, 3], [1, 0, 3, 2], [1, 0, 3, 2]])


@pytest.mark.parametrize("cols, names, message", [
    ([[0]], None, "need one column per generator letter (gen, inverse)"),
    ([], None, "need one column per generator letter (gen, inverse)"),
    ([[0, 1], [0]], None, "ragged column lengths"),
    ([[0, 0], [0, 1]], None, "column 0 is not a permutation"),
    ([[1, 2, 0], [1, 2, 0]], None, "columns 0 and 1 are not mutually inverse"),
    ([[1, 0], [1, 0]], ("a", "b"), "generator names do not match columns"),
])
def test_malformed_columns_are_refused(cols, names, message):
    with pytest.raises(GroupError, match=f"^{re.escape(message)}$"):
        ConcreteGroup(cols, gen_names=names)


def test_groups_built_from_arrays_and_lists_agree():
    for text in (dihedral_presentation(40),
                 "gens: a, b; rels: a^6; b^20; [a, b]"):
        arr = np.array(build_group(text).cols, dtype=np.int64)
        from_array, from_list = ConcreteGroup(arr), ConcreteGroup(arr.tolist())
        assert _extra_pairs(from_array) > 0
        for name in ("cols", "ext_cols", "shallow_word"):
            assert getattr(from_array, name) == getattr(from_list, name)
        for a, b in zip(from_array._word_tree, from_list._word_tree):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("bad", [-1, 3])
def test_columns_holding_an_out_of_range_entry_are_refused(bad):
    # -1 would wrap and 3 would overrun as an index; neither may get past
    # the permutation check, whichever column holds it.
    for l in range(4):
        cols = [[0, 1, 2], [0, 1, 2], [1, 2, 0], [2, 0, 1]]
        cols[l][1] = bad
        expected = (f"column {l} is not a permutation" if l % 2 == 0 else
                    f"columns {l - 1} and {l} are not mutually inverse")
        for given in (cols, np.array(cols)):
            with pytest.raises(GroupError, match=f"^{re.escape(expected)}$"):
                ConcreteGroup(given)


def test_groups_with_too_many_generators_are_refused():
    with pytest.raises(GroupError, match="more than 127 generators"):
        ConcreteGroup([[0]] * 256)


def test_whole_group_maps_agree_with_naive_scans(map_groups):
    rng = random.Random(17)
    for group in map_groups:
        n = group.size
        assert frozenset(center(group).elements) == naive_center(group)
        assert [frozenset(z.elements) for z in upper_central_series(group)] \
            == naive_upper_central_series(group)
        for _ in range(3):
            xs = [rng.randrange(n) for _ in range(rng.randrange(1, 3))]
            assert frozenset(centralizer(group, xs).elements) \
                == naive_centralizer(group, xs)
        assert centralizer(group, []).is_whole()


def test_series_agree_with_naive_closures(map_groups):
    for group in map_groups:
        assert nilpotency_class(group) == naive_lower_central_class(group)
        assert [set(z.elements) for z in derived_series(group)] \
            == naive_derived_series(group)


def test_element_orders_and_exponent_agree_with_naive_loop(map_groups):
    for group in map_groups:
        orders = [naive_order(group, e) for e in range(group.size)]
        assert [group.element_order(e) for e in range(group.size)] == orders
        assert exponent(group) == math.lcm(*orders)


def _shares_ints(group, values):
    ints = group._ints
    return all(v is ints[v] for v in values)


def test_per_element_lists_share_the_groups_ints():
    # Fresh groups, so that no earlier test has filled their memos or
    # subgroup tables.  Only the orders past 256 tell shared ints from
    # equal ones; CPython keeps one object for each int up to 256.
    d16 = build_group(dihedral_presentation(16))
    product = direct_product(build_group(dihedral_presentation(16)),
                             build_group(cyclic_presentation(81)))
    z = product.meta["embed_left"][center(product.meta["factors"][0]).elements[1]]
    groups = [build_class3_p_group(3), d16, product,
              quotient(product, Subgroup.cyclic(product, z))]
    assert [g.size for g in groups] == [729, 16, 1296, 648]
    for group in groups:
        assert group._inv == group._inv_table.tolist()
        assert _shares_ints(group, group._inv)
        classes = group._classes
        assert sorted(e for cl in classes for e in cl) == list(range(group.size))
        assert [cl[0] for cl in classes] == sorted(cl[0] for cl in classes)
        for cl in classes:
            assert cl == sorted(cl)
            assert {int(p[e]) for p in group._conj_perms for e in cl} <= set(cl)
            assert _shares_ints(group, cl)
        assert all(group._class_rep[e] == cl[0] for cl in classes for e in cl)
        assert _shares_ints(group, group._class_rep)
        for term in (center(group), *upper_central_series(group)):
            assert _shares_ints(group, term.elements + term.gens)


def test_nilpotency_class_frozen(s3, s4, d8, d16, q8):
    assert nilpotency_class(s3) is None
    assert nilpotency_class(s4) is None
    assert nilpotency_class(d8) == 2
    assert nilpotency_class(d16) == 3
    assert nilpotency_class(q8) == 2
    c6 = build_group(cyclic_presentation(6))
    assert nilpotency_class(c6) == 1


def test_lower_central_series_of_dihedral_16(d16):
    sizes = [s.size for s in lower_central_series(d16)]
    assert sizes == [16, 4, 2, 1]


def test_upper_central_series_starts_at_center(d8, d16):
    series = upper_central_series(d8)
    assert [s.size for s in series] == [2, 8]
    series = upper_central_series(d16)
    assert [s.size for s in series] == [2, 4, 16]


def test_derived_series_and_length(s3, s4, q8):
    assert [s.size for s in derived_series(s4)] == [24, 12, 4, 1]
    assert derived_length(s4) == 3
    assert derived_length(s3) == 2
    assert derived_length(q8) == 2
    assert is_metabelian(s3)
    assert not is_metabelian(s4)


def test_derived_subgroup_frozen(s3, d8, q8):
    assert derived_subgroup(s3).size == 3
    assert derived_subgroup(d8).size == 2
    assert derived_subgroup(q8).size == 2


def test_exponent_frozen(s3, q8):
    assert exponent(s3) == 6
    assert exponent(q8) == 4
    c12 = build_group(cyclic_presentation(12))
    assert exponent(c12) == 12


def test_normal_closure_in_symmetric_groups(s3, s4):
    b = s3.gen_element(1)
    assert normal_closure([b], s3).size == 6
    a = s3.gen_element(0)
    assert normal_closure([a], s3).size == 3
    double = s4.power(s4.gen_element(0), 2)
    assert normal_closure([double], s4).size == 4


def test_centralizer_in_d8(d8):
    r = d8.gen_element(0)
    assert centralizer(d8, [r]).size == 4


def test_subgroup_generated_and_from_elements(d8):
    r = d8.gen_element(0)
    h = Subgroup.generated(d8, [r])
    assert h.size == 4
    again = Subgroup.from_elements(d8, h.elements)
    assert again.elements == h.elements
    with pytest.raises(GroupError):
        Subgroup.from_elements(d8, [0, r])


def test_quotient_of_s4_by_klein_four(s4):
    double = s4.power(s4.gen_element(0), 2)
    v4 = normal_closure([double], s4)
    q = quotient(s4, v4)
    assert q.size == 6
    assert nilpotency_class(q) is None
    assert derived_length(q) == 2


def test_quotient_of_d8_by_center_is_klein(d8):
    q = quotient(d8, center(d8))
    assert q.size == 4
    assert exponent(q) == 2


def test_quotient_requires_normal_subgroup(d8):
    s = d8.gen_element(1)
    with pytest.raises(GroupError):
        quotient(d8, Subgroup.generated(d8, [s]))


def test_direct_product_c2_c3_is_cyclic():
    c2 = build_group(cyclic_presentation(2))
    c3 = build_group(cyclic_presentation(3))
    g = direct_product(c2, c3)
    assert g.size == 6
    assert _orders(g) == [1, 2, 3, 3, 6, 6]


def test_direct_product_embeddings_commute(q8):
    c3 = build_group(cyclic_presentation(3))
    g = direct_product(q8, c3)
    factor_left, factor_right = g.meta["factors"]
    assert factor_left is q8 and factor_right is c3
    left = g.meta["embed_left"]
    right = g.meta["embed_right"]
    for a in range(q8.size):
        for b in range(c3.size):
            assert g.mult(left[a], right[b]) == g.mult(right[b], left[a])
    assert nilpotency_class(g) == 2
    assert exponent(g) == 12


def test_direct_product_of_groups_with_extra_pairs_embeds_both():
    d40 = build_group(dihedral_presentation(40))
    c60 = build_group(cyclic_presentation(60))
    g = direct_product(d40, c60)
    assert (_extra_pairs(d40), _extra_pairs(c60), _extra_pairs(g)) == (1, 2, 4)
    left, right = g.meta["embed_left"], g.meta["embed_right"]
    for factor, embed in ((d40, left), (c60, right)):
        assert len(set(embed)) == factor.size
        for a in range(factor.size):
            for b in range(factor.size):
                assert g.mult(embed[a], embed[b]) == embed[factor.mult(a, b)]
    for a in range(d40.size):
        for b in range(c60.size):
            assert g.mult(left[a], right[b]) == g.mult(right[b], left[a])


def test_sylow_decomposition_of_c12():
    c12 = build_group(cyclic_presentation(12))
    parts = dict(sylow_decomposition(c12))
    assert sorted(parts) == [2, 3]
    assert parts[2].size == 4
    assert parts[3].size == 3


def test_sylow_decomposition_rejects_non_nilpotent(s3):
    with pytest.raises(GroupError):
        sylow_decomposition(s3)


def _factor(request, factor):
    """A session fixture by name, or the cyclic group of that order."""
    if isinstance(factor, int):
        return build_group(cyclic_presentation(factor))
    return request.getfixturevalue(factor)


@pytest.mark.parametrize("name, normal", [
    pytest.param("d16", center, id="d16-center"),
    pytest.param("s4", lambda g: normal_closure([g.power(g.gen_element(0), 2)], g),
                 id="s4-v4"),
    pytest.param("class3_p3", lambda g: t_n_subgroup(g, 2), id="p3-t2"),
])
def test_quotient_matches_the_per_element_cosets(request, name, normal):
    group = request.getfixturevalue(name)
    n = normal(group)
    q = quotient(group, n)
    assert q.cols == per_element_quotient(group, n)
    assert (q.gen_names, q.meta) == (group.gen_names, {})


@pytest.mark.parametrize("left, right", [
    pytest.param("q8", "s3", id="q8xs3"),
    pytest.param("class3_p3", 2, id="p3xc2"),
])
def test_direct_product_matches_the_per_element_pairs(request, left, right):
    g, h = _factor(request, left), _factor(request, right)
    product = direct_product(g, h)
    cols, names, embed = per_element_direct_product(g, h)
    assert product.cols == cols
    assert product.gen_names == names
    assert product.meta == {**embed, "factors": (g, h)}


@pytest.mark.parametrize("left, right", [
    pytest.param("class3_p3", 2, id="p3xc2"),
    pytest.param("q8", 3, id="q8xc3"),
])
def test_sylow_parts_are_the_elements_of_prime_power_order(request, left, right):
    group = direct_product(_factor(request, left), _factor(request, right))
    parts = [(p, list(sub.elements)) for p, sub in sylow_decomposition(group)]
    assert parts == list(per_element_sylow_parts(group).items())


def test_frattini_subgroup_of_two_groups(d8, q8):
    assert frattini_p_group(d8, 2).size == 2
    assert frattini_p_group(q8, 2).size == 2
    assert set(frattini_p_group(q8, 2).elements) == set(center(q8).elements)


def test_frattini_rejects_wrong_prime(d8):
    with pytest.raises(GroupError):
        frattini_p_group(d8, 3)


def test_word_round_trip(s4):
    for e in range(s4.size):
        assert s4.word_to_element(s4.element_word(e)) == e


def test_word_to_element_takes_large_exponents_at_once(d8):
    r = d8.gen_element(0)
    assert d8.word_to_element(parse_word("r^1000000001", d8.gen_names)) == r
    assert d8.word_to_element(parse_word("r^-1000000001", d8.gen_names)) == d8.inv(r)
