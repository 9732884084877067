import random
from itertools import product

import numpy as np
import pytest

from baerkit import engel
from baerkit.core import (
    ConcreteGroup,
    GroupError,
    Subgroup,
    derived_subgroup,
    nilpotency_class,
)
from baerkit.engel import (
    _inputs,
    check_expansion_formula,
    check_metabelian_identities,
    engel_bracket,
    is_left_n_engel,
    is_n_engel_group,
)
from baerkit.presentation import parse_word
from baerkit.verify import (
    alternating4_presentation,
    build_class4_2group,
    build_group,
    class3_p_group_presentation,
    cyclic_presentation,
    dihedral_presentation,
    symmetric_presentation,
)

from oracles import (
    right_engel_elements,
    scalar_expansion_formula,
    scalar_metabelian_identities,
)


def naive_engel_bracket(group, x, y, n):
    c = x
    for _ in range(n):
        c = group.comm(c, y)
    return c


def word_element(group, text):
    return group.word_to_element(parse_word(text, group.presentation.generators))


def test_engel_bracket_base_case(s3):
    a, b = s3.gen_element(0), s3.gen_element(1)
    assert engel_bracket(s3, a, b, 1) == s3.comm(a, b)


def test_engel_bracket_matches_naive_iteration(s4, d16):
    rng = random.Random(5)
    for group in (s4, d16):
        for _ in range(40):
            x = rng.randrange(group.size)
            y = rng.randrange(group.size)
            n = rng.randrange(1, 5)
            assert engel_bracket(group, x, y, n) == naive_engel_bracket(group, x, y, n)


def test_engel_bracket_frozen_in_class3_group(class3_p3):
    x, y = class3_p3.gen_element(0), class3_p3.gen_element(1)
    assert engel_bracket(class3_p3, x, y, 2) == class3_p3.power(x, 9)
    assert engel_bracket(class3_p3, x, y, 3) == 0


def test_bracket_depth_must_be_positive(s3):
    with pytest.raises(GroupError):
        engel_bracket(s3, 1, 2, 0)


def test_s3_transposition_is_not_left_engel(s3):
    b = s3.gen_element(1)
    report = is_left_n_engel(s3, b, 5)
    assert not report.holds
    assert report.witness is not None
    g_text, x_text = report.witness
    assert word_element(s3, x_text) == b
    assert engel_bracket(s3, word_element(s3, g_text), b, 5) != 0


def test_left_engel_holds_at_class_depth(d16, q8):
    for group, n in ((d16, 3), (q8, 2)):
        for x in range(group.size):
            assert is_left_n_engel(group, x, n).holds


@pytest.mark.parametrize("order", [(1, 2, 3, 4), (4, 3, 2, 1), (3, 1, 4, 2)])
def test_left_engel_memo_answers_like_a_direct_scan_in_any_order(order):
    # Fresh groups, asked about n in the order given: no answer may lean
    # on an earlier question.  In A4 some x have another least failing g
    # than their class representative has.
    texts = (symmetric_presentation(3), dihedral_presentation(16),
             class3_p_group_presentation(2), alternating4_presentation())
    for text in texts:
        group = build_group(text)
        for n in order:
            for x in range(group.size):
                failing = [g for g in range(group.size)
                           if naive_engel_bracket(group, g, x, n) != 0]
                report = is_left_n_engel(group, x, n)
                assert report.holds == (not failing), (text, n, x)
                if failing:
                    assert report.witness == (
                        str(group.element_word(failing[0])),
                        str(group.element_word(x)))


def _counting_tables(monkeypatch):
    calls = []
    real = ConcreteGroup.comm_with_perm
    monkeypatch.setattr(ConcreteGroup, "comm_with_perm",
                        lambda self, y: calls.append(y) or real(self, y))
    return calls


def test_engel_group_answers_from_the_memo(monkeypatch):
    # class4-2group has class 4, so n = 3 takes the bracket tables: one per
    # class representative.
    group = build_class4_2group()
    calls = _counting_tables(monkeypatch)
    assert is_n_engel_group(group, 3).holds
    assert calls == group.class_reps()


def test_engel_questions_at_or_past_the_class_build_no_table(monkeypatch):
    group = build_group(class3_p_group_presentation(3))
    assert nilpotency_class(group) == 3
    calls = _counting_tables(monkeypatch)
    for n in (3, 6):
        assert is_n_engel_group(group, n).holds
        assert is_left_n_engel(group, group.size - 1, n).holds
    assert calls == []


def _iterated(perm, n):
    """perm applied n times, pointwise."""
    cur = perm
    for _ in range(n - 1):
        cur = perm[cur]
    return cur


def _table_holds(group, y, n):
    """[x, n*y] = 1 for every x, from y's bracket table with no shortcut."""
    return not _iterated(group.comm_with_perm(y), n).any()


def test_engel_answers_match_the_table_scan_on_the_corpus(corpus_groups):
    for name, group in corpus_groups:
        reps = group.class_reps()
        for n in range(1, 7):
            table = [_table_holds(group, y, n) for y in reps]
            for y, holds in zip(reps, table):
                assert is_left_n_engel(group, y, n).holds == holds, (name, n, y)
            report = is_n_engel_group(group, n)
            assert report.holds == all(table), (name, n)
            if not report.holds:
                y = reps[table.index(False)]
                x = int(np.flatnonzero(_iterated(group.comm_with_perm(y), n))[0])
                assert report.witness == (str(group.element_word(x)),
                                          str(group.element_word(y)))


@pytest.mark.parametrize("presentation, n", [
    (symmetric_presentation(4), 2), (dihedral_presentation(16), 2),
    (None, 3)], ids=["s4", "d16", "class4-2group"])
def test_bracket_tables_still_answer_below_the_class(monkeypatch,
                                                     presentation, n):
    group = (build_group(presentation) if presentation
             else build_class4_2group())
    calls = _counting_tables(monkeypatch)
    reps = group.class_reps()
    want = [_table_holds(group, y, n) for y in reps]
    calls.clear()
    assert is_n_engel_group(group, n).holds == all(want)
    assert calls
    assert [is_left_n_engel(group, y, n).holds for y in reps] == want


def test_right_engel_report_agrees_with_direct_scan(d16, s3):
    for group in (d16, s3):
        for n in (1, 2, 3):
            right = set(right_engel_elements(group, n))
            for x in range(group.size):
                direct = all(
                    naive_engel_bracket(group, x, g, n) == 0
                    for g in range(group.size))
                assert (x in right) == direct


def test_right_engel_elements_match_direct_scan(d16, s3, q8):
    for group in (d16, s3, q8):
        for n in (1, 2, 3):
            direct = {
                x for x in range(group.size)
                if all(engel_bracket(group, x, g, n) == 0
                       for g in range(group.size))
            }
            assert set(right_engel_elements(group, n)) == direct


def test_right_one_engel_elements_form_the_center(q8, d16):
    for group in (q8, d16):
        elems = right_engel_elements(group, 1)
        sub = Subgroup.from_elements(group, elems)
        assert set(sub.elements) == set(elems)
        assert all(
            group.mult(a, g) == group.mult(g, a)
            for a in sub.elements for g in range(group.size))


def test_group_engel_identity_frozen(d8, d16, q8, s3):
    assert is_n_engel_group(d8, 2).holds
    assert is_n_engel_group(q8, 2).holds
    assert not is_n_engel_group(d16, 2).holds
    assert is_n_engel_group(d16, 3).holds
    report = is_n_engel_group(s3, 4)
    assert not report.holds
    assert report.witness is not None
    g_text, y_text = report.witness
    assert engel_bracket(
        s3, word_element(s3, g_text), word_element(s3, y_text), 4) != 0


def test_engel_group_matches_all_pairs_scan(s3, s4, q8, d16, class3_p2,
                                           class3_p5):
    for group in (s3, s4, q8, d16, class3_p2):
        for n in range(1, 5):
            naive = all(engel_bracket(group, x, y, n) == 0
                        for x in range(group.size) for y in range(group.size))
            assert is_n_engel_group(group, n).holds == naive
    assert is_n_engel_group(class3_p5, 3).holds


def test_nilpotent_groups_are_n_engel_at_their_class(class4_group, class3_p2):
    for group in (class4_group, class3_p2):
        n = nilpotency_class(group)
        assert is_n_engel_group(group, n).holds
    # 2-Engel forces class at most 3, so neither group can satisfy it.
    assert not is_n_engel_group(class4_group, 2).holds
    assert not is_n_engel_group(class3_p2, 2).holds


def test_metabelian_identities_hold_where_promised(d8, d16, q8, class3_p2):
    c12 = build_group(cyclic_presentation(12))
    for group in (d8, d16, q8, c12, class3_p2):
        for check in check_metabelian_identities(group):
            assert check.holds is True, (group.meta.get("name"), check.name)


def test_metabelian_identity_names_and_modes(d8):
    checks = check_metabelian_identities(d8)
    assert [c.name for c in checks] == [
        "swap-entries-after-first",
        "product-in-first-slot",
        "power-in-any-slot",
    ]
    assert all(c.mode == "exhaustive" for c in checks)
    assert all(c.trials > 0 for c in checks)


def test_metabelian_identities_reject_non_metabelian_groups(s4):
    with pytest.raises(GroupError):
        check_metabelian_identities(s4)


def test_power_identity_skipped_past_class_three(s3):
    checks = check_metabelian_identities(s3)
    power = checks[-1]
    assert power.name == "power-in-any-slot"
    assert power.holds is None
    assert power.mode == "skipped"
    assert "class" in power.note


def test_expansion_formula_hand_case_n2(d8, q8, class3_p2):
    # (x y^-1)^2 = x^2 [x,y] y^-2 whenever the derived subgroup is abelian.
    for group in (d8, q8, class3_p2):
        for x in range(group.size):
            for y in range(group.size):
                lhs = group.power(group.mult(x, group.inv(y)), 2)
                rhs = group.mult(
                    group.mult(group.power(x, 2), group.comm(x, y)),
                    group.power(y, -2))
                assert lhs == rhs


def test_expansion_check_exhaustive_on_small_groups(d16):
    checks = check_expansion_formula(d16, n_values=(1, 2, 3, 4, 5, 6))
    assert [c.name for c in checks] == [f"power-expansion-n{n}" for n in range(1, 7)]
    assert all(c.holds for c in checks)
    assert all(c.mode == "exhaustive" for c in checks)
    assert all(c.trials == d16.size * d16.size for c in checks)


def test_expansion_check_samples_large_groups(class3_p3):
    checks = check_expansion_formula(
        class3_p3, n_values=(1, 2, 3, 4, 5, 6, 7, 8), trials=50, seed=9)
    assert all(c.holds for c in checks)
    assert all(c.mode == "sampled" for c in checks)
    assert all(c.trials == 50 for c in checks)


def test_expansion_check_rejects_non_metabelian_groups(s4):
    with pytest.raises(GroupError):
        check_expansion_formula(s4)


def test_batched_checks_report_the_scalar_witnesses(s4, monkeypatch):
    # S4 is not metabelian, so with the guard lifted the identities fail;
    # each batched check must stop at the tuple the scalar loop stops at.
    monkeypatch.setattr(engel, "is_metabelian", lambda g: True)
    got = check_metabelian_identities(s4, seed=3)
    assert got == scalar_metabelian_identities(s4, seed=3)
    assert [(c.name, c.holds, c.mode, c.witness) for c in got] == [
        ("swap-entries-after-first", False, "exhaustive", "a^2, a, b"),
        ("product-in-first-slot", False, "sampled",
         "a*b*a^-1, b*a^2*b, a^2*b*a, n=3"),
        ("power-in-any-slot", None, "skipped", None),
    ]
    got = check_expansion_formula(s4, seed=3)
    assert got == scalar_expansion_formula(s4, seed=3)
    assert [c.name for c in got if c.holds is False] == [
        f"power-expansion-n{n}" for n in (3, 4, 5, 6)]
    # A claimed class of 3 lets the power family run and fail too.
    monkeypatch.setattr(engel, "nilpotency_class", lambda g: 3)
    got = check_metabelian_identities(s4, seed=3)
    assert got == scalar_metabelian_identities(s4, seed=3)
    assert (got[2].holds, got[2].witness) == (False, "a^2*b*a, a*b, a^2*b*a^-1, m=3")


def test_batched_checks_match_the_scalar_reference_where_they_hold(
        d16, class3_p2, class3_p3):
    for group in (d16, class3_p2, class3_p3):
        for seed in (0, 7):
            got = check_metabelian_identities(group, seed=seed, trials=60)
            assert got == scalar_metabelian_identities(group, seed=seed,
                                                       trials=60)
            assert all(c.holds for c in got)
            for bound in (64, 8):
                got = check_expansion_formula(
                    group, trials=60, seed=seed, exhaustive_order_bound=bound)
                assert got == scalar_expansion_formula(
                    group, trials=60, seed=seed, exhaustive_order_bound=bound)
                assert all(c.holds for c in got)
    modes = {c.mode for g in (d16, class3_p2, class3_p3)
             for c in check_metabelian_identities(g, trials=60)
             + check_expansion_formula(g, trials=60)}
    assert modes == {"exhaustive", "sampled"}


@pytest.mark.parametrize("n_values", [(5, 2, 8), (3,), (6, 1, 4, 4), (0, -2, 3)])
def test_expansion_check_takes_n_values_in_any_order(
        n_values, d16, class3_p2, s4, monkeypatch):
    # Out of order, with gaps, repeated, or below 1 (where the product of
    # brackets is empty and x^n * y^-n alone is compared): every check
    # equals the scalar reference and comes back in n_values order.
    for group, bound in ((d16, 64), (class3_p2, 8)):
        got = check_expansion_formula(group, n_values=n_values, trials=40,
                                      seed=5, exhaustive_order_bound=bound)
        assert got == scalar_expansion_formula(
            group, n_values=n_values, trials=40, seed=5,
            exhaustive_order_bound=bound)
        assert [c.name for c in got] == [
            f"power-expansion-n{n}" for n in n_values]
        assert {c.mode for c in got} == {
            "exhaustive" if group is d16 else "sampled"}
    monkeypatch.setattr(engel, "is_metabelian", lambda g: True)
    got = check_expansion_formula(s4, n_values=n_values, seed=3)
    assert got == scalar_expansion_formula(s4, n_values=n_values, seed=3)
    assert [c.name for c in got] == [f"power-expansion-n{n}" for n in n_values]
    # S4's derived subgroup A4 is not abelian: past n = 2 the expansion
    # fails, and so does n = -2, since x^-2 * y^2 need not be (x*y^-1)^-2.
    assert [c.holds for c in got] == [n in (0, 1, 2) for n in n_values]


def test_inputs_enumerate_up_to_the_limit_and_sample_past_it():
    pools = ((3, 5, 7), range(4), (-1, 2))
    cols, mode = _inputs(random.Random(1), pools, 10, 24)
    assert mode == "exhaustive"
    assert cols.T.tolist() == [list(t) for t in product(*pools)]
    cols, mode = _inputs(random.Random(1), pools, 10, 23)
    tuples = cols.T.tolist()
    assert mode == "sampled"
    assert len(tuples) == 10
    assert all(len(t) == 3 and all(v in pool for v, pool in zip(t, pools))
               for t in tuples)


def test_inputs_sample_the_same_draws_as_randrange():
    # The sampled tuples repeat the draws of the hand-written loops they
    # replaced, so seeded reports keep their bytes.
    derived, size, ns = (0, 4, 9, 11), 50, (1, 2, 3)
    rng = random.Random(77)
    old = [(rng.choice(derived), rng.randrange(size), rng.randrange(size),
            rng.choice(ns)) for _ in range(30)]
    elems = range(size)
    new, mode = _inputs(random.Random(77), (derived, elems, elems, ns), 30, 0)
    assert mode == "sampled"
    assert new.T.tolist() == [list(t) for t in old]


def test_input_columns_hold_the_product_in_order(class3_p2):
    pools = (derived_subgroup(class3_p2).elements, range(7), (-2, -1, 2, 3, 5))
    count = len(pools[0]) * 7 * 5
    cols, mode = _inputs(random.Random(0), pools, 10, count)
    assert mode == "exhaustive"
    assert cols.dtype == np.int64 and cols.shape == (3, count)
    assert cols.T.tolist() == [list(t) for t in product(*pools)]


@pytest.mark.parametrize("seed", [0, 5, 91])
def test_sampled_input_columns_repeat_the_choice_draws(class3_p2, seed):
    pools = (derived_subgroup(class3_p2).elements, range(64), (-2, -1, 2, 3, 5))
    rng = random.Random(seed)
    want = [[rng.choice(pool) for pool in pools] for _ in range(40)]
    cols, mode = _inputs(random.Random(seed), pools, 40, 100)
    assert mode == "sampled"
    assert cols.dtype == np.int64 and cols.shape == (3, 40)
    assert cols.T.tolist() == want


def test_forced_failures_name_the_first_failing_tuple(monkeypatch):
    # comm is off wherever its first argument is r^2, in the batched and
    # the scalar arithmetic alike, so every family fails somewhere and
    # each check must name the tuple the scalar loop over its inputs
    # stops at.  That loop takes its tuples from the same _inputs, so the
    # witnesses are pinned as well: they fix the input order too.
    group = build_group(dihedral_presentation(16))
    r = group.gen_element(0)
    t = group.word_to_element(parse_word("r^2", group.gen_names))
    comm_batch, comm = group.comm_batch, group.comm
    monkeypatch.setattr(group, "comm_batch", lambda a, b: np.where(
        np.equal(a, t), group.mult_batch(comm_batch(a, b), r), comm_batch(a, b)))
    monkeypatch.setattr(group, "comm", lambda a, b: (
        group.mult(comm(a, b), r) if a == t else comm(a, b)))
    got = check_metabelian_identities(group, seed=5)
    assert got == scalar_metabelian_identities(group, seed=5)
    assert [(c.name, c.holds, c.mode, c.witness) for c in got] == [
        ("swap-entries-after-first", False, "exhaustive", "r^2, 1, s"),
        ("product-in-first-slot", False, "exhaustive", "r, r, 1, n=1"),
        ("power-in-any-slot", False, "sampled", "r^3, r^-2*s, 1, m=3"),
    ]
    got = check_expansion_formula(group, seed=5)
    assert got == scalar_expansion_formula(group, seed=5)
    assert [c.witness for c in got] == [None, "r^2, 1"] + ["r^-1, s"] * 4
