import random

import pytest

from baerkit.core import GroupError, Subgroup, center
from baerkit.subnormal import (
    GENERALIZED_T2,
    NOT_GENERALIZED_BAER2,
    TWO_BAER,
    all_subgroups,
    brute_force_defect,
    classify,
    cyclic_defect,
    defect,
    is_n_subnormal,
    t_n_subgroup,
    t_n_within,
)
from baerkit.verify import (
    build_class3_p_group,
    build_group,
    cyclic_presentation,
    dihedral_presentation,
)

from oracles import (
    naive_all_subgroups,
    naive_closure,
    naive_defect,
    naive_t2,
    per_element_t_n_within,
)


def test_defect_zero_is_the_whole_group(s3):
    whole = Subgroup.whole(s3)
    assert defect(whole, s3).defect == 0


def test_trivial_subgroup_is_normal(s3):
    res = defect(Subgroup.trivial(s3), s3)
    assert res.defect == 1
    assert res.is_subnormal


def test_d8_reflection_has_defect_two(d8):
    s = d8.gen_element(1)
    res = cyclic_defect(d8, s)
    assert res.defect == 2
    assert res.within(2)
    assert not res.within(1)


def test_d8_rotation_is_normal(d8):
    r = d8.gen_element(0)
    assert cyclic_defect(d8, r).defect == 1
    assert cyclic_defect(d8, d8.power(r, 2)).defect == 1


def test_s3_transposition_is_not_subnormal(s3):
    b = s3.gen_element(1)
    res = cyclic_defect(s3, b)
    assert res.defect is None
    assert not res.is_subnormal
    assert "not subnormal" in str(res)


def test_s3_rotation_subgroup_is_normal(s3):
    a = s3.gen_element(0)
    assert cyclic_defect(s3, a).defect == 1


def test_q8_every_cyclic_subgroup_is_normal(q8):
    for e in range(q8.size):
        assert cyclic_defect(q8, e).defect <= 1


def test_d16_reflection_has_defect_three(d16):
    s = d16.gen_element(1)
    assert cyclic_defect(d16, s).defect == 3


def test_defect_in_subgroup_ambient(d16):
    s = d16.gen_element(1)
    r2 = d16.power(d16.gen_element(0), 2)
    mid = Subgroup.generated(d16, [s, r2])
    assert mid.size == 8
    res = defect(Subgroup.generated(d16, [s]), mid)
    assert res.defect == 2


def test_subgroup_counts_frozen(s3, q8, d8):
    assert len(all_subgroups(s3)) == 6
    assert len(all_subgroups(q8)) == 6
    assert len(all_subgroups(d8)) == 10
    c5 = build_group(cyclic_presentation(5))
    assert len(all_subgroups(c5)) == 2
    c12 = build_group(cyclic_presentation(12))
    assert len(all_subgroups(c12)) == 6


def test_subgroup_lattice_matches_naive(d8, s3):
    for group in (d8, s3):
        got = {frozenset(h.elements) for h in all_subgroups(group)}
        assert got == {frozenset(h) for h in naive_all_subgroups(group)}


def test_defect_agrees_with_lattice_search(d8, d16, s3, q8):
    for group in (d8, d16, s3, q8):
        subs = naive_all_subgroups(group)
        for e in range(group.size):
            fast = cyclic_defect(group, e).defect
            slow = naive_defect(group, naive_closure(group, [e]), subs)
            assert fast == slow, (group.meta.get("name"), e)


def test_brute_force_defect_agrees(d8, s3):
    s = d8.gen_element(1)
    assert brute_force_defect(Subgroup.generated(d8, [s]), d8).defect == 2
    b = s3.gen_element(1)
    assert brute_force_defect(Subgroup.generated(s3, [b]), s3).defect is None


def test_t2_matches_naive_generation(s3, d8, d16, q8):
    c12 = build_group(cyclic_presentation(12))
    d12 = build_group(dihedral_presentation(12), name="D12")
    for group in (s3, d8, d16, q8, c12, d12):
        got = set(t_n_subgroup(group, 2).elements)
        assert got == naive_t2(group), group.meta.get("name")


def test_t1_of_dihedral_8_is_whole(d8):
    assert t_n_subgroup(d8, 1).is_whole()


def test_t1_of_q8_is_trivial(q8):
    assert t_n_subgroup(q8, 1).size == 1


def test_t2_within_whole_equals_t2(d16):
    whole = Subgroup.whole(d16)
    assert t_n_within(whole, 2).elements == t_n_subgroup(d16, 2).elements


def test_t2_within_cyclic_subgroup_is_trivial(d16):
    r = d16.gen_element(0)
    sub = Subgroup.generated(d16, [r])
    assert t_n_within(sub, 2).size == 1


def test_t2_within_dihedral_subgroup(d16):
    s = d16.gen_element(1)
    r2 = d16.power(d16.gen_element(0), 2)
    mid = Subgroup.generated(d16, [s, r2])
    inner = t_n_within(mid, 2)
    assert inner.size == 1


def _subgroups_by_two(group):
    """Every distinct subgroup generated by one or two elements."""
    subs = {}
    for a in range(group.size):
        for b in range(a, group.size):
            sub = Subgroup.generated(group, [a, b])
            subs.setdefault(sub.elements, sub)
    return subs.values()


@pytest.mark.parametrize("name", ["s4", "q8", "d16", "class3_p2"])
def test_t2_within_matches_per_element_scan_on_small_groups(request, name):
    group = request.getfixturevalue(name)
    for sub in _subgroups_by_two(group):
        assert (t_n_within(sub, 2).elements
                == per_element_t_n_within(sub, 2).elements), sub.gens


@pytest.mark.parametrize("text", [
    dihedral_presentation(80),
    "gens: a, b; rels: a^37; b^6; b^-1*a*b = a^11",
])
def test_t2_within_matches_per_element_scan_on_seeded_subgroups(text):
    group = build_group(text)
    rng = random.Random(f"t2-within:{text}")
    for i in range(20):
        gens = [rng.randrange(group.size) for _ in range(1 + i % 2)]
        sub = Subgroup.generated(group, gens)
        assert (t_n_within(sub, 2).elements
                == per_element_t_n_within(sub, 2).elements), gens


def test_is_n_subnormal_matches_defect(s4, d16, class3_p2):
    for e in range(d16.size):
        d = cyclic_defect(d16, e).defect
        assert is_n_subnormal(d16, e, 2) == (d is not None and d <= 2)
    # Against the uncached defect of <x> itself, not its class rep's.
    for group in (s4, d16, class3_p2):
        for x in range(group.size):
            result = defect(Subgroup.generated(group, [x]), group)
            for n in (1, 2, 3):
                assert is_n_subnormal(group, x, n) == result.within(n), (x, n)


def test_classification_labels(s3, q8, d16, class3_p2):
    assert classify(s3).classification == NOT_GENERALIZED_BAER2
    assert classify(q8).classification == TWO_BAER
    assert classify(d16).classification == NOT_GENERALIZED_BAER2
    assert classify(class3_p2).classification == GENERALIZED_T2


def test_classify_histograms_frozen(s3, d8):
    assert classify(s3).defect_histogram == {"1": 3, "none": 3}
    assert classify(d8).defect_histogram == {"1": 4, "2": 4}


def test_class3_defect_histograms_match_their_closed_forms(
        class3_p2, class3_p3, class3_p5):
    # For odd p, p^2 (p^2 - p + 1) elements of defect 1 and (p - 1) p^4 of
    # defect 3, the rest at defect 2; p = 2 has its own counts.
    assert classify(class3_p2).defect_histogram == {"1": 10, "2": 38, "3": 16}
    for p, group in ((3, class3_p3), (5, class3_p5),
                     (7, build_class3_p_group(7))):
        ones, threes = p**2 * (p**2 - p + 1), (p - 1) * p**4
        assert classify(group).defect_histogram == {
            "1": ones, "2": p**6 - ones - threes, "3": threes}


def test_classify_reports_whole_group_data(class3_p2):
    report = classify(class3_p2)
    assert report.order == 64
    assert report.nilpotency_class == 3
    assert report.derived_length == 2
    assert report.t2_order == 32
    assert report.t2_generators
    d = report.to_json_dict()
    assert d["class"] == 3
    assert d["classification"] == GENERALIZED_T2


def test_classify_not_nilpotent_marker(s3):
    d = classify(s3).to_json_dict()
    assert d["class"] == "not-nilpotent"


def test_strict_reading_disagreements_frozen():
    c2 = build_group(cyclic_presentation(2))
    c6 = build_group(cyclic_presentation(6))
    c7 = build_group(cyclic_presentation(7))
    assert classify(c2).strict_reading_disagreements == 2
    assert classify(c6).strict_reading_disagreements == 5
    assert classify(c7).strict_reading_disagreements == 7


def test_strict_reading_disagreements_in_q8(q8):
    report = classify(q8)
    assert report.strict_reading_disagreements == 6


def test_defect_conjugation_invariant(d16):
    for e in range(d16.size):
        base = cyclic_defect(d16, e).defect
        for g in range(d16.size):
            assert cyclic_defect(d16, d16.conj(e, g)).defect == base


def test_defect_monotone_under_subgroups(d16):
    r2 = d16.power(d16.gen_element(0), 2)
    s = d16.gen_element(1)
    mid = Subgroup.generated(d16, [s, r2])
    for e in mid.elements:
        inner = defect(Subgroup.generated(d16, [e]), mid).defect
        outer = cyclic_defect(d16, e).defect
        assert inner is not None
        assert outer is not None
        assert inner <= outer


def test_t2_inheritance_elementwise(d16):
    t2g = t_n_subgroup(d16, 2)
    r2 = d16.power(d16.gen_element(0), 2)
    s = d16.gen_element(1)
    mid = Subgroup.generated(d16, [s, r2])
    t2h = t_n_within(mid, 2)
    assert set(t2h.elements) <= (set(t2g.elements) & set(mid.elements))


def test_defect_rejects_foreign_subgroup(s3, d8):
    h = Subgroup.generated(d8, [d8.gen_element(1)])
    with pytest.raises(GroupError):
        defect(h, s3)


def test_d1024_reflection_has_exact_defect_nine():
    # In the dihedral group of order 2^k each term of the normal-closure
    # series of <s> halves the rotations of the last, so s has defect k - 1.
    d1024 = build_group(dihedral_presentation(1024))
    res = cyclic_defect(d1024, d1024.gen_element(1))
    assert res.defect == 9
    assert not res.within(8)
    assert str(res) == "defect 9"


def test_center_elements_have_defect_one(class4_group):
    for e in center(class4_group).elements:
        if e:
            assert cyclic_defect(class4_group, e).defect == 1
