"""Subgroup closure against the naive oracle closure.

D16 and S4 are small groups; class3_p5 (order 15,625) is large.  Every
generating list is seeded and padded with redundant generators (the
identity, a repeat, and the product of two of them), so the
closure has to drop generators that are already inside it.
"""

import random
from itertools import product

import pytest

from baerkit.core import (
    GroupError,
    Subgroup,
    _join,
    derived_series,
    direct_product,
    frattini_p_group,
    lower_central_series,
    normal_closure,
    sylow_decomposition,
    upper_central_series,
)
from baerkit.subnormal import classify, t_n_within
from baerkit.verify import (
    alternating4_presentation,
    build_group,
    check_cyclic_closure_class,
    check_generated_subgroup_class,
    class3_p_group_presentation,
    cyclic_presentation,
    dihedral_presentation,
    quaternion_presentation,
    symmetric_presentation,
)

from oracles import naive_closure, naive_normal_closure

CASES = [("d16", 8), ("s4", 8), ("class3_p5", 3)]

P2 = class3_p_group_presentation(2)
P3 = class3_p_group_presentation(3)
D16 = dihedral_presentation(16)


def _gen_lists(group, seed, count):
    rng = random.Random(seed)
    lists = []
    for _ in range(count):
        gens = [rng.randrange(1, group.size) for _ in range(rng.randint(1, 3))]
        gens += [0, gens[0], group.mult(gens[0], gens[-1])]
        rng.shuffle(gens)
        lists.append(gens)
    return lists


def _running_gens(group, gens):
    """The generators that lay outside the closure of those kept so far."""
    kept, closed = [], frozenset([0])
    for g in gens:
        if g not in closed:
            kept.append(g)
            closed = naive_closure(group, kept)
    return kept, closed


@pytest.mark.parametrize("name,count", CASES)
def test_generated_matches_naive_closure(request, name, count):
    group = request.getfixturevalue(name)
    for gens in _gen_lists(group, f"generated:{name}", count):
        sub = Subgroup.generated(group, gens)
        assert set(sub.elements) == naive_closure(group, gens)
        assert list(sub.elements) == sorted(set(sub.elements))
        assert sub.gens == tuple(gens)


@pytest.mark.parametrize("presentation,arity", [
    pytest.param(symmetric_presentation(4), 2, id="s4-pairs"),
    pytest.param(D16, 2, id="d16-pairs"),
    pytest.param(quaternion_presentation(), 2, id="q8-pairs"),
    # |G:h| has two prime factors in A4 and D12, and A4 has no subgroup
    # of order 6, so a join there is whole once it passes |G|/2.
    pytest.param(alternating4_presentation(), 2, id="a4-pairs"),
    pytest.param(dihedral_presentation(12), 2, id="d12-pairs"),
    pytest.param(P2, 2, id="p2-pairs"),
    pytest.param(dihedral_presentation(8), 3, id="d8-triples"),
    pytest.param(quaternion_presentation(), 3, id="q8-triples"),
])
def test_generated_matches_naive_closure_on_every_tuple(presentation, arity):
    # A fresh group, so the subgroup table fills while the tuples run.
    group = build_group(presentation)
    for gens in product(range(group.size), repeat=arity):
        sub = Subgroup.generated(group, gens)
        assert set(sub.elements) == naive_closure(group, gens), gens
        assert sub.gens == gens


class _CountingColumn(list):
    reads = 0

    def __getitem__(self, i):
        _CountingColumn.reads += 1
        return list.__getitem__(self, i)


def test_a_whole_group_join_stops_past_its_lagrange_bound():
    # class3-p3 has order 729 and 3 is the least prime of every index, so
    # a join holding more than 729/3 elements is the whole group.
    group = build_group(P3)
    x, y = group.generator_elements()
    h = Subgroup.cyclic(group, x)
    Subgroup.cyclic(group, y)
    assert [len(group.shallow_word[g]) for g in (x, y)] == [1, 1]
    group.ext_cols[:] = [_CountingColumn(c) for c in group.ext_cols]
    _CountingColumn.reads = 0
    joined = _join(group, h, y)
    assert joined.elements == tuple(range(group.size))
    assert joined.gens == (x, y)
    # One read per element past h: at most one round of two cosets past
    # 243, plus one probe per generator for each representative walked.
    assert _CountingColumn.reads <= group.size // 3 + 2 * 2 * h.size


def test_a_join_of_exactly_half_the_group_is_not_the_whole_group(d8):
    # <r^2, r> = <r> has exactly |D8|/2 elements.
    r, _ = d8.generator_elements()
    c4 = _join(d8, Subgroup.cyclic(d8, d8.power(r, 2)), r)
    assert c4.elements == Subgroup.cyclic(d8, r).elements
    assert c4.size == d8.size // 2


@pytest.mark.parametrize("presentation", [
    symmetric_presentation(4), cyclic_presentation(12), P2])
def test_cyclic_table_holds_each_cyclic_subgroup(presentation):
    group = build_group(presentation)
    for x in range(group.size):
        Subgroup.cyclic(group, x)
    for x in range(group.size):
        assert set(group._cyclic[x].elements) == naive_closure(group, [x])
    # One object per cyclic subgroup, whichever generator found it.
    distinct = {c.elements for c in group._cyclic}
    assert len({id(c) for c in group._cyclic}) == len(distinct)


def test_generating_lists_of_one_subgroup_share_its_element_set(d16, q8):
    r, s = d16.generator_elements()
    a = Subgroup.generated(d16, [r, s])
    b = Subgroup.generated(d16, [s, d16.mult(r, s), 0])
    assert a.elements is b.elements
    assert (a.gens, b.gens) == ((r, s), (s, d16.mult(r, s), 0))
    i, j = q8.generator_elements()
    k = q8.mult(i, j)
    subs = [Subgroup.generated(q8, g) for g in ([i, j], [j, k], [k, i, j])]
    assert len({id(sub.elements) for sub in subs}) == 1
    assert Subgroup.cyclic(q8, i).elements is Subgroup.generated(
        q8, [q8.inv(i)]).elements


@pytest.mark.parametrize("name,count", CASES)
def test_builder_keeps_only_generators_outside_the_closure(request, name, count):
    # Closing <gens> under its own conjugation adds no conjugate, so the
    # generating list is exactly the generators that joined.
    group = request.getfixturevalue(name)
    for gens in _gen_lists(group, f"builder:{name}", count):
        n = normal_closure(gens, Subgroup.generated(group, gens))
        kept, closed = _running_gens(group, gens)
        assert list(n.gens) == kept
        assert n.size == len(closed)
        assert list(n.elements) == sorted(closed)
        assert all((e in n) == (e in closed) for e in range(group.size))


@pytest.mark.parametrize("name,count", CASES)
def test_normal_closure_matches_naive(request, name, count):
    group = request.getfixturevalue(name)
    if group.size <= 64:
        conjugators = range(group.size)
    else:
        conjugators = group.generator_elements()
    for gens in _gen_lists(group, f"normal:{name}", count):
        n = normal_closure(gens, group)
        assert set(n.elements) == naive_normal_closure(group, gens, conjugators)
        assert naive_closure(group, n.gens) == set(n.elements)


def test_from_elements_in_large_group(class3_p5):
    group = class3_p5
    x, y = group.generator_elements()
    h = Subgroup.generated(group, [x, group.comm(x, y)])
    again = Subgroup.from_elements(group, h.elements)
    assert again.elements == h.elements
    assert naive_closure(group, again.gens) == set(h.elements)
    with pytest.raises(GroupError):
        Subgroup.from_elements(group, [0, x])
    with pytest.raises(GroupError):
        Subgroup.from_elements(group, list(h.elements) + [y])


def test_normal_closure_rejects_generators_outside_the_ambient(d16):
    r, s = d16.generator_elements()
    rotations = Subgroup.generated(d16, [r])
    assert normal_closure([r], rotations).elements == rotations.elements
    with pytest.raises(GroupError):
        normal_closure([s], rotations)


def _p3_x_c2():
    return direct_product(build_group(P3), build_group(cyclic_presentation(2)))


@pytest.mark.parametrize("build", [
    pytest.param(lambda: build_group(D16), id="d16"),
    pytest.param(lambda: build_group(P3), id="p3"),
    pytest.param(_p3_x_c2, id="p3xc2"),
])
def test_membership_and_inclusion_agree_with_sets(build):
    # A Subgroup answers `in` by binary search in its sorted elements and
    # `<=` by those searches; both must agree with a set of the elements,
    # for every element and every pair of filed subgroups.
    group = build()
    classify(group)
    subs = list(group._subgroups.values())
    sets = [set(sub.elements) for sub in subs]
    every = range(group.size)
    for sub, elems in zip(subs, sets):
        assert [e in sub for e in every] == [e in elems for e in every]
    for h, hs in zip(subs, sets):
        assert [h <= k for k in subs] == [hs <= ks for ks in sets]


def _t2_within_d8(group):
    # T_2 inside the dihedral subgroup <s, r^2> of order 8.
    r, s = group.generator_elements()
    return t_n_within(Subgroup.generated(group, [s, group.power(r, 2)]), 2)


@pytest.mark.parametrize("presentation, run, misses", [
    pytest.param(P3, lower_central_series, 1, id="p3-lower-central"),
    pytest.param(P3, derived_series, 1, id="p3-derived"),
    pytest.param(P3, lambda g: frattini_p_group(g, 3), 2, id="p3-frattini"),
    pytest.param(P3, upper_central_series, 3, id="p3-upper-central"),
    pytest.param(_p3_x_c2, sylow_decomposition, 2, id="p3xc2-sylow"),
    pytest.param(D16, classify, 5, id="d16-classify"),
    pytest.param(D16, check_cyclic_closure_class, 5,
                 id="d16-cyclic-closure-class"),
    pytest.param(P2, check_cyclic_closure_class, 18,
                 id="p2-cyclic-closure-class"),
    pytest.param(D16, _t2_within_d8, 3, id="d16-t2-within"),
    # S4's T_2 is the whole group, so the check stops after classify.
    pytest.param(symmetric_presentation(4), check_generated_subgroup_class,
                 10, id="s4-generated-subgroup-class"),
    pytest.param(P2, check_generated_subgroup_class, 43,
                 id="p2-generated-subgroup-class"),
])
def test_closures_built_per_computation(presentation, run, misses):
    # Each join the subgroup table misses is one build and one new entry
    # of group._joins (cyclic subgroups are powered, not built); a fresh
    # group has no memo to answer from.  A product is passed as its
    # builder.
    group = (build_group(presentation) if isinstance(presentation, str)
             else presentation())
    run(group)
    assert len(group._joins) == misses


def test_a_normal_closure_is_filed_once():
    group = build_group(P3)
    x, y = group.generator_elements()
    gens = [group.comm(x, y), group.power(x, 3)]
    n = normal_closure(gens, group)
    assert n.elements is Subgroup.generated(group, n.gens).elements
    joins = len(group._joins)
    again = normal_closure(gens, group)
    assert len(group._joins) == joins
    assert again.elements is n.elements and again.gens == n.gens
    # An already-closed set is found in the table, and a second wrap
    # builds nothing.
    h = Subgroup.generated(group, [x, group.comm(x, y)])
    assert Subgroup.from_elements(group, h.elements).elements is h.elements
    assert Subgroup.from_elements(group, n.elements).elements is n.elements
    joins = len(group._joins)
    Subgroup.from_elements(group, h.elements)
    assert len(group._joins) == joins


def test_trivial_subgroup_is_the_canonical_one(d16):
    t = Subgroup.trivial(d16)
    assert t is Subgroup.trivial(d16) is Subgroup.cyclic(d16, 0)
    assert t.gens == () and t.elements == (0,)


@pytest.mark.parametrize("whole_first", [True, False])
def test_the_whole_group_is_filed_once(whole_first):
    # Subgroup.whole and a join that generates G share one element set,
    # whichever runs first; the whole group keeps the group's generators.
    group = build_group(P3)
    x, y = group.generator_elements()
    if whole_first:
        whole = Subgroup.whole(group)
    joined = Subgroup.generated(group, [y, x])
    if not whole_first:
        whole = Subgroup.whole(group)
    assert joined.elements is whole.elements
    assert whole.elements == tuple(range(group.size))
    assert (whole.gens, joined.gens) == ((x, y), (y, x))
    assert Subgroup.whole(group) is whole
