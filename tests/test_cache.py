"""Memos live on their group: they are reused while it lives and die with it."""

import gc
import sys
import weakref
from dataclasses import replace

import pytest

from baerkit.core import Subgroup, _join, derived_subgroup, nilpotency_class
from baerkit.subnormal import (
    ClassificationReport,
    classify,
    cyclic_defect,
    t_n_subgroup,
)
from baerkit.verify import (
    _SUITE_CHECKS,
    CorpusEntry,
    build_class3_p_group,
    build_group,
    default_corpus,
    dihedral_presentation,
    parse_corpus_text,
    run_full_suite,
)


def _d12():
    return build_group(dihedral_presentation(12), name="D12")


def test_dropped_group_is_collected_after_classify():
    group = _d12()
    classify(group)
    nilpotency_class(group)
    ref = weakref.ref(group)
    del group
    gc.collect()
    assert ref() is None


def test_classify_is_memoized_and_carries_t2():
    group = _d12()
    report = classify(group)
    assert classify(group) is report
    assert report.t2.elements == t_n_subgroup(group, 2).elements
    assert "t2" not in report.to_json_dict()
    assert "t2=" not in repr(report)


def test_corpus_group_is_collected_once_dropped():
    (entry,) = parse_corpus_text("D20 | gens: r, s; rels: r^10; s^2; (r*s)^2")
    group = entry.build()
    classify(group)
    ref = weakref.ref(group)
    del group
    gc.collect()
    assert ref() is None


def _corpus_entry(name):
    return next(entry for entry in default_corpus() if entry.name == name)


# What __init__ sets apart from the memos; every other attribute of a
# freshly built group is a memo.
_CONSTRUCTION = {"size", "cols", "presentation", "gen_names", "meta",
                 "_ints", "_word_tree", "ext_cols", "_npcols", "shallow_word",
                 "_keys"}


def _holds_subgroup(value):
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    if isinstance(value, (list, tuple)):
        return any(_holds_subgroup(v) for v in value)
    return isinstance(value, (Subgroup, ClassificationReport))


def test_run_full_suite_frees_each_group_without_the_cycle_collector():
    # The collector is off, so a group whose memos still hold Subgroups
    # (each of which holds the group) would outlive the suite.  Each
    # group is gone before the next one is built.
    refs, alive_at_build = [], []

    def keeping_refs(build):
        def build_and_keep(*args):
            alive_at_build.append(sum(ref() is not None for ref in refs))
            group = build(*args)
            refs.extend(weakref.ref(g)
                        for g in (group, *group.meta.get("factors", ())))
            return group
        return build_and_keep

    corpus = [replace(entry, build=keeping_refs(entry.build))
              for entry in default_corpus()]
    enabled = gc.isenabled()
    gc.disable()
    try:
        run_full_suite(corpus, seed=1)
        alive = [ref() for ref in refs if ref() is not None]
    finally:
        if enabled:
            gc.enable()
    assert len(refs) == len(corpus) + 2  # both factors of the product
    assert alive == []
    assert alive_at_build == [0] * len(corpus)


@pytest.mark.parametrize("name", ["D16", "class3-p2", "class3-p3 x C2"])
def test_dropped_memos_match_a_fresh_group(name):
    entry = _corpus_entry(name)
    fresh, group = entry.build(), entry.build()
    run_full_suite([CorpusEntry(name, lambda *args: group)], seed=1)
    for g, f in zip((group, *group.meta.get("factors", ())),
                    (fresh, *fresh.meta.get("factors", ()))):
        memos = set(vars(f)) - _CONSTRUCTION
        assert memos >= {"_subgroups", "_joins", "_cyclic", "_report"}
        for key in memos:
            assert getattr(g, key) == getattr(f, key), key
        assert "_whole" not in vars(g)
        assert not any(_holds_subgroup(v) for v in vars(g).values())


@pytest.mark.parametrize("name", ["D16", "class3-p2", "class3-p3 x C2"])
def test_dropped_group_answers_as_before(name):
    def answers():
        return ([c.to_json_dict() for _, call in _SUITE_CHECKS
                 if (c := call(group, 2048, 5)) is not None],
                classify(group).to_json_dict())

    group = _corpus_entry(name).build()
    report = classify(group)
    t2, t2_elems = report.t2, set(report.t2.elements)
    before = answers()
    group._drop_memos()
    assert classify(group) is not report
    assert answers() == before
    assert set(t2.elements) == t2_elems
    assert t2.group is group and t2 == classify(group).t2


def _answers(group, sub, probes):
    """What the subgroup memos hold for sub, as plain values."""
    return (derived_subgroup(sub).elements, nilpotency_class(sub),
            [cyclic_defect(group, g).defect for g in sub.gens],
            [_join(group, sub, g).elements for g in probes if g not in sub])


@pytest.mark.parametrize("name", ["D16", "class3-p3", "class3-p3 x C2"])
def test_subgroups_kept_across_a_drop_answer_as_a_fresh_group(name):
    # The memos are keyed by Subgroup.key.  A refilled table must never
    # hand a key out again, or a Subgroup kept from before the drop would
    # be answered from the memo of a different subgroup.  The refill runs
    # in another order than the first fill, so that a key handed out
    # again would land on another subgroup, and memoizes every key filed.
    entry = _corpus_entry(name)
    group, fresh = entry.build(), entry.build()
    t2 = classify(group).t2
    x, y = group.generator_elements()[:2]
    joined = Subgroup.generated(group, [x, y])
    group._drop_memos()
    for g in reversed(range(group.size)):
        cyclic_defect(group, g)
    for sub in list(group._subgroups.values()):
        derived_subgroup(sub)
        nilpotency_class(sub)
    classify(group)
    probes = range(0, group.size, max(1, group.size // 16))
    for stale in (t2, joined):
        same = Subgroup.generated(fresh, stale.gens)
        assert _answers(group, stale, probes) == _answers(fresh, same, probes)


def _own_bytes(sub):
    """Bytes a Subgroup holds of its own: the object, its attribute dict
    and every attribute but its group.  Its element ints are the group's
    shared ints, so a container of them counts only its own size."""
    return (sys.getsizeof(sub) + sys.getsizeof(vars(sub))
            + sum(sys.getsizeof(v) for k, v in vars(sub).items()
                  if k != "group"))


def test_subgroup_table_stores_each_subgroup_compactly():
    # After classify, class3-p5 (order 15,625) files 323 subgroups holding
    # 57,291 elements in all.  One sorted tuple costs 8 bytes an element,
    # and the table holds about 10 bytes an element in all; a hash set of
    # the same ints beside the tuple would cost over 50 more.
    group = build_class3_p_group(5)
    classify(group)
    subs = group._subgroups.values()
    assert sum(map(_own_bytes, subs)) <= 16 * sum(s.size for s in subs)
