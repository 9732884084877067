"""Memos live on their group: they are reused while it lives and die with it."""

import gc
import weakref

from baerkit.core import nilpotency_class
from baerkit.subnormal import classify, t_n_subgroup
from baerkit.verify import build_group, dihedral_presentation, parse_corpus_text


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
    assert report.t2.elemset == t_n_subgroup(group, 2).elemset
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
