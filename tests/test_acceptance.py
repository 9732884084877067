"""End-to-end acceptance battery.

Ten numbered checks, each a self-contained claim about the package:
the two benchmark families have the advertised structure, the
congruence rule and closure theorems hold at scale, small-group defects
agree with independent lattice search, and the command line suite is
deterministic.  Each test prints its own pass line so a verbose run
reads as a checklist.
"""

import json
import subprocess
import sys
import time

from baerkit.core import (
    Subgroup,
    derived_subgroup,
    exponent,
    frattini_p_group,
    is_metabelian,
    nilpotency_class,
)
from baerkit.engel import is_n_engel_group
from baerkit.subnormal import (
    GENERALIZED_T2,
    brute_force_defect,
    classify,
    cyclic_defect,
)
from baerkit.verify import (
    check_congruence_subnormality,
    check_cyclic_closure_class,
    check_expansion,
    check_expected_invariants,
    check_frattini_t2_structure,
    check_odd_p_metabelian_class,
    check_product_decomposition,
    check_quotient_two_baer,
    check_subgroup_inheritance,
)

GT2_NAMES = ("class4-2group", "class3-p2", "class3-p3", "class3-p5",
             "class3-p3 x C2")


def _done(label):
    print(f"{label}: pass")


def test_01_class4_example_has_advertised_invariants(class4_group):
    start = time.monotonic()
    group = class4_group
    report = classify(group)
    assert group.size == 128
    assert report.nilpotency_class == 4
    assert report.derived_length == 2
    assert report.t2_order == 64
    assert report.classification == GENERALIZED_T2
    assert check_expected_invariants(group).status == "pass"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _done("01 class-4 example invariants")


def test_02_class3_family_structure_at_all_primes(class3_p2, class3_p3,
                                                 class3_p5):
    start = time.monotonic()
    for p, group in ((2, class3_p2), (3, class3_p3)):
        report = classify(group)
        assert group.size == p ** 6
        assert report.nilpotency_class == 3
        assert report.t2_order == p ** 5
        assert report.classification == GENERALIZED_T2
        assert exponent(derived_subgroup(group)) == p
        assert frattini_p_group(group, p).size == p ** 4
        assert check_expected_invariants(group).status == "pass"
        assert check_frattini_t2_structure(group).status == "pass"
    assert time.monotonic() - start < 30.0

    start = time.monotonic()
    group = class3_p5
    report = classify(group)
    assert group.size == 5 ** 6
    assert report.nilpotency_class == 3
    assert report.t2_order == 5 ** 5
    assert exponent(derived_subgroup(group)) == 5
    assert frattini_p_group(group, 5).size == 5 ** 4
    assert check_expected_invariants(group).status == "pass"
    assert check_frattini_t2_structure(group).status == "pass"
    assert time.monotonic() - start < 900.0
    _done("02 class-3 family structure at p=2,3,5")


def test_03_congruence_rule_governs_2_subnormality(class3_p2, class3_p3,
                                                   class3_p5):
    for p, group in ((2, class3_p2), (3, class3_p3), (5, class3_p5)):
        check = check_congruence_subnormality(group)
        assert check.status == "pass"
        assert check.details["mode"] == "exhaustive"
        assert check.details["count"] == p ** 6
    _done("03 congruence rule exhaustive at p=2,3,5")


def test_04_defects_match_independent_lattice_search(corpus_groups):
    start = time.monotonic()
    checked_groups = 0
    for name, group in corpus_groups:
        if group.size > 24:
            continue
        checked_groups += 1
        for e in range(group.size):
            fast = cyclic_defect(group, e).defect
            slow = brute_force_defect(
                Subgroup.generated(group, [e]), group).defect
            assert fast == slow, (name, e)
    assert checked_groups == 20
    assert time.monotonic() - start < 60.0
    _done("04 defects agree with lattice search on all small corpus groups")


def test_05_elements_outside_t2_generate_class_2_closures(
        class4_group, class3_p2, class3_p3, class3_p5):
    for group, outside in ((class4_group, 64), (class3_p2, 32),
                           (class3_p3, 486)):
        check = check_cyclic_closure_class(group)
        assert check.status == "pass"
        assert check.details["mode"] == "exhaustive"
        assert check.details["outside_t2"] == outside
        assert check.details["count"] == outside
    check = check_cyclic_closure_class(class3_p5, seed=123)
    assert check.status == "pass"
    assert check.details["mode"] == "sampled"
    assert check.details["count"] == 200
    _done("05 closure class at most 2 outside T2, exhaustive and sampled")


def test_06_odd_p_groups_have_class_exactly_three(class4_group, class3_p3,
                                                  class3_p5):
    for group in (class3_p3, class3_p5):
        assert is_metabelian(group)
        assert classify(group).classification == GENERALIZED_T2
        assert nilpotency_class(group) == 3
        assert is_n_engel_group(group, 3).holds
        check = check_odd_p_metabelian_class(group)
        assert check.status == "pass"
        assert check.details["class"] == 3
        assert check.details["engel3"] is True
    sharp = check_odd_p_metabelian_class(class4_group)
    assert sharp.status == "skipped"
    assert sharp.details["observed_class"] == 4
    assert sharp.details["sharpness_witness"] is True
    _done("06 class exactly 3 for odd p, sharpness witness at p=2")


def test_07_expansion_formula_exhaustive_and_sampled(corpus_groups,
                                                     class4_group, class3_p3):
    exhausted = 0
    for name, group in corpus_groups:
        if group.size > 64 or not is_metabelian(group):
            continue
        check = check_expansion(group)
        assert check.status == "pass", name
        assert check.details["mode"] == "exhaustive"
        assert check.details["n_values"] == [1, 2, 3, 4, 5, 6]
        assert check.details["pairs"] == group.size ** 2
        exhausted += 1
    assert exhausted >= 20
    for group in (class4_group, class3_p3):
        check = check_expansion(group, seed=5)
        assert check.status == "pass"
        assert check.details["mode"] == "sampled"
        assert check.details["n_values"] == [1, 2, 3, 4, 5, 6, 7, 8]
        assert check.details["pairs"] == 200
    _done("07 expansion formula on all metabelian corpus groups")


def test_08_quotients_and_subgroups_inherit_the_theory(
        corpus_groups, class4_group, class3_p2, class3_p3, class3_p5):
    gt2_passes = 0
    for name, group in corpus_groups:
        check = check_quotient_two_baer(group)
        assert check.status != "fail", name
        if name in GT2_NAMES:
            assert check.status == "pass"
            assert check.details["quotient_t2_order"] == 1
            gt2_passes += 1
    assert gt2_passes == len(GT2_NAMES)
    for group in (class4_group, class3_p2, class3_p3, class3_p5):
        check = check_subgroup_inheritance(group, seed=7)
        assert check.status == "pass"
        assert check.details["count"] == 20
    _done("08 quotient is 2-Baer and subgroups inherit T2 containment")


def test_09_product_with_coprime_2_baer_factor(corpus_groups):
    group = next(g for _, g in corpus_groups if "factors" in g.meta)
    check = check_product_decomposition(*group.meta["factors"],
                                        product=group)
    assert check.status == "pass"
    assert check.details["classification"] == GENERALIZED_T2
    assert check.details["left_t2_order"] == 243
    assert (check.details["left_t2_order"]
            <= check.details["product_t2_order"]
            <= check.details["left_t2_order"] * 2)
    _done("09 direct product T2 sandwich and classification")


def test_10_theorem_suite_is_deterministic_end_to_end():
    args = [sys.executable, "-m", "baerkit", "check-theorems",
            "--format", "json", "--seed", "1234"]
    one = subprocess.run(args, capture_output=True, text=True)
    two = subprocess.run(args, capture_output=True, text=True)
    assert one.returncode == 0
    assert two.returncode == 0
    assert one.stdout == two.stdout
    doc = json.loads(one.stdout)
    assert len(doc["reports"]) == 25
    statuses = {c["status"] for r in doc["reports"] for c in r["checks"]}
    assert statuses == {"pass", "skipped"}
    _done("10 full suite byte-identical across runs")
