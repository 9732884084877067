import hashlib
import json
import random
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from baerkit import verify
from baerkit.core import GroupError, normal_closure
from baerkit.engel import IdentityCheck
from baerkit.subnormal import (
    GENERALIZED_T2,
    TWO_BAER,
    DefectResult,
    _defect_scan,
    cyclic_defect,
)
from baerkit.verify import (
    CorpusEntry,
    alternating4_presentation,
    build_class3_p_group,
    build_class4_2group,
    build_group,
    check_cyclic_closure_class,
    check_expected_invariants,
    check_product_decomposition,
    check_quotient_two_baer,
    class3_p_group_presentation,
    class4_2group_presentation,
    cyclic_presentation,
    default_corpus,
    dihedral_presentation,
    parse_corpus_text,
    quaternion_presentation,
    run_example_checks,
    run_full_suite,
    symmetric_presentation,
    two_subnormal_congruence,
)

from oracles import frattini_coordinates, per_element_cyclic_closure_class

CORPUS_TEXT = """\
# tiny corpus for driver tests
C6 | gens: a; rels: a^6

K4 | gens: a, b; rels: a^2; b^2; [a,b]
"""


def test_presentation_builders_realize_expected_orders():
    cases = [
        (cyclic_presentation(7), 7),
        (dihedral_presentation(14), 14),
        (quaternion_presentation(), 8),
        (symmetric_presentation(3), 6),
        (symmetric_presentation(4), 24),
        (alternating4_presentation(), 12),
    ]
    for text, order in cases:
        assert build_group(text).size == order


def test_presentation_builders_reject_bad_parameters():
    with pytest.raises(GroupError):
        cyclic_presentation(0)
    with pytest.raises(GroupError):
        dihedral_presentation(9)
    with pytest.raises(GroupError):
        symmetric_presentation(5)
    with pytest.raises(GroupError):
        class3_p_group_presentation(4)


def test_benchmark_builders_meet_their_own_expectations(class4_group, class3_p2):
    assert class4_group.size == 128
    assert class4_group.meta["expected"]["t2_order"] == 64
    assert class3_p2.size == 64
    for group in (class4_group, class3_p2):
        assert check_expected_invariants(group).status == "pass"
        assert group.size == group.meta["expected"]["order"]


def test_congruence_rule_frozen_table():
    assert two_subnormal_congruence(3, 0, 0)
    assert two_subnormal_congruence(3, 1, 0)
    assert two_subnormal_congruence(3, 0, 1)
    assert two_subnormal_congruence(3, 2, 2)
    assert not two_subnormal_congruence(3, 1, 2)
    assert not two_subnormal_congruence(3, 2, 1)
    assert two_subnormal_congruence(2, 0, 1)
    assert two_subnormal_congruence(2, 1, 0)
    assert not two_subnormal_congruence(2, 1, 1)
    assert two_subnormal_congruence(5, 1, 1)
    assert not two_subnormal_congruence(5, 2, 3)
    assert not two_subnormal_congruence(5, 4, 1)


def test_congruence_rule_rejects_unreduced_coordinates():
    for m, n in ((3, 0), (0, 3), (-1, 0), (0, -1)):
        with pytest.raises(GroupError):
            two_subnormal_congruence(3, m, n)


def test_frattini_coordinates_known_values(class3_p3):
    x, y = class3_p3.gen_element(0), class3_p3.gen_element(1)
    assert frattini_coordinates(class3_p3, 0) == (0, 0)
    assert frattini_coordinates(class3_p3, x) == (1, 0)
    assert frattini_coordinates(class3_p3, class3_p3.power(x, 3)) == (0, 0)
    assert frattini_coordinates(
        class3_p3, class3_p3.mult(x, class3_p3.power(y, 2))) == (1, 2)
    assert frattini_coordinates(class3_p3, class3_p3.mult(x, y)) == (1, 1)


def test_congruence_rule_matches_computed_defects(class3_p3):
    x, y = class3_p3.gen_element(0), class3_p3.gen_element(1)
    good = x
    bad = class3_p3.mult(x, class3_p3.power(y, 2))
    assert two_subnormal_congruence(3, *frattini_coordinates(class3_p3, good))
    assert not two_subnormal_congruence(3, *frattini_coordinates(class3_p3, bad))
    assert cyclic_defect(class3_p3, good).defect <= 2
    assert cyclic_defect(class3_p3, bad).defect == 3


def test_expected_invariants_flag_mismatches():
    group = build_group(cyclic_presentation(4), name="C4")
    assert check_expected_invariants(group).status == "skipped"
    group.meta["expected"] = {"order": 999, "t2_order": 1}
    check = check_expected_invariants(group)
    assert check.status == "fail"
    assert check.details["mismatches"] == {
        "order": {"expected": 999, "got": 4}}


def test_parse_corpus_text_round_trip():
    entries = parse_corpus_text(CORPUS_TEXT, source="tiny.txt")
    assert [e.name for e in entries] == ["C6", "K4"]
    assert all("factors" not in e.build().meta for e in entries)
    assert entries[0].build().size == 6
    assert entries[1].build().size == 4


def test_parse_corpus_text_ignores_noise_lines():
    assert parse_corpus_text("") == []
    assert parse_corpus_text("\n# just a comment\n\n") == []


def test_parse_corpus_text_reports_line_numbers():
    with pytest.raises(GroupError) as err:
        parse_corpus_text("C2 | gens: a; rels: a^2\nno pipe here\n", "f.txt")
    assert "f.txt:2" in str(err.value)
    with pytest.raises(GroupError):
        parse_corpus_text(" | gens: a; rels: a^2")
    with pytest.raises(GroupError):
        parse_corpus_text("C2 |")
    with pytest.raises(ValueError):
        parse_corpus_text("bad | gens: a; rels: b^2")


def test_default_corpus_names_frozen():
    names = [e.name for e in default_corpus()]
    assert names == (
        [f"C{n}" for n in range(2, 13)]
        + ["D8", "D10", "D12", "D14", "D16", "Q8", "S3", "S4", "A4"]
        + ["class4-2group", "class3-p2", "class3-p3", "class3-p5",
           "class3-p3 x C2"]
    )
    by_name = {e.name: e for e in default_corpus()}
    assert "factors" in by_name["class3-p3 x C2"].build().meta
    assert "factors" not in by_name["class4-2group"].build().meta


def test_full_suite_shape_and_check_ids():
    suite = run_full_suite(parse_corpus_text(CORPUS_TEXT), seed=3)
    assert set(suite) == {"config", "reports"}
    assert suite["config"]["seed"] == 3
    assert set(suite["config"]["limits"]) == {
        "max_cosets", "exhaustive_threshold"}
    assert len(suite["reports"]) == 2
    for report in suite["reports"]:
        ids = [c["id"] for c in report["checks"]]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids)) == 11
        assert all(c["status"] in ("pass", "skipped") for c in report["checks"])
    assert suite["reports"][0]["group"]["name"] == "C6"
    assert suite["reports"][0]["group"]["order"] == 6


def test_full_suite_is_deterministic():
    one = run_full_suite(parse_corpus_text(CORPUS_TEXT), seed=11)
    two = run_full_suite(parse_corpus_text(CORPUS_TEXT), seed=11)
    assert one == two


def _filtered(report, ids):
    return {"config": report["config"],
            "reports": [{"group": rep["group"],
                         "checks": [c for c in rep["checks"] if c["id"] in ids]}
                        for rep in report["reports"]]}


def _driver_corpus():
    return parse_corpus_text(CORPUS_TEXT) + [
        CorpusEntry("class3-p2", partial(build_class3_p_group, 2))]


def test_full_suite_check_filter_matches_filtered_full_report():
    full = run_full_suite(_driver_corpus(), seed=5)
    for ids in (("expansion-formula",),
                ("odd-p-class-three", "congruence-subnormality",
                 "subgroup-t2-inheritance")):
        assert run_full_suite(_driver_corpus(), seed=5,
                              checks=ids) == _filtered(full, ids)


def test_full_suite_never_calls_a_filtered_out_check(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("filtered-out check was called")

    monkeypatch.setattr(verify, "check_expansion", boom)
    monkeypatch.setattr(verify, "check_cyclic_closure_class", boom)
    out = run_full_suite(_driver_corpus(), checks=("quotient-two-baer",))
    assert all([c["id"] for c in rep["checks"]] == ["quotient-two-baer"]
               for rep in out["reports"])


@pytest.mark.parametrize("check, patched", [
    ("check_metabelian_identity_suite", "check_metabelian_identities"),
    ("check_expansion", "check_expansion_formula"),
])
def test_failing_identity_check_reports_its_witness_verbatim(
        monkeypatch, d8, check, patched):
    failing = [IdentityCheck("ok", True, "exhaustive", 4),
               IdentityCheck("broken", False, "exhaustive", 4, "r, s*r")]
    monkeypatch.setattr(verify, patched, lambda *a, **k: failing)
    result = getattr(verify, check)(d8)
    assert result.status == "fail"
    assert result.witness == "r, s*r"
    assert result.details["failures"] == ["broken"]


def test_full_suite_rejects_unknown_check_ids():
    with pytest.raises(GroupError, match="no-such-check"):
        run_full_suite(parse_corpus_text(CORPUS_TEXT), checks=("no-such-check",))


def test_exhaustive_threshold_leaves_the_engel_tests_alone(class3_p3):
    entry = CorpusEntry("class3-p3", partial(build_class3_p_group, 3))
    checks = ("odd-p-class-three", "solubility-and-engel")
    small, large = (run_full_suite([entry], checks=checks,
                                   exhaustive_threshold=t)
                    for t in (100, 2048))
    assert small["reports"] == large["reports"]
    statuses = [c["status"] for c in small["reports"][0]["checks"]]
    assert statuses == ["pass", "pass"]


def test_exhaustive_threshold_reaches_generated_subgroup_class(class4_group):
    entry = CorpusEntry("class4-2group", build_class4_2group)
    for threshold, mode, count in ((2048, "exhaustive", 128),
                                   (100, "sampled", 12)):
        out = run_full_suite([entry], checks=("generated-subgroup-class",),
                             exhaustive_threshold=threshold)
        (check,) = out["reports"][0]["checks"]
        assert check["status"] == "pass"
        assert check["details"]["per_d"]["1"] == {
            "bound": 4, "count": count, "mode": mode}


C6XC60 = "gens: a, b; rels: a^6; b^60; [a, b]"


@pytest.mark.parametrize("name", ["d16", "class3_p2", "c6xc60"])
def test_cyclic_closure_class_matches_per_element_reference(request, name):
    if name == "c6xc60":
        group = build_group(C6XC60)
    else:
        group = request.getfixturevalue(name)
    for kwargs in ({}, {"exhaustive_threshold": 1, "seed": 3}):
        assert (check_cyclic_closure_class(group, **kwargs)
                == per_element_cyclic_closure_class(group, **kwargs))


def test_cyclic_closure_class_names_the_first_failing_element(
        monkeypatch, class3_p2):
    # Sampled mode visits the elements outside T_2 in a random order, so
    # a class can be met first at a member that is not its representative.
    group = class3_p2
    t2 = verify.classify(group).t2
    t2_elems = set(t2.elements)
    outside = [g for g in range(group.size) if g not in t2_elems]
    assert len(outside) <= verify._CYCLIC_TRIALS
    todo = random.Random(7).sample(outside, len(outside))
    met = set()
    for g in todo:
        closure = normal_closure([g], group).elements
        if g != group._class_rep[g] and closure not in met:
            break
        met.add(closure)
    else:
        pytest.fail("every class is met first at its representative")
    real = verify.nilpotency_class
    monkeypatch.setattr(verify, "nilpotency_class",
                        lambda sub: 3 if sub.elements == closure else real(sub))
    check = check_cyclic_closure_class(group, exhaustive_threshold=1, seed=7)
    assert check.status == "fail"
    assert check.witness == str(group.element_word(g))
    assert check.witness != str(group.element_word(group._class_rep[g]))
    assert check == per_element_cyclic_closure_class(
        group, exhaustive_threshold=1, seed=7)


def test_congruence_check_names_the_first_failing_identity(monkeypatch):
    # A comm_batch that is off wherever its first argument is y breaks only
    # the second bracket identity: the check names it, with the
    # coordinates, at the first element where it fails.
    group = build_class3_p_group(2)
    x, y = group.generator_elements()
    real = group.comm_batch
    monkeypatch.setattr(group, "comm_batch", lambda a, b: np.where(
        np.equal(a, y), group.mult_batch(real(a, b), x), real(a, b)))

    def comm(a, b):
        return group.mult(group.comm(a, b), x) if a == y else group.comm(a, b)

    for g in range(group.size):
        m, n = frattini_coordinates(group, g)
        if comm(comm(y, g), g) != group.power(x, -m * n * 4):
            break
    else:
        pytest.fail("the patched identity holds everywhere")
    check = verify.check_congruence_subnormality(group)
    assert check.status == "fail"
    assert check.details == {"mode": "exhaustive",
                             "identity": "[y,g,g] = x^(-mn p^2)",
                             "coordinates": [m, n]}
    assert check.witness == str(group.element_word(g))


def test_congruence_check_names_the_first_element_breaking_the_rule():
    # The scan may represent a class by any member.  With one class's
    # defect corrupted and its last member as the representative, the
    # check still names the class's first element in index order, with
    # the rule's prediction and the (corrupted) defect's verdict.
    group = build_class3_p_group(3)
    scan = list(_defect_scan(group))
    i = next(i for i, cl in enumerate(group.conjugacy_classes())
             if len(cl) > 1)
    cl = group.conjugacy_classes()[i]
    _, size, res = scan[i]
    wrong = DefectResult(3 if res.within(2) else 1)
    scan[i] = (cl[-1], size, wrong)
    group._defect_scan = scan
    m, n = frattini_coordinates(group, cl[0])
    check = verify.check_congruence_subnormality(group)
    assert check.status == "fail"
    assert check.details == {"mode": "exhaustive", "coordinates": [m, n],
                             "predicted": two_subnormal_congruence(3, m, n),
                             "actual": wrong.within(2)}
    assert check.details["predicted"] != check.details["actual"]
    assert check.witness == str(group.element_word(cl[0]))
    assert check.witness != str(group.element_word(cl[-1]))


@pytest.mark.parametrize("text, prime", [
    ("gens: x, y; rels: x^9; y = x^3", 3),  # G/Φ(G) = C_3
    ("gens: x; rels: x^4", 2),  # one generator
    ("gens: x, y, z; rels: x^2; y^2; z^2; [x,y]; [x,z]; [y,z]", 2),
])
def test_congruence_check_rejects_a_group_without_two_frattini_coordinates(
        text, prime):
    group = build_group(text, name="bad")
    group.meta.update({"family": "class3", "prime": prime})
    with pytest.raises(GroupError, match="C_p × C_p"):
        verify.check_congruence_subnormality(group)


def test_frattini_labels_match_the_trial_division_reference(
        class3_p2, class3_p3, class3_p5):
    for group, todo in ((class3_p2, range(class3_p2.size)),
                        (class3_p3, range(class3_p3.size)),
                        (class3_p5, random.Random(5).sample(
                            range(class3_p5.size), 200))):
        m, n = verify._frattini_labels(group, group.meta["prime"])
        for g in todo:
            assert (m[g], n[g]) == frattini_coordinates(group, g)


def test_quotient_two_baer_skips_when_t2_is_trivial(d8, class3_p3):
    check = check_quotient_two_baer(d8)
    assert check.status == "skipped"
    assert check.details == {
        "reason": "T_2 is trivial; the quotient is the group itself"}
    assert check_quotient_two_baer(class3_p3).status == "pass"


def test_example_checks_structure():
    out = run_example_checks(primes=(2,), seed=1)
    names = [r["group"]["name"] for r in out["reports"]]
    assert names == ["class4-2group", "class3-p2"]
    for report in out["reports"]:
        ids = [c["id"] for c in report["checks"]]
        assert ids == [
            "congruence-subnormality",
            "expected-invariants",
            "frattini-t2-structure",
            "odd-p-class-three",
        ]
        assert all(c["status"] in ("pass", "skipped") for c in report["checks"])


def test_example_checks_prime_gate():
    with pytest.raises(GroupError):
        run_example_checks(primes=(11,))
    with pytest.raises(GroupError, match="once"):
        run_example_checks(primes=(7, 7))


def test_product_check_skip_paths(class3_p2):
    c2 = build_group(cyclic_presentation(2))
    c3 = build_group(cyclic_presentation(3))
    c6 = build_group(cyclic_presentation(6))
    s3 = build_group(symmetric_presentation(3))
    d16 = build_group(dihedral_presentation(16))
    assert check_product_decomposition(c6, c3).status == "skipped"
    assert check_product_decomposition(class3_p2, c2).status == "skipped"
    assert check_product_decomposition(class3_p2, s3).status == "skipped"
    assert check_product_decomposition(d16, c3).status == "skipped"


def test_product_check_two_baer_and_proper_t2_paths(class3_p2):
    c3 = build_group(cyclic_presentation(3))
    d8 = build_group(dihedral_presentation(8))
    trivial = check_product_decomposition(d8, c3)
    assert trivial.status == "pass"
    assert trivial.details["classification"] == TWO_BAER
    assert trivial.details["product_t2_order"] == 1
    proper = check_product_decomposition(class3_p2, c3)
    assert proper.status == "pass"
    assert proper.details["classification"] == GENERALIZED_T2
    assert 32 <= proper.details["product_t2_order"] <= 32 * 3


def test_product_entry_in_default_corpus_passes():
    entry = next(e for e in default_corpus() if e.name == "class3-p3 x C2")
    group = entry.build()
    check = check_product_decomposition(*group.meta["factors"], product=group)
    assert check.status == "pass"
    assert check.details["product_t2_order"] == 486
    assert check.details["left_t2_order"] == 243


def test_corpus_entries_can_shadow_builtin_names():
    entries = parse_corpus_text("S3 | gens: a; rels: a^5")
    assert entries[0].build().size == 5
    assert build_group(symmetric_presentation(3), name="S3").size == 6


SEED_TRIPLES = [
    (0, "C6", "expected-invariants"),
    (1234, "class3-p3 x C2", "expansion-formula"),
    (-7, "Gruppe \u00e4\u00df \u2124/4", "metabelian-identity-suite"),
    (2**70, "", ""),
]


def _oracle_seed(seed, name, cid):
    digest = hashlib.sha256(f"{seed}|{name}|{cid}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def test_derived_seeds_are_the_leading_sha256_bytes():
    for triple in SEED_TRIPLES:
        assert verify._derived_seed(*triple) == _oracle_seed(*triple)


def test_derived_seeds_fall_back_to_hashlib():
    # With CPython's built-in sha256 modules blocked, verify takes sha256
    # from hashlib and must give the same seeds.
    code = (
        "import json, sys\n"
        "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
        "from baerkit import verify\n"
        "print(verify.sha256.__module__, file=sys.stderr)\n"
        "triples = json.loads(sys.stdin.read())\n"
        "print(json.dumps([verify._derived_seed(*t) for t in triples]))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, input=json.dumps(SEED_TRIPLES))
    assert out.returncode == 0, out.stderr
    assert out.stderr.strip() in {"_hashlib", "hashlib"}
    assert json.loads(out.stdout) == [_oracle_seed(*t) for t in SEED_TRIPLES]
