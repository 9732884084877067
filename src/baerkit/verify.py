"""Verification suite: build the benchmark groups and machine-check the
structural claims about 2-subnormality on each of them.

Every check returns a TheoremCheck with a stable id, a pass/fail/skipped
status, and a details dict that is safe to serialize.  Checks whose
hypotheses a group does not satisfy report "skipped" rather than vacuous
passes, so a report always says what was actually tested.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .core import (
    ConcreteGroup,
    GroupError,
    Subgroup,
    derived_length,
    derived_subgroup,
    direct_product,
    exponent,
    factorize,
    frattini_p_group,
    is_metabelian,
    nilpotency_class,
    normal_closure,
    quotient,
    sylow_decomposition,
    upper_central_series,
)
from .coset import DEFAULT_MAX_COSETS, enumerate_cosets, to_group
from .engel import (
    EXPANSION_EXHAUSTIVE_ORDER,
    _inputs,
    _is_left_engel,
    _pair_words,
    check_expansion_formula,
    check_metabelian_identities,
    is_n_engel_group,
)
from .presentation import PresentationError, parse_presentation, word
from .subnormal import (
    GENERALIZED_T2,
    NOT_GENERALIZED_BAER2,
    TWO_BAER,
    _defect_scan,
    classify,
    t_n_within,
)

# sha256 from CPython's built-in module, as random.py takes sha512:
# hashlib would map in OpenSSL's libcrypto (about 3.4 MB of resident
# memory) for one digest per check.
try:
    from _sha256 import sha256  # Python 3.11 and older
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12 and newer
    except ImportError:
        from hashlib import sha256

__all__ = [
    "DEFAULT_EXHAUSTIVE_THRESHOLD",
    "TheoremCheck",
    "CorpusEntry",
    "cyclic_presentation",
    "dihedral_presentation",
    "quaternion_presentation",
    "symmetric_presentation",
    "alternating4_presentation",
    "class4_2group_presentation",
    "class3_p_group_presentation",
    "build_group",
    "build_class4_2group",
    "build_class3_p_group",
    "two_subnormal_congruence",
    "check_expected_invariants",
    "check_congruence_subnormality",
    "check_frattini_t2_structure",
    "check_cyclic_closure_class",
    "check_generated_subgroup_class",
    "check_metabelian_identity_suite",
    "check_expansion",
    "check_odd_p_metabelian_class",
    "check_solubility_and_engel",
    "check_quotient_two_baer",
    "check_subgroup_inheritance",
    "check_product_decomposition",
    "parse_corpus_text",
    "default_corpus",
    "run_full_suite",
    "run_example_checks",
    "suite_config",
]

DEFAULT_EXHAUSTIVE_THRESHOLD = 2048

# Sample sizes of the checks that sample their inputs.
_CYCLIC_TRIALS = 200       # cyclic-closure-class
_GENERATED_TRIALS = 12     # generated-subgroup-class, per generator count
_INHERITANCE_TRIALS = 20   # subgroup-t2-inheritance

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass(frozen=True)
class TheoremCheck:
    """Outcome of one structural check on one group."""

    id: str
    status: str
    details: dict
    witness: str | None = None

    def to_json_dict(self) -> dict:
        out = {"id": self.id, "status": self.status, "details": self.details}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _skip(check_id: str, reason: str, **extra) -> TheoremCheck:
    details = {"reason": reason}
    details.update(extra)
    return TheoremCheck(check_id, SKIPPED, details)


def _verdict(check_id: str, ok: bool, details: dict,
             witness: str | None = None) -> TheoremCheck:
    return TheoremCheck(check_id, PASS if ok else FAIL, details, witness)


# ---------------------------------------------------------------------------
# Presentation texts for the benchmark corpus.
# ---------------------------------------------------------------------------

def cyclic_presentation(n: int) -> str:
    if n < 1:
        raise GroupError("cyclic group order must be positive")
    return f"gens: a; rels: a^{n}"


def dihedral_presentation(order: int) -> str:
    """Dihedral group of the given order (order = 2m, symmetries of an m-gon)."""
    if order < 2 or order % 2:
        raise GroupError("dihedral order must be a positive even integer")
    m = order // 2
    return f"gens: r, s; rels: r^{m}; s^2; (r*s)^2"


def quaternion_presentation() -> str:
    return "gens: a, b; rels: a^4; b^2 = a^2; b^-1*a*b = a^-1"


def symmetric_presentation(n: int) -> str:
    if n == 3:
        return "gens: a, b; rels: a^3; b^2; (a*b)^2"
    if n == 4:
        return "gens: a, b; rels: a^4; b^2; (a*b)^3"
    raise GroupError("only symmetric groups on 3 or 4 points are built in")


def alternating4_presentation() -> str:
    return "gens: a, b; rels: a^3; b^3; (a*b)^2"


def class4_2group_presentation() -> str:
    """Two-generator 2-group of order 128 and class 4 whose non-2-subnormal
    cyclic subgroups generate a proper subgroup of index 2."""
    return ("gens: x, y; rels: x^16 = y^16 = 1; (x*y^-1)^2 = [x,y]^4 = 1; "
            "[x,y,x] = x^4; [x,y,y] = y^4")


def class3_p_group_presentation(p: int) -> str:
    """Two-generator p-group of order p^6 and class 3 in which 2-subnormality
    of <g> is governed by a congruence on the Frattini coordinates of g."""
    if factorize(p) != {p: 1}:
        raise GroupError(f"{p} is not prime")
    q = p * p
    return (f"gens: x, y; rels: x^{p ** 3} = y^{p ** 3} = [x,y]^{p} = "
            f"[x,y,x] = 1; [x,y,y] = x^{q} = y^{q}")


# ---------------------------------------------------------------------------
# Group construction.
# ---------------------------------------------------------------------------

def build_group(text: str, name: str = "",
                max_cosets: int = DEFAULT_MAX_COSETS,
                max_steps: int | None = None) -> ConcreteGroup:
    """Parse a presentation and realize it as a concrete group, by coset
    enumeration over the cyclic subgroup of the first generator."""
    pres = parse_presentation(text, max_syllables=max_cosets)
    table = enumerate_cosets(pres, (word(pres.generators[0]),),
                             max_cosets=max_cosets, max_steps=max_steps)
    group = to_group(table, max_cosets)
    if name:
        group.meta["name"] = name
    return group


def _build_expected(name: str, text: str, max_cosets: int,
                    max_steps: int | None, *, expected: dict, family: str,
                    prime: int) -> ConcreteGroup:
    """Build a benchmark group and record its family, its prime and the
    invariants its construction promises."""
    group = build_group(text, name, max_cosets, max_steps)
    group.meta.update({"family": family, "prime": prime,
                       "expected": dict(expected)})
    return group


def build_class4_2group(max_cosets: int = DEFAULT_MAX_COSETS,
                        max_steps: int | None = None) -> ConcreteGroup:
    return _build_expected(
        "class4-2group", class4_2group_presentation(), max_cosets, max_steps,
        expected={"order": 128, "class": 4, "derived_length": 2,
                  "t2_order": 64, "classification": GENERALIZED_T2},
        family="class4", prime=2)


def build_class3_p_group(p: int,
                         max_cosets: int = DEFAULT_MAX_COSETS,
                         max_steps: int | None = None) -> ConcreteGroup:
    n = p ** 6
    return _build_expected(
        f"class3-p{p}", class3_p_group_presentation(p), max_cosets, max_steps,
        expected={"order": n, "class": 3, "derived_length": 2,
                  "t2_order": p ** 5, "classification": GENERALIZED_T2},
        family="class3", prime=p)


# ---------------------------------------------------------------------------
# The congruence rule for the class-3 family.
# ---------------------------------------------------------------------------

def two_subnormal_congruence(p: int, m: int, n: int) -> bool:
    """Predicted 2-subnormality of <g> for g with Frattini coordinates (m, n):
    the cyclic subgroup is 2-subnormal exactly when m = n = 0 or p does not
    divide m + n."""
    if not (0 <= m < p and 0 <= n < p):
        raise GroupError("coordinates must be reduced mod p")
    return (m == 0 and n == 0) or (m + n) % p != 0


def _frattini_labels(group: ConcreteGroup, p: int):
    """Every element's Frattini coordinates (m, n) as two numpy arrays: the
    exponent sums of x and y, mod p, in its word along the BFS tree.

    G/Φ(G) is C_p × C_p on the images of x and y, so any word for g gives
    g's coordinates.  The elements labelled (0, 0) must be exactly the
    Frattini subgroup, so every element has exactly one pair."""
    frat = frattini_p_group(group, p)
    if group.ngens != 2 or group.size != p * p * frat.size:
        raise GroupError("G/Φ(G) is not C_p × C_p on the two generators")
    step = np.array([[1, 0], [p - 1, 0], [0, 1], [0, p - 1]])
    labels = np.zeros((group.size, 2), dtype=np.int64)
    for l, parents, children in group._tree:
        labels[children] = (labels[parents] + step[l]) % p
    if not np.array_equal(np.flatnonzero(~labels.any(axis=1)), frat.elements):
        raise GroupError("the elements labelled (0, 0) are not the "
                         "Frattini subgroup")
    return labels[:, 0], labels[:, 1]


# ---------------------------------------------------------------------------
# Individual checks.  Each takes a built group plus tuning knobs and returns
# a TheoremCheck.
# ---------------------------------------------------------------------------

def check_expected_invariants(group: ConcreteGroup) -> TheoremCheck:
    """Compare the computed order, class, derived length, T_2 order and
    classification against the invariants the construction promises."""
    cid = "expected-invariants"
    expected = group.meta.get("expected")
    if not expected:
        return _skip(cid, "group carries no expected invariants")
    report = classify(group)
    got = {
        "order": report.order,
        "class": report.nilpotency_class,
        "derived_length": report.derived_length,
        "t2_order": report.t2_order,
        "classification": report.classification,
    }
    mismatches = {k: {"expected": v, "got": got[k]}
                  for k, v in expected.items() if got[k] != v}
    details = {"expected": dict(expected), "got": got}
    if mismatches:
        details["mismatches"] = mismatches
    return _verdict(cid, not mismatches, details)


def check_congruence_subnormality(group: ConcreteGroup) -> TheoremCheck:
    """On the class-3 family, at every element g = x^m y^n z: <g> is
    2-subnormal exactly when the congruence rule on (m, n) says so, and the
    defining bracket identities hold.

    Coordinates and defects are conjugation invariant, so the rule is
    decided once per class; the identities are checked over all elements
    at once.  A failure names the first failing element in index order,
    the rule before the identities."""
    cid = "congruence-subnormality"
    if group.meta.get("family") != "class3":
        return _skip(cid, "congruence rule only applies to the class-3 family")
    p = group.meta["prime"]
    q = p * p
    m, n = _frattini_labels(group, p)
    failures = []  # (first failing element, details), rule failures first
    for rep, _, res in _defect_scan(group):
        predicted = two_subnormal_congruence(p, int(m[rep]), int(n[rep]))
        if predicted != res.within(2):
            failures.append((group._class_rep[rep], {
                "predicted": predicted, "actual": res.within(2)}))

    x, y = group.generator_elements()
    every = np.arange(group.size)
    xq = np.array([group.power(x, k * q) for k in range(p)])  # x^(k p^2)
    names = ("[x,g,g] = x^(n^2 p^2)", "[y,g,g] = x^(-mn p^2)",
             "g^(p^2) = x^((m+n) p^2)")
    holds = np.array([
        group.comm_batch(group.comm_batch(x, every), every) == xq[n * n % p],
        group.comm_batch(group.comm_batch(y, every), every) == xq[-m * n % p],
        group.power_batch(every, q) == xq[(m + n) % p],
    ])
    bad = np.flatnonzero(~holds.all(axis=0))
    if bad.size:
        g = int(bad[0])
        failures.append((g, {"identity": names[np.argmin(holds[:, g])]}))

    if failures:
        g, found = min(failures, key=lambda f: f[0])
        details = {"mode": "exhaustive",
                   "coordinates": [int(m[g]), int(n[g])], **found}
        return _verdict(cid, False, details,
                        witness=str(group.element_word(g)))
    return _verdict(cid, True,
                    {"mode": "exhaustive", "count": group.size, "prime": p})


def check_frattini_t2_structure(group: ConcreteGroup) -> TheoremCheck:
    """On the class-3 family: the Frattini subgroup, derived subgroup and
    T_2 have the advertised orders and generating sets, and x y^(p-1) lies
    outside the Frattini subgroup while its p-th power falls inside."""
    cid = "frattini-t2-structure"
    if group.meta.get("family") != "class3":
        return _skip(cid, "structure claims only apply to the class-3 family")
    p = group.meta["prime"]
    q = p * p
    x = group.gen_element(0)
    y = group.gen_element(1)
    xp = group.power(x, p)
    yp = group.power(y, p)
    c = group.comm(x, y)
    frat = frattini_p_group(group, p)
    failures = []

    if frat.size != p ** 4:
        failures.append(f"frattini order {frat.size} != p^4")
    if Subgroup.generated(group, [xp, yp, c]) != frat:
        failures.append("frattini != <x^p, y^p, [x,y]>")

    der = derived_subgroup(group)
    if exponent(der) != p:
        failures.append(f"derived subgroup exponent {exponent(der)} != {p}")
    if Subgroup.generated(group, [c, group.power(x, q)]) != der:
        failures.append("derived subgroup != <[x,y], x^(p^2)>")
    series = upper_central_series(group)
    z2 = series[min(1, len(series) - 1)]
    if not der <= z2:
        failures.append("derived subgroup not inside second center")

    t2 = classify(group).t2
    w = group.mult(x, group.power(y, p - 1))
    expect_t2 = Subgroup.generated(group, [w, xp, yp, c])
    if expect_t2 != t2:
        failures.append("T_2 != <x y^(p-1), x^p, y^p, [x,y]>")
    if w in frat:
        failures.append("x y^(p-1) lies in the Frattini subgroup")
    if group.power(w, p) not in frat:
        failures.append("(x y^(p-1))^p escapes the Frattini subgroup")
    if group.power(w, q) != 0:
        failures.append("(x y^(p-1))^(p^2) != 1")

    details = {
        "prime": p,
        "frattini_order": frat.size,
        "derived_order": der.size,
        "derived_exponent": exponent(der),
        "t2_order": t2.size,
    }
    if failures:
        details["failures"] = failures
    return _verdict(cid, not failures, details)


def check_cyclic_closure_class(
        group: ConcreteGroup, *,
        exhaustive_threshold: int = DEFAULT_EXHAUSTIVE_THRESHOLD,
        seed: int = 0) -> TheoremCheck:
    """When T_2 is proper, every element outside it generates a normal
    closure of class at most 2 and is a left 3-Engel element.

    Both answers are conjugation invariant (the normal closure of g^h is
    that of g), so each is computed once per conjugacy class, from its
    representative, and only the closure's order and class are kept.
    Elements are still visited in input order, so a failure names the
    first failing element, not its representative."""
    cid = "cyclic-closure-class"
    t2 = classify(group).t2
    if t2.is_whole():
        return _skip(cid, "T_2 is the whole group; no elements lie outside it",
                     t2_order=t2.size)
    outside = [g for g in range(group.size) if g not in t2]
    if group.size <= exhaustive_threshold:
        todo = outside
        mode = "exhaustive"
    else:
        rng = random.Random(seed)
        todo = rng.sample(outside, min(_CYCLIC_TRIALS, len(outside)))
        mode = "sampled"
    per_class: dict[int, tuple[int, int | None, bool]] = {}
    for g in todo:
        r = group._class_rep[g]
        if r not in per_class:
            ncl = normal_closure([r], group)
            per_class[r] = (ncl.size, nilpotency_class(ncl),
                            _is_left_engel(group, r, 3))
        size, cls, engel = per_class[r]
        if cls is None or cls > 2:
            return _verdict(cid, False,
                            {"mode": mode, "closure_order": size,
                             "closure_class": cls},
                            witness=str(group.element_word(g)))
        if not engel:
            return _verdict(cid, False,
                            {"mode": mode, "failed": "left 3-Engel"},
                            witness=str(group.element_word(g)))
    details = {"mode": mode, "count": len(todo), "outside_t2": len(outside)}
    if mode == "sampled":
        details["seed"] = seed
    return _verdict(cid, True, details)


def check_generated_subgroup_class(
        group: ConcreteGroup, *, seed: int = 0,
        exhaustive_threshold: int = DEFAULT_EXHAUSTIVE_THRESHOLD) -> TheoremCheck:
    """When T_2 is proper, every subgroup generated by d = 1, 2, 3 elements
    is nilpotent of class at most 2(d + 1).  Each d checks every generator
    tuple when there are at most `exhaustive_threshold` of them."""
    cid = "generated-subgroup-class"
    t2 = classify(group).t2
    if t2.is_whole():
        return _skip(cid, "T_2 is the whole group; no elements lie outside it",
                     t2_order=t2.size)
    rng = random.Random(seed)
    counts = {}
    for d in (1, 2, 3):
        bound = 2 * (d + 1)
        cols, mode = _inputs(rng, (range(group.size),) * d,
                             _GENERATED_TRIALS, exhaustive_threshold)
        tuples = group._ints[cols.T].tolist()
        for gens in tuples:
            sub = Subgroup.generated(group, gens)
            cls = nilpotency_class(sub)
            if cls is None or cls > bound:
                return _verdict(cid, False,
                                {"d": d, "bound": bound, "class": cls,
                                 "subgroup_order": sub.size, "mode": mode},
                                witness=_pair_words(group, *gens))
        counts[str(d)] = {"bound": bound, "count": len(tuples), "mode": mode}
    return _verdict(cid, True, {"per_d": counts, "seed": seed})


def check_metabelian_identity_suite(group: ConcreteGroup, *,
                                    seed: int = 0) -> TheoremCheck:
    """Commutator identities that hold in every metabelian group."""
    cid = "metabelian-identities"
    if not is_metabelian(group):
        return _skip(cid, "group is not metabelian")
    results = check_metabelian_identities(group, seed=seed)
    details = {
        "identities": {r.name: {"mode": r.mode, "trials": r.trials}
                       for r in results},
    }
    return _identities_verdict(cid, results, details)


def check_expansion(group: ConcreteGroup, *, seed: int = 0) -> TheoremCheck:
    """Power expansion of (x y^-1)^n against the bracket-product formula in
    metabelian groups."""
    cid = "expansion-formula"
    if not is_metabelian(group):
        return _skip(cid, "group is not metabelian")
    small = group.size <= EXPANSION_EXHAUSTIVE_ORDER
    n_values = (1, 2, 3, 4, 5, 6) if small else (1, 2, 3, 4, 5, 6, 7, 8)
    results = check_expansion_formula(group, n_values=n_values, seed=seed)
    details = {
        "n_values": list(n_values),
        "mode": results[0].mode if results else "exhaustive",
        "pairs": results[0].trials if results else 0,
    }
    return _identities_verdict(cid, results, details)


def _identities_verdict(cid: str, results, details: dict) -> TheoremCheck:
    """Pass when every identity holds; otherwise list the failing ones and
    report the first one's witness as it stands."""
    failed = [r for r in results if r.holds is False]
    if not failed:
        return _verdict(cid, True, details)
    details["failures"] = [r.name for r in failed]
    return _verdict(cid, False, details, witness=failed[0].witness)


def check_odd_p_metabelian_class(group: ConcreteGroup) -> TheoremCheck:
    """Metabelian p-groups with proper nontrivial T_2 have class exactly 3
    when p is odd; for p = 2 the class bound genuinely fails, so the check
    records the observed class instead."""
    cid = "odd-p-class-three"
    facs = factorize(group.size)
    if len(facs) != 1:
        return _skip(cid, "group is not a p-group")
    if not is_metabelian(group):
        return _skip(cid, "group is not metabelian")
    report = classify(group)
    if report.classification != GENERALIZED_T2:
        return _skip(cid, "T_2 is trivial or the whole group",
                     classification=report.classification)
    p = next(iter(facs))
    cls = nilpotency_class(group)
    if p == 2:
        return _skip(cid, "class bound requires odd p; observed class recorded",
                     observed_class=cls,
                     sharpness_witness=bool(cls is not None and cls > 3))
    engel = is_n_engel_group(group, 3)
    details = {"prime": p, "class": cls, "engel3": engel.holds}
    return _verdict(cid, cls == 3 and engel.holds, details)


def check_solubility_and_engel(group: ConcreteGroup, *,
                               seed: int = 0) -> TheoremCheck:
    """p-groups with proper T_2 are soluble 6-Engel groups whose 2-generator
    subgroups have class at most 6 and 5-generator subgroups class at most 12."""
    cid = "solubility-and-engel"
    facs = factorize(group.size)
    if len(facs) != 1:
        return _skip(cid, "group is not a p-group")
    t2 = classify(group).t2
    if t2.is_whole():
        return _skip(cid, "T_2 is the whole group; the claim needs it proper")
    failures = []
    dl = derived_length(group)
    if dl is None:
        failures.append("group is not soluble")
    engel = is_n_engel_group(group, 6)
    if not engel.holds:
        failures.append("6-Engel identity fails")
    rng = random.Random(seed)
    type_counts = {}
    for d, bound, trials in ((2, 6, 20), (5, 12, 10)):
        for _ in range(trials):
            gens = [rng.randrange(group.size) for _ in range(d)]
            cls = nilpotency_class(Subgroup.generated(group, gens))
            if cls is None or cls > bound:
                failures.append(
                    f"{d}-generator subgroup of class {cls} exceeds {bound}")
                break
        type_counts[str(d)] = {"bound": bound, "count": trials}
    details = {"derived_length": dl, "engel": 6, "types": type_counts,
               "seed": seed}
    if failures:
        details["failures"] = failures
    return _verdict(cid, not failures, details)


def check_quotient_two_baer(group: ConcreteGroup) -> TheoremCheck:
    """The quotient by T_2 has trivial T_2 of its own: factoring out the
    2-subnormal part leaves nothing 2-subnormal behind."""
    cid = "quotient-two-baer"
    t2 = classify(group).t2
    if t2.is_whole():
        return _skip(cid, "T_2 is the whole group; quotient is trivial")
    if t2.size == 1:
        return _skip(cid, "T_2 is trivial; the quotient is the group itself")
    q = quotient(group, t2)
    report = classify(q)
    details = {"quotient_order": q.size, "quotient_t2_order": report.t2_order,
               "quotient_classification": report.classification}
    return _verdict(cid, report.t2_order == 1, details)


def check_subgroup_inheritance(group: ConcreteGroup, *,
                               seed: int = 0) -> TheoremCheck:
    """T_2 measured inside a subgroup H lands inside T_2(G) intersected
    with H."""
    cid = "subgroup-t2-inheritance"
    t2g = classify(group).t2
    rng = random.Random(seed)
    checked = 0
    for i in range(_INHERITANCE_TRIALS):
        d = 1 + (i % 2)
        gens = [rng.randrange(group.size) for _ in range(d)]
        sub = Subgroup.generated(group, gens)
        t2h = t_n_within(sub, 2)
        if not (t2h <= t2g and t2h <= sub):
            return _verdict(cid, False,
                            {"subgroup_order": sub.size,
                             "subgroup_t2_order": t2h.size},
                            witness=_pair_words(group, *gens))
        checked += 1
    return _verdict(cid, True, {"count": checked, "seed": seed})


def check_product_decomposition(h: ConcreteGroup, k: ConcreteGroup, *,
                                product: ConcreteGroup | None = None) -> TheoremCheck:
    """T_2 of a direct product H x K, with K a 2-Baer group of order coprime
    to the prime of H, is sandwiched between T_2(H) x 1 and T_2(H) x K.

    Both bounds are attainable: any element pairing a non-2-subnormal part
    of H with a nontrivial part of K stays non-2-subnormal (chains project
    to the factors), which can pull all of K into T_2."""
    cid = "product-decomposition"
    hfacs = factorize(h.size)
    if len(hfacs) != 1:
        return _skip(cid, "left factor is not a p-group")
    p = next(iter(hfacs))
    if k.size % p == 0:
        return _skip(cid, "factor orders are not coprime")
    kreport = classify(k)
    if kreport.t2_order != 1:
        return _skip(cid, "right factor is not a 2-Baer group")
    hreport = classify(h)
    if hreport.classification == NOT_GENERALIZED_BAER2:
        return _skip(cid, "left factor has no proper T_2")

    g = product if product is not None else direct_product(h, k)
    m = k.size
    embed_left = g.meta["embed_left"]
    greport = classify(g)
    t2h, t2g = hreport.t2, greport.t2
    lower = {embed_left[a] for a in t2h.elements}
    upper = {a * m + b for a in t2h.elements for b in range(k.size)}
    failures = []
    if not all(map(t2g.__contains__, lower)):
        failures.append("T_2(H) x 1 escapes T_2 of the product")
    if not upper.issuperset(t2g.elements):
        failures.append("T_2 of the product escapes T_2(H) x K")
    expected_cls = (GENERALIZED_T2 if t2h.size > 1 else TWO_BAER)
    if greport.classification != expected_cls:
        failures.append(
            f"classification {greport.classification} != {expected_cls}")
    if nilpotency_class(g) is not None:
        syl = dict(sylow_decomposition(g))
        if syl[p].size != h.size:
            failures.append("Sylow p-part of the product has the wrong order")
    details = {
        "prime": p,
        "factor_orders": [h.size, k.size],
        "product_t2_order": t2g.size,
        "left_t2_order": t2h.size,
        "classification": greport.classification,
    }
    if failures:
        details["failures"] = failures
    return _verdict(cid, not failures, details)


# ---------------------------------------------------------------------------
# Corpus and suite drivers.
# ---------------------------------------------------------------------------

# A builder takes max_cosets and max_steps, the enumeration limits.
Builder = Callable[[int, int | None], ConcreteGroup]


@dataclass(frozen=True)
class CorpusEntry:
    """A named group the suite knows how to build on demand.  Each call of
    `build` builds the group afresh."""

    name: str
    build: Builder


def _product_builder(name: str, left: Builder, right: Builder) -> Builder:
    def build(max_cosets: int = DEFAULT_MAX_COSETS,
              max_steps: int | None = None) -> ConcreteGroup:
        group = direct_product(left(max_cosets, max_steps),
                               right(max_cosets, max_steps))
        group.meta["name"] = name
        return group

    return build


def parse_corpus_text(text: str, source: str = "<corpus>",
                      max_cosets: int = DEFAULT_MAX_COSETS) -> list[CorpusEntry]:
    """Parse a corpus file: one group per line as 'name | presentation',
    with blank lines and # comments ignored."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, body = line.partition("|")
        name = name.strip()
        body = body.strip()
        if not sep or not name or not body:
            raise GroupError(
                f"{source}:{lineno}: expected 'name | presentation'")
        try:
            parse_presentation(body, max_syllables=max_cosets)
        except PresentationError as exc:
            raise GroupError(f"{source}:{lineno}: {exc}") from exc
        entries.append(CorpusEntry(name, partial(build_group, body, name)))
    return entries


def default_corpus() -> list[CorpusEntry]:
    """The benchmark corpus, in report order."""
    texts = [(f"C{n}", cyclic_presentation(n)) for n in range(2, 13)]
    texts += [(f"D{order}", dihedral_presentation(order))
              for order in (8, 10, 12, 14, 16)]
    texts += [("Q8", quaternion_presentation()),
              ("S3", symmetric_presentation(3)),
              ("S4", symmetric_presentation(4)),
              ("A4", alternating4_presentation())]
    entries = [CorpusEntry(name, partial(build_group, text, name))
               for name, text in texts]
    entries.append(CorpusEntry("class4-2group", build_class4_2group))
    for p in (2, 3, 5):
        entries.append(CorpusEntry(f"class3-p{p}",
                                   partial(build_class3_p_group, p)))
    entries.append(CorpusEntry(
        "class3-p3 x C2",
        _product_builder("class3-p3 x C2", partial(build_class3_p_group, 3),
                         partial(build_group, cyclic_presentation(2), "C2"))))
    return entries


def _derived_seed(seed: int, group_name: str, check_id: str) -> int:
    digest = sha256(f"{seed}|{group_name}|{check_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _product_check(group: ConcreteGroup, threshold: int,
                   seed: int) -> TheoremCheck | None:
    if "factors" not in group.meta:
        return None
    return check_product_decomposition(*group.meta["factors"], product=group)


# The suite as (check id, call(group, threshold, seed)) in running order;
# reports list the checks sorted by id.  The seed is derived from the
# run's seed, the group name and the check id; a call returns None where
# its check does not apply to the group.  The calls look their check
# functions up by name when they run, so a wrapped or patched module
# function is the one called.
_SUITE_CHECKS = (
    ("expected-invariants",
     lambda g, threshold, seed: check_expected_invariants(g)),
    ("congruence-subnormality",
     lambda g, threshold, seed: check_congruence_subnormality(g)),
    ("frattini-t2-structure",
     lambda g, threshold, seed: check_frattini_t2_structure(g)),
    ("cyclic-closure-class",
     lambda g, threshold, seed: check_cyclic_closure_class(
         g, exhaustive_threshold=threshold, seed=seed)),
    ("generated-subgroup-class",
     lambda g, threshold, seed: check_generated_subgroup_class(
         g, seed=seed, exhaustive_threshold=threshold)),
    ("metabelian-identities",
     lambda g, threshold, seed: check_metabelian_identity_suite(g, seed=seed)),
    ("expansion-formula",
     lambda g, threshold, seed: check_expansion(g, seed=seed)),
    ("odd-p-class-three",
     lambda g, threshold, seed: check_odd_p_metabelian_class(g)),
    ("solubility-and-engel",
     lambda g, threshold, seed: check_solubility_and_engel(g, seed=seed)),
    ("quotient-two-baer",
     lambda g, threshold, seed: check_quotient_two_baer(g)),
    ("subgroup-t2-inheritance",
     lambda g, threshold, seed: check_subgroup_inheritance(g, seed=seed)),
    ("product-decomposition", _product_check),
)


def suite_config(seed: int, max_cosets: int,
                 exhaustive_threshold: int) -> dict:
    """The "config" block of a JSON report."""
    return {
        "seed": seed,
        "limits": {
            "max_cosets": max_cosets,
            "exhaustive_threshold": exhaustive_threshold,
        },
    }


def run_full_suite(corpus: list[CorpusEntry] | None = None, *, seed: int = 0,
                   max_cosets: int = DEFAULT_MAX_COSETS,
                   exhaustive_threshold: int = DEFAULT_EXHAUSTIVE_THRESHOLD,
                   max_steps: int | None = None, checks=None) -> dict:
    """Build every corpus group and run every applicable check, returning a
    JSON-ready report.  With `checks`, a collection of check ids, only those
    checks run.  max_steps bounds each enumeration; it is not recorded in
    the report, since a completed enumeration does not depend on it."""
    if corpus is None:
        corpus = default_corpus()
    table = _SUITE_CHECKS
    if checks is not None:
        unknown = set(checks).difference(cid for cid, _ in _SUITE_CHECKS)
        if unknown:
            raise GroupError(f"unknown check ids: {sorted(unknown)}")
        table = [(cid, call) for cid, call in _SUITE_CHECKS if cid in checks]
    reports = []
    for entry in corpus:
        group = entry.build(max_cosets, max_steps)
        results = [call(group, exhaustive_threshold,
                        _derived_seed(seed, entry.name, cid))
                   for cid, call in table]
        results = sorted((c for c in results if c is not None),
                         key=lambda c: c.id)
        gdict = {"name": entry.name}
        gdict.update(classify(group).to_json_dict())
        reports.append({"group": gdict,
                        "checks": [c.to_json_dict() for c in results]})
        # Free the group (and a product's factors) before the next entry
        # is built, not at the next full pass of the cycle collector.
        for done in (group, *group.meta.get("factors", ())):
            done._drop_memos()
        del group, done
    return {
        "config": suite_config(seed, max_cosets, exhaustive_threshold),
        "reports": reports,
    }


_EXAMPLE_CHECK_IDS = (
    "expected-invariants",
    "frattini-t2-structure",
    "congruence-subnormality",
    "odd-p-class-three",
)


def run_example_checks(primes: tuple[int, ...] = (2, 3, 5), *, seed: int = 0,
                       max_cosets: int = DEFAULT_MAX_COSETS,
                       exhaustive_threshold: int = DEFAULT_EXHAUSTIVE_THRESHOLD,
                       max_steps: int | None = None) -> dict:
    """Verify the two worked example families: the order-128 class-4 group
    and the class-3 p-group family at the requested primes."""
    for p in primes:
        if p not in (2, 3, 5, 7):
            raise GroupError(f"supported primes are 2, 3, 5 and 7; got {p}")
    if len(set(primes)) != len(primes):
        raise GroupError(f"each prime may be given once; got {list(primes)}")
    entries = [CorpusEntry("class4-2group", build_class4_2group)]
    entries += [CorpusEntry(f"class3-p{p}", partial(build_class3_p_group, p))
                for p in primes]
    return run_full_suite(entries, checks=_EXAMPLE_CHECK_IDS, seed=seed,
                          max_cosets=max_cosets,
                          exhaustive_threshold=exhaustive_threshold,
                          max_steps=max_steps)
