"""The benchmark's workloads: the inputs each one generates from its seed,
the baerkit command it runs on them, and the oracles its output must pass.

Every expected value here comes from how the group was constructed or from
a fact the paper states, never from baerkit itself.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Generator-name pairs a workload may draw from; renaming the generators
# changes the input bytes without changing the group.
_NAME_PAIRS = (("x", "y"), ("a", "b"), ("u", "v"), ("g", "h"), ("s", "t"))

_NOT_NILPOTENT = "not-nilpotent"
_TWO_BAER = "TwoBaer"
_GENERALIZED_T2 = "GeneralizedT2"


def _is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


def class3_presentation(p: int, gx: str, gy: str) -> str:
    """The paper's class-3 family: order p^6, |T2| = p^5."""
    c = f"[{gx},{gy}]"
    return (f"gens: {gx}, {gy}; rels: {gx}^{p ** 3} = {gy}^{p ** 3} = "
            f"{c}^{p} = [{gx},{gy},{gx}] = 1; "
            f"[{gx},{gy},{gy}] = {gx}^{p * p} = {gy}^{p * p}")


@dataclass(frozen=True)
class Prepared:
    """A workload's generated inputs, ready to run."""

    args: list[str]            # baerkit arguments after `python -m baerkit`
    files: dict[str, str]      # input file name -> contents
    expected: dict             # what the oracles compare against


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[int, Path], Prepared]
    check: Callable[[bytes, Prepared], list[str]]


def _program_seed(seed: int) -> int:
    return random.Random(f"program-seed:{seed}").randrange(1, 10**6)


def _write_inputs(outdir: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        (outdir / name).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# suite-default: check-theorems on the built-in corpus.
# ---------------------------------------------------------------------------

def _suite_default_expected() -> list[dict]:
    """Name and order (and, where the paper or elementary theory fixes
    them, class, |T2| and classification) of each built-in corpus group,
    in report order."""
    want = []
    for n in range(2, 13):
        # Cyclic groups are abelian: class 1, every subgroup normal.
        want.append({"name": f"C{n}", "order": n, "class": 1,
                     "classification": _TWO_BAER})
    want += [{"name": f"D{order}", "order": order}
             for order in (8, 10, 12, 14, 16)]
    want += [{"name": "Q8", "order": 8, "class": 2,
              "classification": _TWO_BAER},
             {"name": "S3", "order": 6}, {"name": "S4", "order": 24},
             {"name": "A4", "order": 12},
             {"name": "class4-2group", "order": 128, "class": 4,
              "t2_order": 64, "classification": _GENERALIZED_T2}]
    want += [{"name": f"class3-p{p}", "order": p ** 6, "class": 3,
              "t2_order": p ** 5, "classification": _GENERALIZED_T2}
             for p in (2, 3, 5)]
    want.append({"name": "class3-p3 x C2", "order": 1458})
    return want


def _prepare_suite_default(seed: int, outdir: Path) -> Prepared:
    s = _program_seed(seed)
    return Prepared(
        args=["check-theorems", "--format", "json", "--seed", str(s)],
        files={}, expected={"seed": s, "groups": _suite_default_expected()})


def _check_report(stdout: bytes, prep: Prepared) -> list[str]:
    """A check-theorems JSON report against the expected groups, in order."""
    try:
        return _report_errors(json.loads(stdout), prep.expected)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"stdout is not a well-formed report: {exc!r}"]


def _report_errors(report: dict, expected: dict) -> list[str]:
    errors = []
    if report["config"]["seed"] != expected["seed"]:
        errors.append(f"report seed {report['config']['seed']} != "
                      f"{expected['seed']}")
    want = expected["groups"]
    names = [rep["group"]["name"] for rep in report["reports"]]
    if names != [w["name"] for w in want]:
        errors.append(f"groups {names} != expected {[w['name'] for w in want]}")
    for rep, w in zip(report["reports"], want):
        group = rep["group"]
        errors += [f"{w['name']}: {key}={group.get(key)!r}, expected {value!r}"
                   for key, value in w.items()
                   if key not in ("kind", "name") and group.get(key) != value]
        errors += [f"{w['name']}: check {c['id']} failed"
                   for c in rep["checks"] if c["status"] == "fail"]
    return errors


# ---------------------------------------------------------------------------
# p5-analyze: build and classify the class-3 family at p = 5.
# ---------------------------------------------------------------------------

_P = 5
_P5_LINE = (f"order={_P ** 6} class=3 derived_length=2 |T2|={_P ** 5} "
            f"classification={_GENERALIZED_T2}\n")


def _prepare_p5(seed: int, outdir: Path) -> Prepared:
    gx, gy = random.Random(f"p5-analyze:{seed}").choice(_NAME_PAIRS)
    files = {"class3-p5.txt": class3_presentation(_P, gx, gy) + "\n"}
    _write_inputs(outdir, files)
    return Prepared(
        args=["analyze", str(outdir / "class3-p5.txt"),
              "--seed", str(_program_seed(seed))],
        files=files, expected={"stdout": _P5_LINE})


def _check_p5(stdout: bytes, prep: Prepared) -> list[str]:
    text = stdout.decode("utf-8", "replace")
    if text != prep.expected["stdout"]:
        return [f"analyze printed {text!r}, expected {prep.expected['stdout']!r}"]
    return []


# ---------------------------------------------------------------------------
# corpus-mixed: check-theorems on a seeded corpus of 32 small groups.
# ---------------------------------------------------------------------------

# Each kind has eight slots.  The seed picks a group inside each slot among
# isomorphic choices (generator names, r, the order of the factors), so the
# work per run barely depends on the seed while the input bytes do.  The
# line order is fixed because peak RSS depends on it.
_DIHEDRAL_M = (40, 64, 80, 100, 128, 150, 176, 200)
# (prime m, n) with n | m - 1, so Z_m^* has elements of order exactly n.
_METACYCLIC_MN = ((37, 6), (43, 6), (41, 8), (61, 6),
                  (73, 8), (97, 8), (101, 10), (151, 10))
# (m, n) with n | m: invariant factors of C_m x C_n.
_ABELIAN_MN = ((30, 6), (36, 6), (50, 5), (42, 7),
               (60, 6), (48, 12), (84, 7), (90, 9))
# (p, a, b): order p^(a+b+1), at most 2000.
_PGROUP_PAB = ((3, 1, 2), (5, 1, 1), (3, 2, 2), (7, 1, 1),
               (2, 3, 4), (5, 1, 2), (3, 2, 3), (11, 1, 1))
# Orders run from 80 to 1510.  Groups of order 64 or less are left out:
# check_expansion_formula tries every pair there, which would make the
# Engel layer, not closure, dominate the workload.

# Why each kind of group is in the corpus.
CORPUS_KINDS = {
    "dihedral": "non-nilpotent for m not a power of 2; many conjugacy "
                "classes of reflections, so many small closures",
    "metacyclic": "split metacyclic C_m : C_n with r of order n mod prime m; "
                  "a Frobenius group, not nilpotent, with a nontrivial "
                  "relation b^-1 a b = a^r to enumerate",
    "abelian": "C_m x C_n: class 1, every cyclic subgroup normal, so the "
               "defect scan does one closure per element class",
    "pgroup": "class-2 p-group <x,y | x^(p^a), y^(p^b), [x,y]^p, [x,y,x], "
              "[x,y,y]>: class 2 forces defect <= 2, so TwoBaer",
}


def _order_of_unit(r: int, m: int) -> int:
    k, x = 1, r % m
    while x != 1:
        x = x * r % m
        k += 1
    return k


def generate_mixed_corpus(seed: int) -> tuple[str, list[dict]]:
    """Corpus text and, per group, its kind and the invariants known from
    the construction."""
    rng = random.Random(f"corpus-mixed:{seed}")
    groups: list[tuple[str, str, str, dict]] = []
    for m in _DIHEDRAL_M:
        r, s = rng.choice(_NAME_PAIRS)
        want = {"order": 2 * m}
        if _is_power_of_two(m):
            # D_{2^(k+1)} has class k.
            want["class"] = m.bit_length() - 1
        else:
            want["class"] = _NOT_NILPOTENT
        groups.append(("dihedral", f"D{2 * m}",
                       f"gens: {r}, {s}; rels: {r}^{m}; {s}^2; ({r}*{s})^2",
                       want))
    for m, n in _METACYCLIC_MN:
        r = rng.choice([r for r in range(2, m) if _order_of_unit(r, m) == n])
        a, b = rng.choice(_NAME_PAIRS)
        groups.append(("metacyclic", f"M{m}_{n}_{r}",
                       f"gens: {a}, {b}; rels: {a}^{m}; {b}^{n}; "
                       f"{b}^-1*{a}*{b} = {a}^{r}",
                       {"order": m * n, "class": _NOT_NILPOTENT}))
    for m, n in _ABELIAN_MN:
        a, b = rng.choice(_NAME_PAIRS)
        if rng.random() < 0.5:
            m, n = n, m
        groups.append(("abelian", f"C{m}xC{n}",
                       f"gens: {a}, {b}; rels: {a}^{m}; {b}^{n}; [{a},{b}]",
                       {"order": m * n, "class": 1,
                        "classification": _TWO_BAER}))
    for p, ea, eb in _PGROUP_PAB:
        x, y = rng.choice(_NAME_PAIRS)
        if rng.random() < 0.5:
            ea, eb = eb, ea
        groups.append(("pgroup", f"P{p}_{ea}_{eb}",
                       f"gens: {x}, {y}; rels: {x}^{p ** ea}; {y}^{p ** eb}; "
                       f"[{x},{y}]^{p}; [{x},{y},{x}]; [{x},{y},{y}]",
                       {"order": p ** (ea + eb + 1), "class": 2,
                        "classification": _TWO_BAER}))
    lines = [f"# corpus-mixed, seed {seed}: name | presentation"]
    lines += [f"{name} | {text}" for _, name, text, _ in groups]
    expected = [{"kind": kind, "name": name, **want}
                for kind, name, _, want in groups]
    return "\n".join(lines) + "\n", expected


def _prepare_mixed(seed: int, outdir: Path) -> Prepared:
    text, expected = generate_mixed_corpus(seed)
    files = {"corpus-mixed.txt": text}
    _write_inputs(outdir, files)
    s = _program_seed(seed)
    return Prepared(
        args=["check-theorems", "--format", "json",
              "--corpus", str(outdir / "corpus-mixed.txt"), "--seed", str(s)],
        files=files,
        expected={"seed": s, "kinds": CORPUS_KINDS, "groups": expected})


WORKLOADS = {
    w.name: w for w in (
        Workload("suite-default",
                 "check-theorems on the built-in 25-group corpus; the "
                 "headline command, closure and identity checks dominate",
                 _prepare_suite_default, _check_report),
        Workload("p5-analyze",
                 "analyze the order-15625 class-3 group; enumeration and "
                 "large (numpy) closures dominate, no checks run",
                 _prepare_p5, _check_p5),
        Workload("corpus-mixed",
                 "check-theorems on 32 seeded groups of order 80-1510; "
                 "thousands of small (set path) closures",
                 _prepare_mixed, _check_report),
    )
}
