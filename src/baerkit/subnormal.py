"""Subnormality defects, T_n subgroups, and group classification.

A subgroup H is n-subnormal in G when some chain H = H_0 <| H_1 <| ...
<| H_n = G of successive normal inclusions exists; chains may repeat
terms, so "defect at most n" is the operative notion and the defect is
the least chain length.  The iterated normal closure series K_0 = G,
K_{i+1} = ncl(H, K_i) descends fastest among all such chains, so the
defect is the first index where it hits H, and if the series stabilizes
strictly above H no chain exists at all.

T_n(G) is generated by every element x whose cyclic subgroup <x> is not
n-subnormal.  The scan below walks conjugacy class representatives and
deduplicates cyclic subgroups, which is enough: defects are invariant
under conjugation and depend only on the cyclic subgroup, not on which
generator of it was picked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    ConcreteGroup,
    GroupError,
    Subgroup,
    derived_length,
    factorize,
    nilpotency_class,
    normal_closure,
    _as_subgroup,
)

__all__ = [
    "DEFAULT_CAP",
    "SMALL_GROUP_BOUND",
    "DefectResult",
    "defect",
    "cyclic_defect",
    "is_n_subnormal",
    "t_n_subgroup",
    "t_n_within",
    "all_subgroups",
    "brute_force_defect",
    "ClassificationReport",
    "classify",
    "TWO_BAER",
    "GENERALIZED_T2",
    "NOT_GENERALIZED_BAER2",
]

DEFAULT_CAP = 8
SMALL_GROUP_BOUND = 48

TWO_BAER = "TwoBaer"
GENERALIZED_T2 = "GeneralizedT2"
NOT_GENERALIZED_BAER2 = "NotGeneralizedBaer2"


@dataclass(frozen=True)
class DefectResult:
    """Either a definite defect or the report that no chain fits the cap.

    cap is the search depth that produced a None defect; stabilized
    tells whether the closure series provably stopped descending (so no
    cap would ever help).  For definite defects cap is irrelevant.
    """

    defect: int | None
    cap: int | None = None
    stabilized: bool = False

    @property
    def is_subnormal(self) -> bool:
        return self.defect is not None

    def within(self, n: int) -> bool:
        return self.defect is not None and self.defect <= n

    def __str__(self) -> str:
        if self.defect is not None:
            return f"defect {self.defect}"
        if self.stabilized:
            return "not subnormal"
        return f"no chain within {self.cap}"


def defect(h: Subgroup, ambient, cap: int = DEFAULT_CAP) -> DefectResult:
    """Defect of h in the ambient group or subgroup via the iterated
    normal closure series.  Defect 0 means h is the whole ambient."""
    amb = _as_subgroup(ambient)
    if h.group is not amb.group:
        raise GroupError("subgroup and ambient belong to different groups")
    if not h.elemset <= amb.elemset:
        raise GroupError("subgroup is not contained in the ambient")
    if cap < 0:
        raise GroupError("cap must be nonnegative")
    if h.elemset == amb.elemset:
        return DefectResult(0)
    current = amb
    for d in range(1, cap + 1):
        nxt = normal_closure(h.gens, current)
        if nxt.elemset == h.elemset:
            return DefectResult(d)
        if nxt.size == current.size:
            return DefectResult(None, cap=cap, stabilized=True)
        current = nxt
    return DefectResult(None, cap=cap, stabilized=False)


def cyclic_defect(group: ConcreteGroup, x: int, cap: int = DEFAULT_CAP) -> DefectResult:
    """Defect of <x> in the whole group, cached by the cyclic subgroup.

    Definite defects and provably stabilized outcomes are reused for any
    cap; a cap-truncated outcome is only reused for caps it covers."""
    sub = Subgroup.generated(group, [x])
    got = group._cyclic_defects.get(sub.elemset)
    if got is not None:
        if got.defect is not None or got.stabilized or (got.cap or 0) >= cap:
            return got
    got = defect(sub, group, cap=cap)
    group._cyclic_defects[sub.elemset] = got
    return got


def is_n_subnormal(group: ConcreteGroup, x: int, n: int, cap: int | None = None) -> bool:
    """Whether <x> has defect at most n in the group."""
    res = cyclic_defect(group, x, cap=max(n, cap if cap is not None else DEFAULT_CAP))
    return res.within(n)


def _defect_scan(group: ConcreteGroup, cap: int) -> list[tuple[int, int, DefectResult]]:
    """(class representative, class size, defect of <rep>) per class.

    Representatives cover every element up to conjugacy and defects are
    conjugation invariant, so this scan determines T_n membership and
    per-element defect statistics for the entire group."""
    got = group._defect_scans.get(cap)
    if got is None:
        got = []
        for cl in group.conjugacy_classes():
            rep = cl[0]
            got.append((rep, len(cl), cyclic_defect(group, rep, cap=cap)))
        group._defect_scans[cap] = got
    return got


def t_n_subgroup(group: ConcreteGroup, n: int, cap: int = DEFAULT_CAP) -> Subgroup:
    """The subgroup generated by all x with <x> not n-subnormal.

    An outcome that found no chain within the cap counts as not
    n-subnormal; classify() reports how often that happened so a too-low
    cap is visible rather than silent."""
    scan = _defect_scan(group, max(cap, n))
    bad = [rep for rep, _, res in scan if not res.within(n)]
    return normal_closure(bad, group)


def t_n_within(ambient: Subgroup, n: int, cap: int = DEFAULT_CAP) -> Subgroup:
    """T_n of a subgroup, computed inside the parent group's indices.

    One generator per distinct cyclic subgroup of the ambient is enough,
    and once a cyclic subgroup has been examined every element inside it
    can be skipped: a subgroup of a cyclic group is characteristic in
    it, so powers of an n-subnormal element stay n-subnormal, and powers
    of a bad element land inside the generated subgroup anyway."""
    group = ambient.group
    if ambient.is_whole():
        return t_n_subgroup(group, n, cap=cap)
    seen: set[int] = set()
    bad: list[int] = []
    for h in ambient.elements:
        if h in seen:
            continue
        cyc = Subgroup.generated(group, [h])
        seen |= cyc.elemset
        if not defect(cyc, ambient, cap=max(cap, n)).within(n):
            bad.append(h)
    return normal_closure(bad, ambient)


def all_subgroups(group: ConcreteGroup, bound: int = SMALL_GROUP_BOUND) -> list[Subgroup]:
    """Every subgroup, by closing the cyclic subgroups under joins.

    Exponential in spirit and meant for oracle work only, hence the
    hard size bound."""
    if group.size > bound:
        raise GroupError(f"group order {group.size} exceeds the bound {bound}")
    subs: dict[frozenset, Subgroup] = {}
    for x in range(group.size):
        s = Subgroup.generated(group, [x])
        subs.setdefault(s.elemset, s)
    work = list(subs.values())
    while work:
        nxt = []
        for a in work:
            for b in list(subs.values()):
                j = Subgroup.generated(group, a.gens + b.gens)
                if j.elemset not in subs:
                    subs[j.elemset] = j
                    nxt.append(j)
        work = nxt
    return sorted(subs.values(), key=lambda s: (s.size, s.elements))


def brute_force_defect(h: Subgroup, group: ConcreteGroup,
                       bound: int = SMALL_GROUP_BOUND) -> DefectResult:
    """Defect by shortest path over the full subgroup lattice.

    Edges go from K to any strictly larger L with K normal in L; the
    least number of edges from h to the whole group is the defect.  An
    independent oracle for defect() on small groups."""
    if h.group is not group:
        raise GroupError("subgroup belongs to a different group")
    lattice = all_subgroups(group, bound=bound)
    whole = frozenset(range(group.size))
    if h.elemset == whole:
        return DefectResult(0)
    dist = {h.elemset: 0}
    frontier = [h]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for k in frontier:
            for l in lattice:
                if l.elemset == k.elemset or not k.elemset <= l.elemset:
                    continue
                if l.elemset in dist:
                    continue
                if all(group.conj(x, g) in k.elemset for x in k.elements for g in l.elements):
                    if l.elemset == whole:
                        return DefectResult(d)
                    dist[l.elemset] = d
                    nxt.append(l)
        frontier = nxt
    return DefectResult(None, cap=None, stabilized=True)


@dataclass
class ClassificationReport:
    """Structural summary used by the verifier and the command line; t2,
    the T_2 subgroup itself, is left out of repr, comparisons and JSON."""

    order: int
    nilpotency_class: int | None
    derived_length: int | None
    t2_order: int
    t2_generators: list[str]
    classification: str
    defect_histogram: dict[str, int]
    cap: int
    capped_classes: int
    strict_reading_disagreements: int
    t2: Subgroup = field(repr=False, compare=False)
    strict_reading_samples: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "class": self.nilpotency_class if self.nilpotency_class is not None else "not-nilpotent",
            "derived_length": self.derived_length if self.derived_length is not None else "not-soluble",
            "t2_order": self.t2_order,
            "t2_generators": list(self.t2_generators),
            "classification": self.classification,
            "defect_histogram": dict(sorted(self.defect_histogram.items())),
            "defect_cap": self.cap,
            "capped_classes": self.capped_classes,
            "strict_reading_disagreements": self.strict_reading_disagreements,
        }


def _quotient_is_simple(group: ConcreteGroup, h: Subgroup) -> bool:
    """Whether G/h is simple, for h normal.

    Equivalently: no normal subgroup sits strictly between h and G.
    Prime index means yes; a nilpotent group of non-prime index means no
    (simple nilpotent groups have prime order).  Otherwise adjoin one
    conjugacy class representative from outside h at a time and see
    whether any normal closure stays proper; a strictly intermediate
    normal subgroup contains some class outside h, and conversely."""
    index = group.size // h.size
    if index == 1:
        return False
    if sum(factorize(index).values()) == 1:
        return True
    if nilpotency_class(group) is not None:
        return False
    for rep in group.class_reps():
        if rep in h.elemset:
            continue
        ncl = normal_closure([*h.gens, rep], group)
        if ncl.size < group.size:
            return False
    return True


def classify(group: ConcreteGroup, cap: int = DEFAULT_CAP) -> ClassificationReport:
    """Order, series data, T_2, and the three-way classification.

    Also surfaces, per a stricter reading of "n-subnormal" that demands
    n strictly increasing chain terms, the elements on which the two
    readings disagree: defect 0 (no strict chain can exist) and defect 1
    where the quotient by the cyclic subgroup is simple (no strictly
    intermediate normal term exists).  Defects equal to 2 always admit a
    strict chain, so nothing else can differ at n = 2."""
    cached = group._reports.get(cap)
    if cached is not None:
        return cached
    scan = _defect_scan(group, cap)
    t2 = t_n_subgroup(group, 2, cap=cap)
    hist: dict[str, int] = {}
    capped = 0
    disagree = 0
    samples: list[str] = []
    for rep, size, res in scan:
        if res.defect is not None:
            key = str(res.defect)
        elif res.stabilized:
            key = "none"
        else:
            key = f">{res.cap}"
            capped += 1
        hist[key] = hist.get(key, 0) + size
        if res.defect == 0 or (
            res.defect == 1
            and _quotient_is_simple(group, Subgroup.generated(group, [rep]))
        ):
            disagree += size
            if len(samples) < 4:
                samples.append(str(group.element_word(rep)))
    order = group.size
    if t2.size == 1:
        cls = TWO_BAER
    elif t2.size < order:
        cls = GENERALIZED_T2
    else:
        cls = NOT_GENERALIZED_BAER2
    report = ClassificationReport(
        order=order,
        nilpotency_class=nilpotency_class(group),
        derived_length=derived_length(group),
        t2_order=t2.size,
        t2_generators=[str(group.element_word(g)) for g in t2.gens],
        classification=cls,
        defect_histogram=hist,
        cap=cap,
        capped_classes=capped,
        strict_reading_disagreements=disagree,
        t2=t2,
        strict_reading_samples=samples,
    )
    group._reports[cap] = report
    return report
