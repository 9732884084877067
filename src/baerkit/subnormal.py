"""Subnormality defects, T_n subgroups, and group classification.

A subgroup H is n-subnormal in G when some chain H = H_0 <| H_1 <| ...
<| H_n = G of successive normal inclusions exists; chains may repeat
terms, so "defect at most n" is the operative notion and the defect is
the least chain length.  The iterated normal closure series K_0 = G,
K_{i+1} = ncl(H, K_i) descends fastest among all such chains, so the
defect is the first index where it hits H, and if the series stabilizes
strictly above H no chain exists at all.

T_n(G) is generated by every element x whose cyclic subgroup <x> is not
n-subnormal.  The scans below examine one representative per conjugacy
class and deduplicate cyclic subgroups, which is enough: defects are
invariant under conjugation and depend only on the cyclic subgroup, not
on which generator of it was picked.  For the whole group the classes
are ConcreteGroup.conjugacy_classes; inside a subgroup (t_n_within) they
are the subgroup's own classes, walked as orbits under conjugation by
its generators.
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
    _memoized,
    _series,
)

__all__ = [
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

SMALL_GROUP_BOUND = 48

TWO_BAER = "TwoBaer"
GENERALIZED_T2 = "GeneralizedT2"
NOT_GENERALIZED_BAER2 = "NotGeneralizedBaer2"


@dataclass(frozen=True)
class DefectResult:
    """A definite defect, or None when h is not subnormal at all."""

    defect: int | None

    @property
    def is_subnormal(self) -> bool:
        return self.defect is not None

    def within(self, n: int) -> bool:
        return self.defect is not None and self.defect <= n

    def __str__(self) -> str:
        if self.defect is not None:
            return f"defect {self.defect}"
        return "not subnormal"


def defect(h: Subgroup, ambient) -> DefectResult:
    """Defect of h in the ambient group or subgroup via the iterated
    normal closure series.  Defect 0 means h is the whole ambient.

    Each closure either reaches h, equals the term before it (the series
    stops strictly above h, so h is not subnormal), or is a proper
    subgroup of that term still containing h, whose index over h is a
    proper divisor of the term's.  So the series ends after at most
    Omega(|K:h|) closures, where K is the ambient and Omega counts prime
    factors with multiplicity; that is at most log2 |K:h|."""
    amb = _as_subgroup(ambient)
    if h.group is not amb.group:
        raise GroupError("subgroup and ambient belong to different groups")
    if not h <= amb:
        raise GroupError("subgroup is not contained in the ambient")
    series = _series(amb, lambda cur: normal_closure(h.gens, cur), h.size)
    return DefectResult(len(series) - 1 if series[-1].size == h.size else None)


def cyclic_defect(group: ConcreteGroup, x: int) -> DefectResult:
    """Defect of <x> in the whole group, memoized by the key of <x>.
    Subgroup.generated answers <x> from the group's subgroup table, so
    <x> is closed at most once, however many of its generators are asked
    about, and every answer carries the one canonical key."""
    return _whole_defect(Subgroup.generated(group, [x]))


@_memoized
def _whole_defect(h: Subgroup) -> DefectResult:
    """Defect of h in its whole group."""
    return defect(h, h.group)


def is_n_subnormal(group: ConcreteGroup, x: int, n: int) -> bool:
    """Whether <x> has defect at most n in the group, asked of x's class
    representative: defects are conjugation invariant."""
    return cyclic_defect(group, group._class_rep[x]).within(n)


@_memoized
def _defect_scan(group: ConcreteGroup) -> list[tuple[int, int, DefectResult]]:
    """(class representative, class size, defect of <rep>) per class.

    Representatives cover every element up to conjugacy and defects are
    conjugation invariant, so this scan determines T_n membership and
    per-element defect statistics for the entire group."""
    return [(cl[0], len(cl), cyclic_defect(group, cl[0]))
            for cl in group.conjugacy_classes()]


def t_n_subgroup(group: ConcreteGroup, n: int) -> Subgroup:
    """The subgroup generated by all x with <x> not n-subnormal."""
    bad = [rep for rep, _, res in _defect_scan(group) if not res.within(n)]
    return normal_closure(bad, group)


def t_n_within(ambient: Subgroup, n: int) -> Subgroup:
    """T_n of a subgroup, computed inside the parent group's indices.

    One generator per ambient conjugacy class of cyclic subgroups is
    enough.  Once <h> has been examined, every element inside it can be
    skipped: a subgroup of a cyclic group is characteristic in it, so
    powers of an n-subnormal element stay n-subnormal, and powers of a
    bad element land inside the generated subgroup anyway.  So can h's
    whole conjugacy class in the ambient: a conjugate has the same
    defect there, and a conjugate of a bad h lies in its normal
    closure."""
    group = ambient.group
    if ambient.is_whole():
        return t_n_subgroup(group, n)
    kgens = list(dict.fromkeys(ambient.gens))
    seen: set[int] = set()
    bad: list[int] = []
    for h in ambient.elements:
        if h in seen:
            continue
        cyc = Subgroup.generated(group, [h])
        seen.update(cyc.elements)
        if not defect(cyc, ambient).within(n):
            bad.append(h)
        orbit, in_orbit = [h], {h}
        for x in orbit:
            for k in kgens:
                c = group.conj(x, k)
                if c not in in_orbit:
                    in_orbit.add(c)
                    orbit.append(c)
        seen |= in_orbit
    return normal_closure(bad, ambient)


def all_subgroups(group: ConcreteGroup) -> list[Subgroup]:
    """Every subgroup, by closing the cyclic subgroups under joins.

    Exponential in spirit and meant for oracle work only, hence the
    hard size bound SMALL_GROUP_BOUND."""
    if group.size > SMALL_GROUP_BOUND:
        raise GroupError(f"group order {group.size} exceeds the bound "
                         f"{SMALL_GROUP_BOUND}")
    subs: dict[tuple, Subgroup] = {}
    for x in range(group.size):
        s = Subgroup.generated(group, [x])
        subs.setdefault(s.elements, s)
    work = list(subs.values())
    while work:
        nxt = []
        for a in work:
            for b in list(subs.values()):
                j = Subgroup.generated(group, a.gens + b.gens)
                if j.elements not in subs:
                    subs[j.elements] = j
                    nxt.append(j)
        work = nxt
    return sorted(subs.values(), key=lambda s: (s.size, s.elements))


def brute_force_defect(h: Subgroup, group: ConcreteGroup) -> DefectResult:
    """Defect by shortest path over the full subgroup lattice.

    Edges go from K to any strictly larger L with K normal in L; the
    least number of edges from h to the whole group is the defect.  An
    independent oracle for defect() on small groups."""
    if h.group is not group:
        raise GroupError("subgroup belongs to a different group")
    lattice = all_subgroups(group)
    if h.is_whole():
        return DefectResult(0)
    dist = {h.elements: 0}
    frontier = [h]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for k in frontier:
            for l in lattice:
                if l.size == k.size or not k <= l:
                    continue
                if l.elements in dist:
                    continue
                if all(group.conj(x, g) in k for x in k.elements for g in l.elements):
                    if l.is_whole():
                        return DefectResult(d)
                    dist[l.elements] = d
                    nxt.append(l)
        frontier = nxt
    return DefectResult(None)


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
    strict_reading_disagreements: int
    t2: Subgroup = field(repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "class": self.nilpotency_class if self.nilpotency_class is not None else "not-nilpotent",
            "derived_length": self.derived_length if self.derived_length is not None else "not-soluble",
            "t2_order": self.t2_order,
            "t2_generators": list(self.t2_generators),
            "classification": self.classification,
            "defect_histogram": dict(sorted(self.defect_histogram.items())),
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
        if rep in h:
            continue
        ncl = normal_closure([*h.gens, rep], group)
        if ncl.size < group.size:
            return False
    return True


@_memoized
def classify(group: ConcreteGroup) -> ClassificationReport:
    """Order, series data, T_2, and the three-way classification.

    Also counts, per a stricter reading of "n-subnormal" that demands
    n strictly increasing chain terms, the elements on which the two
    readings disagree: defect 0 (no strict chain can exist) and defect 1
    where the quotient by the cyclic subgroup is simple (no strictly
    intermediate normal term exists).  Defects equal to 2 always admit a
    strict chain, so nothing else can differ at n = 2."""
    t2 = t_n_subgroup(group, 2)
    hist: dict[str, int] = {}
    disagree = 0
    for rep, size, res in _defect_scan(group):
        key = "none" if res.defect is None else str(res.defect)
        hist[key] = hist.get(key, 0) + size
        if res.defect == 0 or (
            res.defect == 1
            and _quotient_is_simple(group, Subgroup.generated(group, [rep]))
        ):
            disagree += size
    order = group.size
    if t2.size == 1:
        cls = TWO_BAER
    elif t2.size < order:
        cls = GENERALIZED_T2
    else:
        cls = NOT_GENERALIZED_BAER2
    return ClassificationReport(
        order=order,
        nilpotency_class=nilpotency_class(group),
        derived_length=derived_length(group),
        t2_order=t2.size,
        t2_generators=[str(group.element_word(g)) for g in t2.gens],
        classification=cls,
        defect_histogram=hist,
        strict_reading_disagreements=disagree,
        t2=t2,
    )
