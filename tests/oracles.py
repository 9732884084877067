"""Independent models and naive algorithms used to cross-check the package.

Everything here treats a group as an opaque multiplication: either a
hand-built permutation model or any object exposing size / mult / inv.
The algorithms are deliberately the slow, obvious ones.
"""

from __future__ import annotations

import random
from collections import deque
from math import comb


def compose(p, q):
    """Permutation product: apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def perm_inverse(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def perm_closure(gens):
    elems = {tuple(range(len(gens[0])))}
    frontier = list(elems)
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                c = compose(e, g)
                if c not in elems:
                    elems.add(c)
                    new.append(c)
        frontier = new
    return sorted(elems)


class TableGroup:
    """Multiplication-table group over 0..n-1 with identity 0."""

    def __init__(self, table):
        self.table = table
        self.size = len(table)
        self._inv = [0] * self.size
        for a in range(self.size):
            for b in range(self.size):
                if table[a][b] == 0:
                    self._inv[a] = b

    @classmethod
    def from_perms(cls, gens):
        elems = perm_closure(gens)
        index = {p: i for i, p in enumerate(elems)}
        table = [[index[compose(a, b)] for b in elems] for a in elems]
        return cls(table)

    def mult(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]


def s3_model():
    return TableGroup.from_perms([(1, 2, 0), (1, 0, 2)])


def d8_model():
    return TableGroup.from_perms([(1, 2, 3, 0), (0, 3, 2, 1)])


def c6_model():
    return TableGroup.from_perms([(1, 2, 3, 4, 5, 0)])


_Q_AXES = "eijk"
_Q_RULES = {
    ("i", "i"): (-1, "e"), ("j", "j"): (-1, "e"), ("k", "k"): (-1, "e"),
    ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
    ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
    ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
}


def q8_model():
    """Quaternion group from the signed-unit multiplication rules, as a
    table over [1, -1, i, -i, j, -j, k, -k]."""
    units = [(s, a) for a in _Q_AXES for s in (1, -1)]
    index = {u: i for i, u in enumerate(units)}

    def q_mult(u, v):
        s1, a1 = u
        s2, a2 = v
        if a1 == "e":
            return (s1 * s2, a2)
        if a2 == "e":
            return (s1 * s2, a1)
        s3, a3 = _Q_RULES[(a1, a2)]
        return (s1 * s2 * s3, a3)

    table = [[index[q_mult(u, v)] for v in units] for u in units]
    return TableGroup(table)


# -- naive algorithms over any group-like object with size/mult/inv --------

def naive_comm(g, a, b):
    return g.mult(g.mult(g.inv(a), g.inv(b)), g.mult(a, b))


def naive_conj(g, a, b):
    return g.mult(g.mult(g.inv(b), a), b)


def naive_order(g, a):
    n, c = 1, a
    while c != 0:
        c = g.mult(c, a)
        n += 1
    return n


def naive_closure(g, gens):
    elems = {0}
    frontier = [0]
    while frontier:
        new = []
        for e in frontier:
            for x in gens:
                c = g.mult(e, x)
                if c not in elems:
                    elems.add(c)
                    new.append(c)
        frontier = new
    return frozenset(elems)


def naive_normal_closure(g, gens, conjugators):
    """Smallest subgroup containing gens and closed under conjugation by
    every element of conjugators: adjoin one outside conjugate at a time."""
    gens = list(gens)
    elems = naive_closure(g, gens)
    while True:
        outside = next(
            (c for x in sorted(elems) for k in conjugators
             if (c := naive_conj(g, x, k)) not in elems), None)
        if outside is None:
            return elems
        gens.append(outside)
        elems = naive_closure(g, gens)


def naive_center(g):
    return frozenset(
        a for a in range(g.size)
        if all(g.mult(a, b) == g.mult(b, a) for b in range(g.size)))


def naive_centralizer(g, xs):
    return frozenset(
        a for a in range(g.size)
        if all(g.mult(a, x) == g.mult(x, a) for x in xs))


def naive_upper_central_series(g):
    """Z_1 <= Z_2 <= ... as frozensets, where a lies in Z_{i+1} when
    [a, b] lies in Z_i for every b in the group; stops at the whole group
    or where the series stalls."""
    series = [naive_center(g)]
    while len(series[-1]) < g.size:
        cur = series[-1]
        nxt = frozenset(
            a for a in range(g.size)
            if all(naive_comm(g, a, b) in cur for b in range(g.size)))
        if nxt == cur:
            break
        series.append(nxt)
    return series


def naive_all_subgroups(g):
    """Every subgroup, as frozensets: cyclic subgroups closed under joins."""
    subs = {naive_closure(g, [a]) for a in range(g.size)}
    while True:
        new = set()
        for h in subs:
            for k in subs:
                j = naive_closure(g, list(h | k))
                if j not in subs:
                    new.add(j)
        if not new:
            return subs
        subs |= new


def naive_is_normal_in(g, h, k):
    """h normal in k, both frozensets with h <= k."""
    return all(naive_conj(g, a, b) in h for a in h for b in k)


def naive_defect(g, h, subgroups=None):
    """Shortest chain h normal-in ... normal-in whole, by lattice search.
    None when no chain exists."""
    if subgroups is None:
        subgroups = naive_all_subgroups(g)
    whole = frozenset(range(g.size))
    dist = {h: 0}
    queue = deque([h])
    while queue:
        cur = queue.popleft()
        if cur == whole:
            return dist[cur]
        for nxt in subgroups:
            if nxt not in dist and cur < nxt and naive_is_normal_in(g, cur, nxt):
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return 0 if h == whole else None


def naive_t2(g, subgroups=None):
    """Subgroup generated by elements whose cyclic subgroup has no chain
    of length at most 2."""
    if subgroups is None:
        subgroups = naive_all_subgroups(g)
    bad = [
        a for a in range(g.size)
        if (lambda d: d is None or d > 2)(
            naive_defect(g, naive_closure(g, [a]), subgroups))
    ]
    return naive_closure(g, bad)


def naive_lower_central_class(g):
    """Nilpotency class from the lower central series, None if it stalls."""
    whole = list(range(g.size))
    gamma = frozenset(whole)
    cls = 0
    while len(gamma) > 1:
        nxt = naive_closure(
            g, [naive_comm(g, a, b) for a in gamma for b in whole])
        if nxt == gamma:
            return None
        gamma = nxt
        cls += 1
    return cls


def naive_derived_series(g):
    """G >= G' >= G'' >= ... as frozensets, each term the closure of all
    commutators of the one before; stops at 1 or where the series stalls."""
    series = [frozenset(range(g.size))]
    while len(series[-1]) > 1:
        cur = series[-1]
        nxt = naive_closure(g, [naive_comm(g, a, b) for a in cur for b in cur])
        if nxt == cur:
            break
        series.append(nxt)
    return series


def eval_word_in(oracle, images, word_obj):
    """Evaluate a package Word in an oracle group, mapping generator names
    through images."""
    e = 0
    for name, exp in word_obj.syllables:
        x = images[name] if exp > 0 else oracle.inv(images[name])
        for _ in range(abs(exp)):
            e = oracle.mult(e, x)
    return e


def find_isomorphism(group, oracle, images):
    """Map every element of the package group through its shortest word and
    check the result is a bijective homomorphism onto the oracle."""
    if group.size != oracle.size:
        return False
    phi = [eval_word_in(oracle, images, group.element_word(e))
           for e in range(group.size)]
    if len(set(phi)) != group.size:
        return False
    return all(
        phi[group.mult(a, b)] == oracle.mult(phi[a], phi[b])
        for a in range(group.size) for b in range(group.size))


# -- scalar references for the batched identity checks ------------------------
#
# The loops below evaluate one input tuple at a time through scalar
# mult/comm/power and stop at the first failing tuple.  They draw their
# tuples from the same engel._inputs, so the batched checks must return
# equal IdentityCheck lists, witnesses included.  The metabelian guard is
# left to the caller.

def _scalar_bracket(g, x, y, n):
    for _ in range(n):
        x = g.comm(x, y)
    return x


def _words(g, *elems):
    return ", ".join(str(g.element_word(e)) for e in elems)


def scalar_metabelian_identities(group, trials=200, seed=0, engel_ns=(1, 2, 3)):
    # Through the engel module, so a test that monkeypatches its
    # nilpotency_class reaches this reference too.
    from baerkit import engel

    rng = random.Random(seed)
    checks = []
    derived = engel.derived_subgroup(group).elements
    elems = range(group.size)
    _inputs, IdentityCheck = engel._inputs, engel.IdentityCheck

    cols, mode = _inputs(rng, (derived, elems, elems), trials,
                         engel._EXHAUSTIVE_EVALS)
    triples = cols.T.tolist()
    witness = None
    for c, x, y in triples:
        if group.comm(group.comm(c, x), y) != group.comm(group.comm(c, y), x):
            witness = _words(group, c, x, y)
            break
    checks.append(IdentityCheck("swap-entries-after-first", witness is None,
                                mode, len(triples), witness))

    cols, mode = _inputs(rng, (elems, elems, elems, engel_ns), trials,
                         engel._EXHAUSTIVE_EVALS)
    quads = cols.T.tolist()
    witness = None
    for x, y, z, n in quads:
        lhs = _scalar_bracket(group, group.mult(x, y), z, n)
        xz = _scalar_bracket(group, x, z, n)
        rhs = group.mult(group.mult(xz, group.comm(xz, y)),
                         _scalar_bracket(group, y, z, n))
        if lhs != rhs:
            witness = _words(group, x, y, z) + f", n={n}"
            break
    checks.append(IdentityCheck("product-in-first-slot", witness is None,
                                mode, len(quads), witness))

    cls = engel.nilpotency_class(group)
    if cls is None or cls > 3:
        checks.append(IdentityCheck(
            "power-in-any-slot", None, "skipped", 0,
            note=f"needs nilpotency class at most 3, group has {cls}"))
        return checks
    cols, mode = _inputs(rng, (elems, elems, elems, (-2, -1, 2, 3, 5)),
                         trials, engel._EXHAUSTIVE_EVALS)
    cases = cols.T.tolist()
    witness = None
    for x, y, z, m in cases:
        want = group.power(group.comm(group.comm(x, y), z), m)
        sides = (
            group.comm(group.comm(group.power(x, m), y), z),
            group.comm(group.comm(x, group.power(y, m)), z),
            group.comm(group.comm(x, y), group.power(z, m)),
        )
        if any(s != want for s in sides):
            witness = _words(group, x, y, z) + f", m={m}"
            break
    checks.append(IdentityCheck("power-in-any-slot", witness is None,
                                mode, len(cases), witness))
    return checks


def scalar_expansion_sides(group, x, y, n):
    """(x*y^-1)^n and x^n * prod [x, i*y, j*x]^C(n, i+j+1) * y^-n."""
    lhs = group.power(group.mult(x, group.inv(y)), n)
    rhs = group.power(x, n)
    brackets = {}
    for i in range(1, n):
        b = group.comm(x, y) if i == 1 else group.comm(brackets[(i - 1, 0)], y)
        brackets[(i, 0)] = b
        for j in range(1, n - i):
            b = group.comm(b, x)
            brackets[(i, j)] = b
    for (i, j), b in brackets.items():
        rhs = group.mult(rhs, group.power(b, comb(n, i + j + 1)))
    return lhs, group.mult(rhs, group.power(y, -n))


def scalar_expansion_formula(group, n_values=(1, 2, 3, 4, 5, 6), trials=200,
                             seed=0, exhaustive_order_bound=64):
    from baerkit.engel import IdentityCheck, _inputs

    elems = range(group.size)
    cols, mode = _inputs(random.Random(seed), (elems, elems), trials,
                         exhaustive_order_bound ** 2)
    pairs = cols.T.tolist()
    checks = []
    for n in n_values:
        witness = None
        for x, y in pairs:
            lhs, rhs = scalar_expansion_sides(group, x, y, n)
            if lhs != rhs:
                witness = _words(group, x, y)
                break
        checks.append(IdentityCheck(f"power-expansion-n{n}", witness is None,
                                    mode, len(pairs), witness))
    return checks


# -- per-element references for the once-per-class scans ----------------------
#
# The package answers conjugation-invariant questions once per conjugacy
# class.  The loops below answer them once per element, as the package
# did before, so the two must agree exactly.

def per_element_t_n_within(ambient, n):
    """T_n of a subgroup, examining one element per cyclic subgroup of
    the ambient (skipping only the elements inside a cyclic subgroup
    already examined)."""
    from baerkit.core import Subgroup, normal_closure
    from baerkit.subnormal import defect

    group = ambient.group
    seen: set[int] = set()
    bad = []
    for h in ambient.elements:
        if h in seen:
            continue
        cyc = Subgroup.generated(group, [h])
        seen.update(cyc.elements)
        if not defect(cyc, ambient).within(n):
            bad.append(h)
    return normal_closure(bad, ambient)


def per_element_cyclic_closure_class(group, *, exhaustive_threshold=2048,
                                     seed=0):
    """verify.check_cyclic_closure_class with one normal closure and one
    left-Engel test per element.  Through the verify module, so a test
    that monkeypatches its nilpotency_class reaches this reference too."""
    from baerkit import engel, verify

    cid = "cyclic-closure-class"
    t2 = verify.classify(group).t2
    if t2.is_whole():
        return verify._skip(
            cid, "T_2 is the whole group; no elements lie outside it",
            t2_order=t2.size)
    t2_elems = set(t2.elements)
    outside = [g for g in range(group.size) if g not in t2_elems]
    if group.size <= exhaustive_threshold:
        todo, mode = outside, "exhaustive"
    else:
        rng = random.Random(seed)
        todo = rng.sample(outside, min(verify._CYCLIC_TRIALS, len(outside)))
        mode = "sampled"
    for g in todo:
        ncl = verify.normal_closure([g], group)
        cls = verify.nilpotency_class(ncl)
        if cls is None or cls > 2:
            return verify._verdict(cid, False,
                                   {"mode": mode, "closure_order": ncl.size,
                                    "closure_class": cls},
                                   witness=str(group.element_word(g)))
        if not engel.is_left_n_engel(group, g, 3).holds:
            return verify._verdict(cid, False,
                                   {"mode": mode, "failed": "left 3-Engel"},
                                   witness=str(group.element_word(g)))
    details = {"mode": mode, "count": len(todo), "outside_t2": len(outside)}
    if mode == "sampled":
        details["seed"] = seed
    return verify._verdict(cid, True, details)


# -- whole-group constructions, one element at a time ------------------------
#
# These take a ConcreteGroup for its letter columns and generator names
# but multiply only through its mult.

def per_element_direct_product(g, h):
    """The direct product's letter columns, generator names and embeddings:
    element a*m + b is the pair (a, b), and a right factor name that
    collides is suffixed with _2 until it is new."""
    n, m = g.size, h.size
    cols = [[col[a] * m + b for a in range(n) for b in range(m)]
            for col in g.cols]
    cols += [[a * m + col[b] for a in range(n) for b in range(m)]
             for col in h.cols]
    names = list(g.gen_names)
    for name in h.gen_names:
        while name in names:
            name += "_2"
        names.append(name)
    embed = {"embed_left": tuple(a * m for a in range(n)),
             "embed_right": tuple(range(m))}
    return cols, tuple(names), embed


def per_element_quotient(group, n):
    """The letter columns of group/n, cosets numbered in order of least
    member: each element's coset is filled in as the cosets are found."""
    coset_of = [-1] * group.size
    reps = []
    for e in range(group.size):
        if coset_of[e] != -1:
            continue
        for x in n.elements:
            coset_of[group.mult(x, e)] = len(reps)
        reps.append(e)
    cols = []
    for g in group.generator_elements():
        fwd = [coset_of[group.mult(r, g)] for r in reps]
        back = [0] * len(reps)
        for c, v in enumerate(fwd):
            back[v] = c
        cols += [fwd, back]
    return cols


def per_element_sylow_parts(group):
    """Per prime p dividing |G|, the sorted elements of p-power order."""
    def is_p_power(k, p):
        while k % p == 0:
            k //= p
        return k == 1

    orders = [naive_order(group, e) for e in range(group.size)]
    primes = [p for p in range(2, group.size + 1)
              if group.size % p == 0 and all(p % d for d in range(2, p))]
    return {p: [e for e, k in enumerate(orders) if is_p_power(k, p)]
            for p in primes}


# -- Frattini coordinates by trial division -----------------------------------

def frattini_coordinates(group, g):
    """Coordinates (m, n) with g = x^m y^n z for some z in the Frattini
    subgroup, where x and y are the two defining generators."""
    from baerkit.core import GroupError, frattini_p_group

    p = group.meta["prime"]
    x = group.gen_element(0)
    y = group.gen_element(1)
    frat = set(frattini_p_group(group, p).elements)
    hits = []
    for m in range(p):
        for n in range(p):
            z = group.mult(group.power(y, -n),
                           group.mult(group.power(x, -m), g))
            if z in frat:
                hits.append((m, n))
    if len(hits) != 1:
        raise GroupError(
            f"element {g} has {len(hits)} Frattini coordinate pairs")
    return hits[0]


# -- right Engel elements ------------------------------------------------------

def right_engel_elements(group, n):
    """All x with [x, g, ..., g] = 1 (n copies of g) for every g.

    Conjugating g moves the bracket by [x, n*(g^h)] = [x^(h^-1), n*g]^h.
    So for each class representative r the mask of x killed by r comes
    out of one bracket table, and an element qualifies exactly when its
    whole conjugacy class survives every representative's mask."""
    import numpy as np

    ok = np.ones(group.size, dtype=bool)
    for r in group.class_reps():
        perm = group.comm_with_perm(r)
        cur = perm
        for _ in range(n - 1):
            cur = perm[cur]
        ok &= cur == 0
    out = []
    for cl in group.conjugacy_classes():
        if ok[cl].all():
            out += cl
    return sorted(out)
