"""Coset enumeration over a finite presentation.

This is the classical relator-scanning procedure (HLT, after Haselgrove,
Leech and Trotter): every live coset is scanned against every relator,
gaps of length one become deductions, longer gaps are filled by defining
new cosets, and scan mismatches become coincidences that collapse the
table through a union-find merge queue.  Rows are also filled directly
so the finished table is complete.  Cosets are numbered in definition
order.

The subgroup H is cyclic, generated by at most one word w, and every
entry c -s-> d carries a label h with rep(c)*s = w^h * rep(d), as in the
modified Todd-Coxeter procedure (Holt, Eick & O'Brien, Handbook of
Computational Group Theory, 5.3.2).  Scans add up labels on the way,
deductions and coincidences set them so that each relator reads w^0
and w itself reads w^1, and a dead coset keeps the label relating it to
the coset it was merged into.  On the finished table each relator
closes at every coset with some label k, and w at coset 0 with some k',
so w^k = 1 and w^(k'-1) = 1 in the group; the gcd of these exponents is
|H|, and 0 when H is infinite.

The table is one Python list per letter, and one label list per letter.
Each word's scan walks its forward and backward columns from lists
bound once per table, so a letter costs two list indexes and one
lookup; compaction replaces the columns and rebinds them.

When the allocation limit is reached, one lookahead pass (scanning
without defining) runs and, if it frees enough, the table is compacted
and enumeration resumes; otherwise the enumeration gives up with
EnumerationLimitError rather than silently truncating.  The step limit,
when set, counts every coset defined and holds in both kinds of pass,
inside a scan too.

The finished table is checked once more with numpy, one gather over all
cosets per relator letter.  to_group() lifts it to the right regular
action on the pairs (j, c), standing for w^j * rep(c):
(j, c)*s = (j + h(c, s) mod |H|, c*s), checks that each relator closes
on the lifted table, and then standardizes it: elements are renumbered
in breadth-first order from the identity, letter by letter (Handbook
5.1.4), so the element numbering depends only on the group and its
generator order, not on H or on the enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .core import ConcreteGroup, breadth_first
from .presentation import GroupPresentation, Word, free_reduce

__all__ = [
    "EnumerationLimitError",
    "CosetTable",
    "enumerate_cosets",
    "to_group",
    "DEFAULT_MAX_COSETS",
]

DEFAULT_MAX_COSETS = 2_000_000


class EnumerationLimitError(RuntimeError):
    """Enumeration did not complete within the configured limits."""

    def __init__(self, message: str, cosets_defined: int, steps: int):
        super().__init__(message)
        self.cosets_defined = cosets_defined
        self.steps = steps


class _Saturated(Exception):
    pass


@dataclass
class CosetTable:
    """Completed coset table of a cyclic subgroup H.

    cols holds one column per letter: column 2*i is the action of
    generator i, column 2*i+1 the action of its inverse, so
    cols[l][c] is the coset reached from c along letter l.  labels has
    the same layout: rep(c) * letter l = w^labels[l][c] * rep(cols[l][c])
    for the generator w of H.  subgroup_order is |H| (0 if H is
    infinite, 1 if it has no generator).
    """

    presentation: GroupPresentation
    subgroup_generators: tuple[Word, ...]
    cols: list[list[int]]
    coset_count: int
    labels: list[list[int]]
    subgroup_order: int


def _letters(w: Word, gen_col: dict[str, int]) -> list[int]:
    out: list[int] = []
    for g, e in w.syllables:
        col = gen_col[g] + (0 if e > 0 else 1)
        out.extend([col] * abs(e))
    return out


def _letter_words(pres: GroupPresentation, words) -> list[list[int]]:
    # the freely reduced words other than 1, as lists of letter columns
    gen_col = {g: 2 * i for i, g in enumerate(pres.generators)}
    return [w for w in (_letters(r, gen_col) for r in words) if w]


def enumerate_cosets(
    pres: GroupPresentation,
    subgroup_gens: tuple[Word, ...] | list[Word] = (),
    *,
    max_cosets: int = DEFAULT_MAX_COSETS,
    max_steps: int | None = None,
) -> CosetTable:
    """Enumerate cosets of the cyclic subgroup generated by subgroup_gens,
    which holds at most one word.

    Deterministic: new cosets are numbered in first-gap scan order, so
    the same input always yields the same table.  A step is one letter
    a scan passes, by following an entry already in the table or by
    defining a new coset, or one coset defined to fill a row; max_steps
    bounds them inside a scan, across the definition sweeps and the
    lookahead passes alike.  Raises EnumerationLimitError when the
    limits are exhausted (the enumeration never returns a truncated
    table), also before any work when a relator has more letters than
    max_cosets, and PresentationError never; bad input should be caught
    at parse time.
    """
    ncols = 2 * len(pres.generators)
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    if len(subgroup_gens) > 1:
        raise ValueError("the subgroup must be cyclic: one generator at most")
    subgroup_gens = tuple(free_reduce(w) for w in subgroup_gens)
    longest = max((r.letter_count() for r in pres.relators), default=0)
    if longest > max_cosets:
        raise EnumerationLimitError(
            f"a relator of {longest} letters exceeds max_cosets={max_cosets}", 0, 0)
    rel_words = _letter_words(pres, pres.relators)
    sub_words = _letter_words(pres, subgroup_gens)
    step_limit = float("inf") if max_steps is None else max_steps

    cols: list[list[int]] = [[-1] for _ in range(ncols)]
    labs: list[list[int]] = [[0] for _ in range(ncols)]
    # A coset c is live while parent[c] == c; a dead one points towards
    # the coset it was merged into (union-find with path halving), and
    # rep(c) = w^plab[c] * rep(parent[c]).
    parent = [0]
    plab: dict[int, int] = {}
    dead_queue: list[int] = []
    steps = 0
    # the gcd of the relations w^k = 1 met so far, 0 before the first;
    # labels are reduced modulo it, which keeps them small
    rel = 0
    # Per letter, (column, inverse column, labels, inverse labels); per
    # relator and per subgroup generator w, the same four for each
    # letter w[i], as four sequences indexed by i.
    quads: list[tuple[list, list, list, list]] = []
    rels: list[tuple[list, list, list, list]] = []
    subs: list[tuple[list, list, list, list]] = []

    def bind():
        quads[:] = [(cols[l], cols[l ^ 1], labs[l], labs[l ^ 1])
                    for l in range(ncols)]
        # One field at a time, so that no call takes a word's letters
        # as its arguments (one per letter, all held at once).
        rels[:] = [tuple([quads[l][i] for l in w] for i in range(4))
                   for w in rel_words]
        subs[:] = [tuple([quads[l][i] for l in w] for i in range(4))
                   for w in sub_words]

    def findrep(c: int) -> tuple[int, int]:
        # (r, u) with r live and rep(c) = w^u * rep(r)
        u = 0
        while True:
            p = parent[c]
            if p == c:
                return c, u
            pp = parent[p]
            if pp != p:
                plab[c] += plab[p]
                parent[c] = pp
            u += plab[c]
            c = pp

    def define(c: int, col: list, inv: list, lab: list) -> int:
        # a new coset n with rep(n) = rep(c) * (col's letter)
        n = len(parent)
        if n >= max_cosets:
            raise _Saturated
        for column in cols:
            column.append(-1)
        for column in labs:
            column.append(0)
        parent.append(n)
        col[c] = n
        lab[c] = 0
        inv[n] = c
        return n

    def merge(a: int, b: int, k: int):
        # rep(a) = w^k * rep(b)
        nonlocal rel
        a, u = findrep(a)
        b, v = findrep(b)
        k += v - u
        if rel:
            k %= rel
        if a == b:
            rel = gcd(rel, k)
            return
        if a > b:
            a, b, k = b, a, -k
        parent[b] = a
        plab[b] = -k
        dead_queue.append(b)

    def coincide(a: int, b: int, k: int):
        merge(a, b, k)
        while dead_queue:
            y = dead_queue.pop()
            for col, inv, lab, ilab in quads:
                d = col[y]
                if d < 0:
                    continue
                if inv[d] == y:
                    inv[d] = -1
                mu, u = findrep(y)
                nu, v = findrep(d)
                g = lab[y] - u + v  # rep(mu) * s = w^g * rep(nu)
                if rel:
                    g %= rel
                t = col[mu]
                if t >= 0:
                    merge(nu, t, lab[mu] - g)
                else:
                    t = inv[nu]
                    if t >= 0:
                        merge(mu, t, g + ilab[nu])
                    else:
                        col[mu] = nu
                        lab[mu] = g
                        inv[nu] = mu
                        ilab[nu] = -g

    def scan(c: int, fw: tuple, bw: tuple, fl: tuple, bl: tuple,
             target: int, fill: bool):
        """Scan c under one word that should read w^target, given as its
        bound forward and backward columns and labels: close it, deduce
        its one missing entry, or find a coincidence; with fill, define
        cosets across a gap of two or more letters."""
        nonlocal steps, rel
        f = b = c
        # rep(c) * word[:i] = w^lf * rep(f) and
        # rep(b) * word[j + 1:] = w^lb * rep(c)
        lf = lb = 0
        i, j = 0, len(fw) - 1
        last = j
        try:
            while True:
                while i <= j:
                    x = fw[i][f]
                    if x < 0:
                        break
                    lf += fl[i][f]
                    f = x
                    i += 1
                if i > j:
                    if f != b:
                        coincide(f, b, target - lb - lf)
                    elif lf + lb != target:
                        rel = gcd(rel, target - lb - lf)
                    return
                while j >= i:
                    x = bw[j][b]
                    if x < 0:
                        break
                    lb -= bl[j][b]
                    b = x
                    j -= 1
                if j < i:
                    coincide(f, b, target - lb - lf)
                    return
                if i == j:
                    h = target - lb - lf
                    if rel:
                        h %= rel
                    fw[i][f] = b
                    fl[i][f] = h
                    bw[i][b] = f
                    bl[i][b] = -h
                    return
                if not fill or steps + i + last - j > step_limit:
                    return
                f = define(f, fw[i], bw[i], fl[i])
                i += 1
        finally:
            # the letters passed: i and j passed each of them once, and
            # i passed the letter of each coset defined
            steps += i + last - j

    def over_steps():
        return EnumerationLimitError(
            f"enumeration exceeded max_steps={max_steps}", len(parent), steps)

    def sweep() -> bool:
        """One definition sweep; False when it stopped at max_cosets.

        Returning, rather than letting _Saturated out, drops this
        frame and the scan frames, whose bound columns would otherwise
        keep the old table alive through the compaction."""
        nonlocal steps
        try:
            for fw, bw, fl, bl in subs:
                scan(0, fw, bw, fl, bl, 1, True)
            idx = 0
            while idx < len(parent):
                if parent[idx] == idx:
                    for fw, bw, fl, bl in rels:
                        scan(idx, fw, bw, fl, bl, 0, True)
                        if steps > step_limit:
                            raise over_steps()
                        if parent[idx] != idx:
                            break
                    else:
                        for col, inv, lab, _ in quads:
                            if col[idx] == -1:
                                define(idx, col, inv, lab)
                                steps += 1
                        if steps > step_limit:
                            raise over_steps()
                idx += 1
        except _Saturated:
            return False
        return True

    def lookahead():
        # scan every live coset without defining, to find coincidences
        for c in range(len(parent)):
            if parent[c] == c:
                for fw, bw, fl, bl in rels:
                    scan(c, fw, bw, fl, bl, 0, False)
                    if steps > step_limit:
                        raise over_steps()

    def live_count() -> int:
        return sum(1 for c in range(len(parent)) if parent[c] == c)

    def compact():
        # Unbind first, so that each old column is freed once replaced.
        rels.clear()
        subs.clear()
        quads.clear()
        # Renumber in place: parent[c] becomes the new number of c's
        # live coset, and plab[c] relates c to that coset.  A dead
        # coset's parent is smaller than it (merge keeps the smaller
        # root), so it is renumbered before c is.  The new numbers are
        # made before anything is freed, so they do not land in the
        # gaps the old table leaves and keep its memory.
        live = [c for c in range(len(parent)) if parent[c] == c]
        numbers = list(range(len(live)))
        k = 0
        for c in range(len(parent)):
            p = parent[c]
            if p == c:
                parent[c] = numbers[k]
                k += 1
            else:
                parent[c] = parent[p]
                plab[c] += plab.get(p, 0)
        for l in range(ncols):
            col, lab = cols[l], labs[l]
            newcol, newlab = [], []
            for c in live:
                v = col[c]
                if v == -1:
                    newcol.append(-1)
                    newlab.append(0)
                else:
                    newcol.append(parent[v])
                    newlab.append(lab[c] + plab.get(v, 0))
            cols[l], labs[l] = newcol, newlab
        parent[:] = numbers
        plab.clear()
        bind()

    bind()
    while not sweep():
        before = live_count()
        lookahead()
        # require real progress from the lookahead, or give up
        if live_count() > 0.9 * before:
            raise EnumerationLimitError(
                f"enumeration exceeded max_cosets={max_cosets}", before, steps)
        compact()

    compact()
    count = len(parent)
    table = CosetTable(
        presentation=pres,
        subgroup_generators=subgroup_gens,
        cols=cols,
        coset_count=count,
        labels=labs,
        subgroup_order=1,
    )
    table.subgroup_order = _validate(table, rel_words, sub_words)
    return table


def _validate(table: CosetTable, rel_words, sub_words) -> int:
    """Post hoc consistency check on numpy copies of the columns:
    complete, invertible, and closed.  Returns |H|: the gcd of the labels
    the relators close with at every coset and of k - 1 for the label k
    of the subgroup generator at coset 0 (1 without a generator, 0 if H
    is infinite)."""
    n = table.coset_count
    if any(len(col) != n for col in table.cols):
        raise RuntimeError("coset table is not complete")
    cols = np.array(table.cols, dtype=np.int64).reshape(len(table.cols), n)
    labs = np.array(table.labels, dtype=np.int64).reshape(cols.shape)
    every = np.arange(n)
    for l, col in enumerate(cols):
        if col.min(initial=0) < 0 or col.max(initial=0) >= n:
            raise RuntimeError("coset table is not complete")
        if ((cols[l ^ 1][col] != every).any()
                or (labs[l ^ 1][col] != -labs[l]).any()):
            raise RuntimeError("coset table columns are not mutually inverse")
    # Without a generator H is trivial.
    order = _close_relators(cols, labs, rel_words, 0 if sub_words else 1)
    for w in sub_words:
        x, k = 0, 0
        for l in w:
            k += int(labs[l][x])
            x = cols[l][x]
        if x != 0:
            raise RuntimeError("subgroup generator does not fix coset 0")
        order = gcd(order, k - 1)
    return order


def _close_relators(cols: np.ndarray, labs, rel_words, order: int) -> int:
    """Walk each relator from every coset at once, one gather per letter,
    and raise RuntimeError unless it returns each coset to itself.
    Returns the gcd of order and the labels the relators close with;
    labs is read only while that gcd is not 1.  The labels' gcd is
    np.gcd.reduce's, exact and never negative on int64; np.unique would
    import numpy.ma."""
    every = np.arange(cols.shape[1])
    for w in rel_words:
        x, k = every, 0
        for l in w:
            if order != 1:
                k = k + labs[l][x]
            x = cols[l][x]
        if (x != every).any():
            raise RuntimeError("relator does not close on the final table")
        if order != 1:
            order = gcd(order, int(np.gcd.reduce(k)))
    return order


def to_group(table: CosetTable, max_cosets: int = DEFAULT_MAX_COSETS):
    """Concrete group from a coset table of a cyclic subgroup H.

    The table is lifted to the right regular action, checked, and
    standardized.  Raises EnumerationLimitError when H is infinite, and
    when |H| times the index exceeds max_cosets, before the lifted
    table is allocated.
    """
    pres = table.presentation
    h, index = table.subgroup_order, table.coset_count
    if h == 0:
        raise EnumerationLimitError(
            "the group is infinite: its subgroup generated by "
            f"{table.subgroup_generators[0]} has infinite order", index, 0)
    if h * index > max_cosets:
        raise EnumerationLimitError(
            f"the group has order {h * index}, which exceeds "
            f"max_cosets={max_cosets}", index, 0)
    cols = np.array(table.cols, dtype=np.int64).reshape(-1, index)
    labs = np.array(table.labels, dtype=np.int64).reshape(cols.shape) % h
    # (j, c) is element j * index + c
    j = np.arange(h)[:, None]
    lifted = ((j + labs[:, None, :]) % h * index
              + cols[:, None, :]).reshape(len(cols), h * index)
    _close_relators(lifted, None, _letter_words(pres, pres.relators), 1)
    return ConcreteGroup(_standardize(lifted), presentation=pres)


def _standardize(cols: np.ndarray) -> np.ndarray:
    """Renumber a table in breadth-first order from 0, taking each
    element's neighbours in letter order; raises RuntimeError unless
    every element is reached."""
    n = cols.shape[1]
    order = breadth_first(cols)[3]
    if order.size != n:
        raise RuntimeError("coset table is not transitive")
    new = np.empty(n, dtype=np.int64)
    new[order] = np.arange(n)
    out = np.empty_like(cols)
    out[:, new] = new[cols]
    return out
