"""Coset enumeration over a finite presentation.

This is the classical relator-scanning procedure (HLT, after Haselgrove,
Leech and Trotter): every live coset is scanned against every relator,
gaps of length one become deductions, longer gaps are filled by defining
new cosets, and scan mismatches become coincidences that collapse the
table through a union-find merge queue.  Rows are also filled directly
so the finished table is complete.  Cosets are numbered in definition
order, and that numbering becomes the element numbering of to_group(),
so the definition order is part of every result built on a table.

The table is one Python list per letter.  Each word's scan walks its
forward and backward columns from lists bound once per table, so a
letter costs one list index and one lookup; compaction replaces the
columns and rebinds them.

When the allocation limit is reached, one lookahead pass (scanning
without defining) runs, the table is compacted, and enumeration resumes;
if that frees almost nothing the enumeration gives up with
EnumerationLimitError rather than silently truncating.  The step limit,
when set, counts every coset defined and holds in both kinds of pass,
inside a scan too.

The finished table is checked once more with numpy, one gather over all
cosets per relator letter.  Over the trivial subgroup it is the right
regular action of the presented group, which to_group() packages as a
ConcreteGroup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Completed coset table.

    cols holds one column per letter: column 2*i is the action of
    generator i, column 2*i+1 the action of its inverse, so
    cols[l][c] is the coset reached from c along letter l.
    """

    presentation: GroupPresentation
    subgroup_generators: tuple[Word, ...]
    cols: list[list[int]]
    coset_count: int


def _letters(w: Word, gen_col: dict[str, int]) -> list[int]:
    out: list[int] = []
    for g, e in free_reduce(w).syllables:
        col = gen_col[g] + (0 if e > 0 else 1)
        out.extend([col] * abs(e))
    return out


def enumerate_cosets(
    pres: GroupPresentation,
    subgroup_gens: tuple[Word, ...] | list[Word] = (),
    *,
    max_cosets: int = DEFAULT_MAX_COSETS,
    max_steps: int | None = None,
) -> CosetTable:
    """Enumerate cosets of the subgroup generated by subgroup_gens.

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
    ngens = len(pres.generators)
    ncols = 2 * ngens
    gen_col = {g: 2 * i for i, g in enumerate(pres.generators)}
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    longest = max((r.letter_count() for r in pres.relators), default=0)
    if longest > max_cosets:
        raise EnumerationLimitError(
            f"a relator of {longest} letters exceeds max_cosets={max_cosets}", 0, 0)
    rel_words = [w for w in (_letters(r, gen_col) for r in pres.relators) if w]
    sub_words = [w for w in (_letters(s, gen_col) for s in subgroup_gens) if w]
    step_limit = float("inf") if max_steps is None else max_steps

    cols: list[list[int]] = [[-1] for _ in range(ncols)]
    # A coset c is live while parent[c] == c; a dead one points towards
    # the coset it was merged into (union-find with path halving).
    parent = [0]
    dead_queue: list[int] = []
    steps = 0
    # Per relator and per subgroup generator w, the columns cols[w[i]]
    # and cols[w[i] ^ 1]; per letter, (column, inverse column).
    rels: list[tuple[list, list]] = []
    subs: list[tuple[list, list]] = []
    pairs: list[tuple[list, list]] = []

    def bind():
        rels[:] = [([cols[l] for l in w], [cols[l ^ 1] for l in w])
                   for w in rel_words]
        subs[:] = [([cols[l] for l in w], [cols[l ^ 1] for l in w])
                   for w in sub_words]
        pairs[:] = [(cols[l], cols[l ^ 1]) for l in range(ncols)]

    def findrep(c: int) -> int:
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    def define(c: int, col: list, inv: list) -> int:
        # a new coset n with c -> n along col's letter
        n = len(parent)
        if n >= max_cosets:
            raise _Saturated
        for column in cols:
            column.append(-1)
        parent.append(n)
        col[c] = n
        inv[n] = c
        return n

    def merge(a: int, b: int):
        a, b = findrep(a), findrep(b)
        if a != b:
            if a > b:
                a, b = b, a
            parent[b] = a
            dead_queue.append(b)

    def coincide(a: int, b: int):
        merge(a, b)
        while dead_queue:
            y = dead_queue.pop()
            for col, inv in pairs:
                d = col[y]
                if d < 0:
                    continue
                if inv[d] == y:
                    inv[d] = -1
                mu = y
                while parent[mu] != mu:
                    parent[mu] = mu = parent[parent[mu]]
                nu = d
                while parent[nu] != nu:
                    parent[nu] = nu = parent[parent[nu]]
                if col[mu] >= 0:
                    merge(nu, col[mu])
                elif inv[nu] >= 0:
                    merge(mu, inv[nu])
                else:
                    col[mu] = nu
                    inv[nu] = mu

    def scan(c: int, fw: list, bw: list, fill: bool):
        """Scan c under one word, given as its bound forward and
        backward columns: close it, deduce its one missing entry, or
        find a coincidence; with fill, define cosets across a gap of two
        or more letters."""
        nonlocal steps
        f = b = c
        i, j = 0, len(fw) - 1
        last = j
        try:
            while True:
                while i <= j:
                    x = fw[i][f]
                    if x < 0:
                        break
                    f = x
                    i += 1
                if i > j:
                    if f != b:
                        coincide(f, b)
                    return
                while j >= i:
                    x = bw[j][b]
                    if x < 0:
                        break
                    b = x
                    j -= 1
                if j < i:
                    coincide(f, b)
                    return
                if i == j:
                    fw[i][f] = b
                    bw[i][b] = f
                    return
                if not fill or steps + i + last - j > step_limit:
                    return
                f = define(f, fw[i], bw[i])
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
            for fw, bw in subs:
                scan(0, fw, bw, True)
            idx = 0
            while idx < len(parent):
                if parent[idx] == idx:
                    for fw, bw in rels:
                        scan(idx, fw, bw, True)
                        if steps > step_limit:
                            raise over_steps()
                        if parent[idx] != idx:
                            break
                    else:
                        for col, inv in pairs:
                            if col[idx] == -1:
                                define(idx, col, inv)
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
                for fw, bw in rels:
                    scan(c, fw, bw, False)
                    if steps > step_limit:
                        raise over_steps()

    def live_count() -> int:
        return sum(1 for c in range(len(parent)) if parent[c] == c)

    def compact():
        # Unbind first, so that each old column is freed once replaced.
        rels.clear()
        subs.clear()
        pairs.clear()
        # Renumber in place: parent[c] becomes the new number of c's
        # live coset.  A dead coset's parent is smaller than it (merge
        # keeps the smaller root), so it is renumbered before c is.
        # The new numbers are made before anything is freed, so they do
        # not land in the gaps the old table leaves and keep its memory.
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
        for l in range(ncols):
            col = cols[l]
            newcol = []
            for c in live:
                v = col[c]
                newcol.append(-1 if v == -1 else parent[v])
            cols[l] = newcol
        parent[:] = numbers
        bind()

    bind()
    while not sweep():
        before = live_count()
        lookahead()
        compact()
        # require real progress from the lookahead, or give up
        if len(parent) > 0.9 * before:
            raise EnumerationLimitError(
                f"enumeration exceeded max_cosets={max_cosets}", before, steps)

    compact()
    count = len(parent)
    table = CosetTable(
        presentation=pres,
        subgroup_generators=tuple(free_reduce(w) for w in subgroup_gens),
        cols=cols,
        coset_count=count,
    )
    _validate(table, rel_words, sub_words)
    return table


def _validate(table: CosetTable, rel_words, sub_words):
    """Post hoc consistency check: complete, invertible, and closed.

    Runs on numpy copies of the columns: each relator letter is one
    gather over all cosets at once."""
    n = table.coset_count
    if any(len(col) != n for col in table.cols):
        raise RuntimeError("coset table is not complete")
    cols = np.array(table.cols, dtype=np.int64).reshape(len(table.cols), n)
    every = np.arange(n)
    for l, col in enumerate(cols):
        if col.min(initial=0) < 0 or col.max(initial=0) >= n:
            raise RuntimeError("coset table is not complete")
        if (cols[l ^ 1][col] != every).any():
            raise RuntimeError("coset table columns are not mutually inverse")
    for w in rel_words:
        x = every
        for l in w:
            x = cols[l][x]
        if (x != every).any():
            raise RuntimeError("relator does not close on the final table")
    for w in sub_words:
        x = 0
        for l in w:
            x = cols[l][x]
        if x != 0:
            raise RuntimeError("subgroup generator does not fix coset 0")


def to_group(table: CosetTable):
    """Concrete group from a coset table over the trivial subgroup.

    The table must have been enumerated with no subgroup generators, so
    that cosets are exactly the group elements and the columns give the
    right regular action.
    """
    from .core import ConcreteGroup

    if table.subgroup_generators:
        raise ValueError("table is not over the trivial subgroup")
    return ConcreteGroup(table.cols, presentation=table.presentation)
