"""Coset enumeration over a finite presentation.

This is the classical relator-scanning procedure: every live coset is
scanned against every relator, gaps of length one become deductions,
longer gaps are filled by defining new cosets, and scan mismatches
become coincidences that collapse the table through a union-find merge
queue.  Rows are also filled directly so the finished table is complete.

When the allocation limit is reached, one lookahead pass (scanning
without defining) runs, the table is compacted, and enumeration resumes;
if that frees almost nothing the enumeration gives up with
EnumerationLimitError rather than silently truncating.

Over the trivial subgroup the finished table is the right regular action
of the presented group, which to_group() packages as a ConcreteGroup.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    the same input always yields the same table.  Raises
    EnumerationLimitError when the limits are exhausted (the enumeration
    never returns a truncated table), also before any work when a
    relator has more letters than max_cosets, and PresentationError
    never; bad input should be caught at parse time.
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

    cols: list[list[int]] = [[-1] for _ in range(ncols)]
    parent = [0]
    dead_queue: list[int] = []
    steps = 0

    def findrep(c: int) -> int:
        # path-halving union-find
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def define(c: int, l: int) -> int:
        if len(parent) >= max_cosets:
            raise _Saturated
        n = len(parent)
        for col in cols:
            col.append(-1)
        parent.append(n)
        cols[l][c] = n
        cols[l ^ 1][n] = c
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
            for l in range(ncols):
                d = cols[l][y]
                if d == -1:
                    continue
                if cols[l ^ 1][d] == y:
                    cols[l ^ 1][d] = -1
                mu = findrep(y)
                nu = findrep(d)
                if cols[l][mu] != -1:
                    merge(nu, cols[l][mu])
                elif cols[l ^ 1][nu] != -1:
                    merge(mu, cols[l ^ 1][nu])
                else:
                    cols[l][mu] = nu
                    cols[l ^ 1][nu] = mu

    def scan(c: int, w: list[int], fill: bool):
        nonlocal steps
        f, i = c, 0
        b, j = c, len(w) - 1
        while True:
            while i <= j and cols[w[i]][f] != -1:
                f = cols[w[i]][f]
                i += 1
                steps += 1
            if i > j:
                if f != b:
                    coincide(f, b)
                return
            while j >= i and cols[w[j] ^ 1][b] != -1:
                b = cols[w[j] ^ 1][b]
                j -= 1
                steps += 1
            if j < i:
                coincide(f, b)
                return
            if i == j:
                cols[w[i]][f] = b
                cols[w[i] ^ 1][b] = f
                return
            if not fill:
                return
            f = define(f, w[i])
            i += 1

    def live_count() -> int:
        return sum(1 for c in range(len(parent)) if findrep(c) == c)

    def compact():
        live = [c for c in range(len(parent)) if findrep(c) == c]
        index = {c: i for i, c in enumerate(live)}
        for l in range(ncols):
            col = cols[l]
            newcol = []
            for c in live:
                v = col[c]
                newcol.append(-1 if v == -1 else index[findrep(v)])
            cols[l] = newcol
        parent[:] = range(len(live))

    def sweep():
        nonlocal steps
        for w in sub_words:
            scan(0, w, True)
        idx = 0
        while idx < len(parent):
            if findrep(idx) != idx:
                idx += 1
                continue
            for w in rel_words:
                scan(idx, w, True)
                if max_steps is not None and steps > max_steps:
                    raise EnumerationLimitError(
                        f"enumeration exceeded max_steps={max_steps}", len(parent), steps
                    )
                if findrep(idx) != idx:
                    break
            if findrep(idx) == idx:
                for l in range(ncols):
                    if cols[l][idx] == -1:
                        define(idx, l)
            idx += 1

    while True:
        try:
            sweep()
            break
        except _Saturated:
            before = live_count()
            for c in range(len(parent)):
                if findrep(c) != c:
                    continue
                for w in rel_words:
                    scan(c, w, False)
            compact()
            # require real progress from the lookahead, or give up
            if len(parent) > 0.9 * before:
                raise EnumerationLimitError(
                    f"enumeration exceeded max_cosets={max_cosets}", before, steps
                ) from None

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
    """Post hoc consistency check: complete, invertible, and closed."""
    n = table.coset_count
    for l, col in enumerate(table.cols):
        if len(col) != n or any(v < 0 or v >= n for v in col):
            raise RuntimeError("coset table is not complete")
        inv = table.cols[l ^ 1]
        if any(inv[col[c]] != c for c in range(n)):
            raise RuntimeError("coset table columns are not mutually inverse")
    for w in rel_words:
        for c in range(n):
            x = c
            for l in w:
                x = table.cols[l][x]
            if x != c:
                raise RuntimeError("relator does not close on the final table")
    for w in sub_words:
        x = 0
        for l in w:
            x = table.cols[l][x]
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
