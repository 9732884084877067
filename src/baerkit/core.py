"""Concrete finite groups and structural subgroup computations.

A ConcreteGroup stores a group as its right regular action: elements are
the indices 0..size-1 with 0 the identity, and one permutation column
per generator letter gives right multiplication by that generator.
A breadth-first search from the identity over these columns gives each
element a parent and a last letter; that tree spells the word that
prints the element.  Memory stays O(size * generators); no full
multiplication table is ever built.

Products walk shorter words.  While the mean word length exceeds 5, at
most 4 times, the group adds the column pair x -> x*e, x -> x*e^-1 for
its deepest element e and searches again over the larger alphabet
(shallow Schreier trees, Seress 2003, 4.4).  a*b follows b's shallow
word through these extended columns starting at a.

Whole-group maps (inverses, and x -> [x, y] behind centralizers and
the upper central series) come from one fill along that tree,
ConcreteGroup._along_tree: value[child] = perm[letter][value[parent]],
one numpy assignment per (depth, letter) bucket.  Arithmetic on whole
index arrays (mult_batch, comm_batch, power_batch) walks the shallow
words, kept as an element-major matrix of flat offsets into the
extended columns: one gather of the right operands' rows, then one add
and one flat gather per letter.

A Subgroup is one sorted tuple of the group's shared element ints with
a remembered generating list; membership is a binary search in it.
Each group keeps a subgroup table, and every subgroup is grown through
it, one generator at a time (the cyclic extension method, Holt, Eick
and O'Brien 2005): every <x> is closed once by powering and shared by
the x^k with k prime to |x|, every element tuple (the whole group's
too) has one canonical Subgroup with an int key, and each join <H, x>
is memoized by the pair of keys (H, <x>); a miss grows H by whole
right cosets (Dimino's algorithm).  A miss stops as soon as it holds
more than |G|/q elements, q the least prime factor of |G:H|: every
proper subgroup containing H has index at least q (Lagrange), so the
join is then G, and the answer is exact.
Subgroup.generated, Subgroup.from_elements and normal_closure(gens,
ambient) all walk their generators through these joins, and the
series, quotients, direct products and Sylow parts below all work on
these two types.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_right
from math import gcd, lcm

import numpy as np

from .presentation import MAX_GENERATORS, GroupPresentation, Word, free_reduce

__all__ = [
    "GroupError",
    "ConcreteGroup",
    "Subgroup",
    "normal_closure",
    "is_normal_in",
    "lower_central_series",
    "nilpotency_class",
    "derived_series",
    "derived_subgroup",
    "derived_length",
    "is_metabelian",
    "center",
    "upper_central_series",
    "centralizer",
    "exponent",
    "frattini_p_group",
    "sylow_decomposition",
    "direct_product",
    "quotient",
    "factorize",
]


class GroupError(ValueError):
    """Bad arguments to a group operation (mixed groups, bad subgroups...)."""


class cached_property(functools.cached_property):
    """functools.cached_property that stores with setattr.

    The base class writes through instance.__dict__; on CPython 3.11 that
    moves the instance's attributes out of inline storage and slows every
    later attribute load, mult's self.ext_cols and self.shallow_word
    included."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        setattr(obj, self.attrname, value)
        return value


# Extra column pairs are added while the mean shallow word is longer
# than SHALLOW_MEAN letters, at most SHALLOW_PAIRS times.
SHALLOW_MEAN = 5
SHALLOW_PAIRS = 4


class ConcreteGroup:
    """Finite group given by permutation columns for right multiplication.

    cols holds the 2*ngens generator letter columns and _word_tree the
    breadth-first tree over them that element_word and _along_tree walk.
    ext_cols is cols followed by the extra column pairs, and shallow_word
    each element's shortest word over ext_cols; products walk these."""

    def __init__(self, cols, presentation: GroupPresentation | None = None,
                 gen_names: tuple[str, ...] | None = None, meta: dict | None = None):
        base = len(cols)
        if base == 0 or base % 2 != 0:
            raise GroupError("need one column per generator letter (gen, inverse)")
        if base > 2 * MAX_GENERATORS:
            raise GroupError(f"more than {MAX_GENERATORS} generators")
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise GroupError("ragged column lengths")
        self.size = n
        self.presentation = presentation
        if gen_names is None:
            if presentation is not None:
                gen_names = presentation.generators
            else:
                gen_names = tuple(f"g{i}" for i in range(base // 2))
        self.gen_names = tuple(gen_names)
        if len(self.gen_names) * 2 != base:
            raise GroupError("generator names do not match columns")
        self.meta = dict(meta or {})
        # The columns, then room for the extra pairs _search_words adds.
        stack = np.empty((base + 2 * SHALLOW_PAIRS, n), dtype=np.int64)
        stack[:base] = cols
        _check_columns(stack[:base])
        # One int object per element, shared by all columns: a walk then
        # reads n objects laid out in order, not one per column entry.
        # Lists indexed out of this object array share the ints, so every
        # per-element list made from a numpy array is taken from _ints.
        self._ints = ints = np.arange(n).astype(object)
        self.cols = ints[stack[:base]].tolist()
        self._search_words(stack, ints)
        # Each Subgroup built takes the next key.  _drop_memos leaves the
        # counter alone, so a Subgroup kept from before a drop never
        # shares a key, and so a memo entry, with one built after it.
        self._keys = itertools.count()
        self._drop_memos()

    def _drop_memos(self):
        """Empty every memo; __init__ starts them here.

        A Subgroup holds its group, and the subgroup table, _memo and
        _whole hold Subgroups, so a group with filled memos is a reference
        cycle that only a full pass of the cycle collector frees.  Once
        they are dropped the group dies with its last outside reference.
        Subgroups handed out keep their elements and stay valid, and the
        memos refill on demand."""
        # Every answer kept by _memoized: per function, then per
        # Subgroup.key (with the arguments after the group, if any).
        self._memo: dict = {}
        # The subgroup table, filled by Subgroup.cyclic and _join.
        self._cyclic: list[Subgroup | None] = [None] * self.size  # <x>, per x
        self._subgroups: dict[tuple, Subgroup] = {}  # by element tuple
        self._joins: dict[tuple, Subgroup] = {}  # <H, x>, by (H, <x>) keys
        try:
            del self._whole  # the cached property, once it has been read
        except AttributeError:
            pass

    # -- construction internals -------------------------------------------

    def _search_words(self, stack, ints):
        """Set _word_tree, ext_cols, _npcols and shallow_word.

        _word_tree is breadth_first's depth, parent and letter arrays over
        cols.  While the mean word is longer than SHALLOW_MEAN letters, add
        the pair x -> x*e, x -> x*e^-1 for the deepest element e (the least
        on a tie) as the next two free rows of stack, whose rows before
        them are cols, and search the shortest words again, at most
        SHALLOW_PAIRS times, and only while every letter and the index of
        _npcols' identity row (one past the last) fit a byte.
        shallow_word spells the last tree."""
        n, base = self.size, len(self.cols)
        k = base
        tree = breadth_first(stack[:k])
        if tree[3].size != n:
            raise GroupError("columns do not generate a transitive action")
        self._word_tree = tree[:3]
        depth = tree[0]
        while (k < base + 2 * SHALLOW_PAIRS and k + 2 <= 255
               and depth.sum() > SHALLOW_MEAN * n):
            e = int(np.argmax(depth))
            col = np.arange(n)
            for l in _tree_word(tree, e):
                col = stack[l][col]
            stack[k] = col
            stack[k + 1][col] = np.arange(n)
            k += 2
            tree = breadth_first(stack[:k])
            depth = tree[0]
        self.ext_cols = self.cols + ints[stack[base:k]].tolist()
        # The extended columns, then the identity row that _letters pads with.
        self._npcols = np.vstack((stack[:k], np.arange(n)))
        self.shallow_word = _spell(tree, ints)

    # -- element arithmetic ------------------------------------------------

    @property
    def ngens(self) -> int:
        return len(self.gen_names)

    def gen_element(self, i: int) -> int:
        return self.cols[2 * i][0]

    def generator_elements(self) -> list[int]:
        return [self.gen_element(i) for i in range(self.ngens)]

    @cached_property
    def _whole(self) -> "Subgroup":
        # The table's whole group, shared with any join that generates G.
        gens = tuple(self.generator_elements())
        return Subgroup._canonical(self, self.cols[0], gens)._with_gens(gens)

    def mult(self, a: int, b: int) -> int:
        cols = self.ext_cols
        for l in self.shallow_word[b]:
            a = cols[l][a]
        return a

    @cached_property
    def _inv_table(self):
        # (parent * s)^-1 = s^-1 * parent^-1, and s^-1 * y = (y * s^-1)^s
        cols, conj = self._npcols, self._conj_perms
        left = [conj[l][cols[l ^ 1]] for l in range(len(self.cols))]
        return self._along_tree(0, left)

    @cached_property
    def _inv(self) -> list[int]:
        return self._ints[self._inv_table].tolist()

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conj(self, a: int, g: int) -> int:
        # g^-1 * a * g
        return self.mult(self.mult(self.inv(g), a), g)

    def comm(self, a: int, b: int) -> int:
        # [a, b] = a^-1 b^-1 a b = (b*a)^-1 * (a*b)
        return self.mult(self.inv(self.mult(b, a)), self.mult(a, b))

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        out, base = 0, a
        while k:
            if k & 1:
                out = self.mult(out, base)
            base = self.mult(base, base)
            k >>= 1
        return out

    def element_order(self, a: int) -> int:
        return Subgroup.cyclic(self, a).size

    # -- words --------------------------------------------------------------

    def word_to_element(self, w: Word) -> int:
        gen_index = {g: i for i, g in enumerate(self.gen_names)}
        c = 0
        for g, e in free_reduce(w).syllables:
            if g not in gen_index:
                raise GroupError(f"word uses unknown generator {g!r}")
            c = self.mult(c, self.power(self.gen_element(gen_index[g]), e))
        return c

    def element_word(self, e: int) -> Word:
        """e's breadth-first word over the generators, read off the tree."""
        names = self.gen_names
        return free_reduce(Word(tuple([
            (names[l // 2], 1 if l % 2 == 0 else -1)
            for l in _tree_word(self._word_tree, e)])))

    # -- whole-group maps along the BFS tree ---------------------------------

    @cached_property
    def _tree(self):
        """BFS tree edges as (letter, parents, children) index arrays,
        bucketed by (depth, letter) and in depth order: one sort of the
        elements by depth, then letter, then index, split where the key
        changes.  The identity, alone at depth 0, is left out."""
        depth, parent, letter = self._word_tree
        children = np.lexsort((letter, depth))[1:]
        key = depth[children] * len(self.cols) + letter[children]
        return [(letter[c[0]], parent[c], c) for c in np.split(
            children, np.flatnonzero(np.diff(key)) + 1) if c.size]

    def _along_tree(self, root: int, perms):
        """The map v with v[0] = root and v[child] = perms[l][v[parent]]
        for each tree edge parent -l-> child, as a numpy array.

        With perms the letter columns this is e -> root*e; with
        _conj_perms it is g -> root^g."""
        v = np.empty(self.size, dtype=np.int64)
        v[0] = root
        for l, parents, children in self._tree:
            v[children] = perms[l][v[parents]]
        return v

    @cached_property
    def _conj_perms(self):
        """Per letter s, the permutation e -> s^-1*e*s as a numpy array."""
        cols = self._npcols
        return [self._along_tree(self.cols[l ^ 1][0], cols)[cols[l]]
                for l in range(len(self.cols))]

    def comm_with_perm(self, y: int):
        """The full map x -> [x, y] as a numpy array.

        Since [x, y] = (y^-1)^x * y, this is the tree fill of x ->
        (y^-1)^x followed by y's shallow word.  A y that every letter's
        conjugation fixes is central, and its map is all zeros with no
        fill.  Iterating the map computes left-normed brackets: applying
        it n times to x yields [x, y, y, ..., y] with n copies of y."""
        conj = self._conj_perms
        if all(p[y] == y for p in conj):
            return np.zeros(self.size, dtype=np.int64)
        v = self._along_tree(self.inv(y), conj)
        cols = self._npcols
        for l in self.shallow_word[y]:
            v = cols[l][v]
        return v

    # -- batched arithmetic over index arrays ------------------------------

    @cached_property
    def _letters(self):
        """_npcols.ravel(), the shallow words as flat offsets into it, and
        each word's length.  The offsets are an element-major (size,
        depth) matrix: row e holds letter * size for each letter of e's
        word, padded with the identity row's offset len(ext_cols) * size.
        Every offset plus an element stays below
        (len(ext_cols) + 1) * size, so the offsets are int32 while that
        is below 2**31, as it is in any group of at most 2**23 elements,
        and no add wraps, whatever numpy's casting rules."""
        words, n = self.shallow_word, self.size
        lengths = np.fromiter(map(len, words), np.int64, n)
        dtype = np.int32 if (len(self.ext_cols) + 1) * n < 2**31 else np.int64
        offsets = np.full((n, lengths.max()), len(self.ext_cols) * n, dtype=dtype)
        offsets[np.arange(offsets.shape[1]) < lengths[:, None]] = \
            np.frombuffer(b"".join(words), np.uint8).astype(dtype) * n
        return self._npcols.ravel(), offsets, lengths

    def mult_batch(self, a, b):
        """a*b elementwise over index arrays of one shape (or a scalar):
        one gather of b's offset rows, then one add and one gather from
        the flat columns per letter of the longest shallow word in b."""
        flat, offsets, lengths = self._letters
        rows = offsets[b]
        for i in range(lengths[b].max(initial=0)):
            a = flat[rows[..., i] + a]
        return a

    def comm_batch(self, a, b):
        return self.mult_batch(self._inv_table[self.mult_batch(b, a)],
                               self.mult_batch(a, b))

    def power_batch(self, a, k: int):
        """a^k elementwise; a negative k powers the inverses."""
        if k < 0:
            a, k = self._inv_table[a], -k
        out = None
        while k:
            if k & 1:
                out = a if out is None else self.mult_batch(out, a)
            k >>= 1
            if k:
                a = self.mult_batch(a, a)
        return np.zeros_like(a) if out is None else out

    # -- conjugacy ------------------------------------------------------------

    @cached_property
    def _classes(self) -> list[list[int]]:
        ints = self._ints
        perms = [ints[p].tolist() for p in self._conj_perms[::2]]
        seen = [False] * self.size
        classes = []
        for e in range(self.size):
            if seen[e]:
                continue
            orbit = [ints[e]]
            seen[e] = True
            for x in orbit:
                for p in perms:
                    y = p[x]
                    if not seen[y]:
                        seen[y] = True
                        orbit.append(y)
            classes.append(sorted(orbit))
        return classes

    def conjugacy_classes(self) -> list[list[int]]:
        """Classes as sorted element lists, ordered by least member."""
        return self._classes

    @cached_property
    def _class_rep(self) -> list[int]:
        """Per element, the representative (least member) of its class."""
        rep = [0] * self.size
        for cl in self._classes:
            for e in cl:
                rep[e] = cl[0]
        return rep

    def class_reps(self) -> list[int]:
        return [cl[0] for cl in self.conjugacy_classes()]

    def __repr__(self):
        name = self.meta.get("name")
        label = f" {name!r}" if name else ""
        return f"<ConcreteGroup{label} of order {self.size}>"


def breadth_first(cols):
    """Breadth-first search from 0 over the rows of cols, one row per
    letter and one numpy step per level.  Each element's neighbours are
    taken in letter order and an element's first discovery is kept, so
    the search order is a queue's.  Returns each element's word length
    (-1 if unreached), its parent and last letter (element = parent *
    letter), and the reached elements in search order, 0 first."""
    ncols, n = cols.shape
    by_elem = np.ascontiguousarray(cols.T)
    depth = np.full(n, -1, dtype=np.int64)
    edge_of = np.full(n, ncols * n, dtype=np.int64)
    depth[0] = 0
    levels = [np.zeros(1, dtype=np.int64)]
    edges = []
    while levels[-1].size:
        # Entry i of reached is the level's element i // ncols times
        # letter i % ncols.  Of the entries that reach one new element,
        # the least becomes its tree edge (edge_of is read only at
        # elements not yet reached, so it needs no reset).
        reached = by_elem[levels[-1]].ravel()
        fresh = (depth[reached] < 0).nonzero()[0]
        reached = reached[fresh]
        np.minimum.at(edge_of, reached, fresh)
        won = edge_of[reached] == fresh
        level = reached[won]
        depth[level] = len(levels)
        edges.append(fresh[won])
        levels.append(level)
    # Parents and letters are scattered once, not per level: an edge
    # entry indexes its level's reached array, so its parent sits at the
    # previous level's offset in the search order plus entry // ncols.
    order = np.concatenate(levels)
    sizes = np.fromiter(map(len, levels), np.int64, len(levels))
    offsets = np.repeat(np.cumsum(sizes) - sizes, np.append(sizes[1:], 0))
    at, last = np.divmod(np.concatenate(edges), ncols)
    parent = np.zeros(n, dtype=np.int64)
    letter = np.zeros(n, dtype=np.int64)
    parent[order[1:]] = order[offsets + at]
    letter[order[1:]] = last
    return depth, parent, letter, order


def _check_columns(cols: np.ndarray):
    """Raise GroupError unless the rows of cols come in mutually inverse
    pairs of permutations of range(n).  Rows are checked as permutations
    before any row indexes another, so -1 or n cannot wrap."""
    every = np.arange(cols.shape[1])
    perm = (np.sort(cols, axis=1) == every).all(axis=1)
    for l in range(0, len(cols), 2):
        if not perm[l]:
            raise GroupError(f"column {l} is not a permutation")
        if not perm[l + 1] or (cols[l + 1][cols[l]] != every).any():
            raise GroupError(f"columns {l} and {l + 1} are not mutually inverse")


_BYTE = [bytes((l,)) for l in range(256)]


def _spell(tree, ints) -> list[bytes]:
    """Each element's word in a tree made by breadth_first.  ints is
    range(n) as an object array; the walk takes its indices from it, so
    as not to make n new int objects per index list."""
    _, parent, letter, order = tree
    order = order[1:]
    words = [b""] * len(parent)
    for c, p, l in zip(ints[order].tolist(), ints[parent[order]].tolist(),
                       letter[order].tolist()):
        words[c] = words[p] + _BYTE[l]
    return words


def _tree_word(tree, e: int) -> list[int]:
    """The letters from 0 to e in a tree from breadth_first or _word_tree."""
    parent, letter = tree[1:3]
    word = []
    while e:
        word.append(letter[e])
        e = parent[e]
    return word[::-1]


class Subgroup:
    """A subgroup: its closed elements as one sorted tuple, plus the
    generators that produced it.  key is an int unique among the group's
    Subgroups; copies under other generators (_with_gens) share it."""

    def __init__(self, group: ConcreteGroup, elements, gens):
        self.group = group
        self.elements = tuple(sorted(elements))
        self.gens = tuple(gens)
        self.key = next(group._keys)
        if not self.elements or self.elements[0] != 0:
            raise GroupError("subgroup must contain the identity")
        if group.size % len(self.elements) != 0:
            raise GroupError("subgroup size does not divide the group order")

    @property
    def size(self) -> int:
        return len(self.elements)

    def __contains__(self, e: int) -> bool:
        # The greatest element <= e; there is one for any e >= 0, since
        # elements[0] is the identity 0, and index -1 for e < 0 is the
        # greatest element, which is not e either.
        elements = self.elements
        return elements[bisect_right(elements, e) - 1] == e

    def __le__(self, other: "Subgroup") -> bool:
        """Whether every element of this subgroup lies in other."""
        return other.is_whole() or all(map(other.__contains__, self.elements))

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.group is other.group
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((id(self.group), self.elements))

    def is_whole(self) -> bool:
        return self.size == self.group.size

    def __repr__(self):
        return f"<Subgroup of order {self.size} in group of order {self.group.size}>"

    @classmethod
    def _canonical(cls, group: ConcreteGroup, elements, gens) -> "Subgroup":
        """The group's one Subgroup on these elements; a new element tuple
        enters the table with these generators and a new key."""
        sub = cls(group, elements, gens)
        return group._subgroups.setdefault(sub.elements, sub)

    @classmethod
    def cyclic(cls, group: ConcreteGroup, x: int) -> "Subgroup":
        """<x>, from the group's subgroup table.

        A miss closes <x> by powering, and the one canonical subgroup is
        then kept for every x^k with k prime to |x|, each of which
        generates it."""
        got = group._cyclic[x]
        if got is None:
            powers, t = [0], x
            while t:
                powers.append(t)
                t = group.mult(t, x)
            got = cls._canonical(group, powers, powers[1:2])
            m = len(powers)
            for k in range(m):
                if gcd(k, m) == 1:
                    group._cyclic[powers[k]] = got
        return got

    @classmethod
    def generated(cls, group: ConcreteGroup, gens) -> "Subgroup":
        """<gens>, walked left to right through the group's subgroup table.

        Each prefix <g1, ..., gi> is a canonical subgroup of the table,
        and the next generator either lies in it already or joins it
        (_join), so <g1, g2, g3> extends a memoized <g1, g2>.  The result
        carries the requested gens and shares the canonical elements and
        key."""
        gens = tuple(gens)
        return _adjoin(cls.trivial(group), gens, [])._with_gens(gens)

    def _with_gens(self, gens: tuple) -> "Subgroup":
        """This subgroup's elements and key under a generating list."""
        if self.gens == gens:
            return self
        sub = object.__new__(Subgroup)
        sub.group, sub.elements, sub.gens, sub.key = \
            self.group, self.elements, gens, self.key
        return sub

    @classmethod
    def trivial(cls, group: ConcreteGroup) -> "Subgroup":
        return cls.cyclic(group, 0)

    @classmethod
    def whole(cls, group: ConcreteGroup) -> "Subgroup":
        return group._whole

    @classmethod
    def from_elements(cls, group: ConcreteGroup, elements) -> "Subgroup":
        """Wrap an already-closed element set.  Its generating list is
        each element, in increasing order, that lay outside the closure
        of those before it."""
        elements, gens = sorted(set(elements)), []
        h = _adjoin(cls.trivial(group), elements, gens)
        if h.size != len(elements):
            raise GroupError("element set is not closed under multiplication")
        return h._with_gens(tuple(gens))


def _adjoin(h: Subgroup, elements, kept: list) -> Subgroup:
    """h joined with each of elements in turn (_join); those that lay
    outside the closure so far are appended to kept."""
    for g in elements:
        if g not in h:
            h = _join(h.group, h, g)
            kept.append(g)
    return h


def _join(group: ConcreteGroup, h: Subgroup, g: int) -> Subgroup:
    """<h, g> for a canonical subgroup h and an element g outside it, from
    the group's subgroup table: <g> itself when h is trivial, else the
    join memoized by the pair of keys (h, <g>).

    A miss grows h by Dimino's cosets.  The list holds h's elements and
    then each new right coset h*t, stored contiguously and led by its
    representative t.  For every representative r and every generator s
    of h and g, only the single element t = r*s is walked; if t is
    unmarked, the coset h*t is added as (h*r)*s by walking s over the
    stored coset h*r.  The closure is complete once the representatives
    are closed under every generator.  Each generator is walked as the
    list of extended columns its shallow word names.

    The loop stops early once it holds more than |G|/q elements, q the
    least prime factor of |G:h|: by Lagrange, a proper subgroup K with
    h <= K < G has |G:K| > 1 dividing |G:h|, so |G:K| >= q and
    |K| <= |G|/q.  The join is then G itself, filed from the group's
    shared element ints (a permutation of them is cols[0])."""
    cyc = Subgroup.cyclic(group, g)
    if h.size == 1:
        return cyc
    key = (h.key, cyc.key)
    joined = group._joins.get(key)
    if joined is None:
        cols, words = group.ext_cols, group.shallow_word
        gens = h.gens + (g,)
        walks = [[cols[l] for l in words[s]] for s in gens]
        elems = list(h.elements)
        mark = bytearray(group.size)
        for e in elems:
            mark[e] = 1
        m = len(elems)
        bound = group.size // min(factorize(group.size // m))
        start = 0
        while start < len(elems) <= bound:
            r = elems[start]
            for walk in walks:
                t = r
                for col in walk:
                    t = col[t]
                if mark[t]:
                    continue
                for x in elems[start:start + m]:
                    for col in walk:
                        x = col[x]
                    mark[x] = 1
                    elems.append(x)
            start += m
        if len(elems) > bound:
            elems = group.cols[0]
        joined = group._joins[key] = Subgroup._canonical(group, elems, gens)
    return joined


def _as_subgroup(g) -> Subgroup:
    if isinstance(g, Subgroup):
        return g
    if isinstance(g, ConcreteGroup):
        return Subgroup.whole(g)
    raise GroupError(f"expected a group or subgroup, got {type(g).__name__}")


_MISSING = object()


def _memoized(fn):
    """fn(g, *args), computed once per group: the answer is kept in the
    group's _memo under fn, then under the key of _as_subgroup(g), paired
    with args when there are any.  So a group and Subgroup.whole(group)
    share one entry, while fn still receives g itself."""
    @functools.wraps(fn)
    def memoized(g, *args):
        sub = _as_subgroup(g)
        memo = sub.group._memo
        table = memo.get(fn)
        if table is None:
            table = memo[fn] = {}
        key = (sub.key, *args) if args else sub.key
        got = table.get(key, _MISSING)
        if got is _MISSING:
            got = table[key] = fn(g, *args)
        return got
    return memoized


def normal_closure(gens, ambient) -> Subgroup:
    """Smallest subgroup of the ambient containing gens and closed under
    its conjugation.  Conjugating generators by generators suffices: both
    sets generate, and conjugation by a fixed element permutes a finite
    subgroup.  The result's generating list is the generators and
    conjugates that joined the closure (_adjoin), in order."""
    amb = _as_subgroup(ambient)
    group = amb.group
    gens = list(gens)
    if not all(map(amb.__contains__, gens)):
        raise GroupError("generators are not contained in the ambient subgroup")
    work = []
    h = _adjoin(Subgroup.trivial(group), gens, work)
    kgens = list(dict.fromkeys(amb.gens))
    i = 0
    while i < len(work):
        x = work[i]
        i += 1
        h = _adjoin(h, [group.conj(x, k) for k in kgens], work)
    return h._with_gens(tuple(work))


def is_normal_in(h: Subgroup, ambient) -> bool:
    amb = _as_subgroup(ambient)
    if not h <= amb:
        return False
    return all(
        h.group.conj(x, k) in h for x in h.gens for k in amb.gens
    )


def _series(term: Subgroup, step, end: int) -> list[Subgroup]:
    """term, step(term), step(step(term)), ... up to the first term of
    end elements (kept) or the first that repeats the last (left out)."""
    series = [term]
    while term.size != end:
        nxt = step(term)
        if nxt.elements == term.elements:
            break
        series.append(term := nxt)
    return series


def lower_central_series(g) -> list[Subgroup]:
    """G = gamma_1 >= gamma_2 >= ... down to stabilization.

    gamma_{i+1} is the normal closure of the commutators of gamma_i's
    generators with the group's generators."""
    sub = _as_subgroup(g)
    group = sub.group
    return _series(sub, lambda cur: normal_closure(
        [group.comm(a, b) for a in cur.gens for b in sub.gens], sub), 1)


@_memoized
def nilpotency_class(g) -> int | None:
    """Nilpotency class, or None when the series stabilizes above 1."""
    series = lower_central_series(g)
    return len(series) - 1 if series[-1].size == 1 else None


def derived_series(g) -> list[Subgroup]:
    return _series(_as_subgroup(g), derived_subgroup, 1)


@_memoized
def derived_subgroup(g) -> Subgroup:
    sub = _as_subgroup(g)
    group = sub.group
    comms = [group.comm(a, b) for a in sub.gens for b in sub.gens]
    return normal_closure(comms, sub)


def derived_length(g) -> int | None:
    series = derived_series(g)
    return len(series) - 1 if series[-1].size == 1 else None


def is_metabelian(g) -> bool:
    dl = derived_length(g)
    return dl is not None and dl <= 2


def center(group: ConcreteGroup) -> Subgroup:
    return centralizer(group, group.generator_elements())


def upper_central_series(group: ConcreteGroup) -> list[Subgroup]:
    """Z_1 = Z(G) <= Z_2 <= ... up to stabilization.

    Z_{i+1} is the pullback of Z_i (Z_0 = 1): the g with [g, s] in Z_i
    for every generator s."""
    comms = [group.comm_with_perm(s) for s in group.generator_elements()]
    step = functools.partial(_pullback, group, comms)
    return _series(step(Subgroup.trivial(group)), step, group.size)


def centralizer(group: ConcreteGroup, elements) -> Subgroup:
    """The g with [g, x] = 1 for every x in elements."""
    return _pullback(group, [group.comm_with_perm(x) for x in elements],
                     Subgroup.trivial(group))


def _pullback(group: ConcreteGroup, comms, sub: Subgroup) -> Subgroup:
    """The g whose images comm[g] all lie in sub, over the maps in comms."""
    member = np.zeros(group.size, dtype=bool)
    member[list(sub.elements)] = True
    keep = np.ones(group.size, dtype=bool)
    for c in comms:
        keep &= member[c]
    return Subgroup.from_elements(group, group._ints[np.flatnonzero(keep)].tolist())


def exponent(g) -> int:
    sub = _as_subgroup(g)
    return lcm(*(sub.group.element_order(e) for e in sub.elements))


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@_memoized
def frattini_p_group(group: ConcreteGroup, p: int) -> Subgroup:
    """Frattini subgroup of a finite p-group: the normal closure of the
    generator commutators together with generator p-th powers."""
    facs = factorize(group.size)
    if group.size > 1 and (len(facs) != 1 or p not in facs):
        raise GroupError(f"group order {group.size} is not a power of {p}")
    gens = group.generator_elements()
    cand = [group.comm(a, b) for i, a in enumerate(gens) for b in gens[i + 1:]]
    cand += [group.power(a, p) for a in gens]
    return normal_closure(cand, group)


def sylow_decomposition(group: ConcreteGroup) -> list[tuple[int, Subgroup]]:
    """Sylow parts of a nilpotent group, one per prime, as subgroups.

    With p^a the full power of p dividing |G|, the p-part is every x
    with x^(p^a) = 1, found by one power_batch over the whole group; in
    a nilpotent group these elements form the Sylow p-subgroup."""
    if nilpotency_class(group) is None:
        raise GroupError("group is not nilpotent; Sylow parts do not decompose it")
    every = np.arange(group.size)
    parts = []
    for p, a in sorted(factorize(group.size).items()):
        elems = group._ints[group.power_batch(every, p ** a) == 0].tolist()
        parts.append((p, Subgroup.from_elements(group, elems)))
    sizes = 1
    for _, s in parts:
        sizes *= s.size
    if sizes != group.size:
        raise GroupError("sylow parts do not multiply to the group order")
    return parts


# The largest direct product built, a guard on the columns' memory.
MAX_PRODUCT_ORDER = 200_000


def direct_product(g: ConcreteGroup, h: ConcreteGroup) -> ConcreteGroup:
    """Direct product with componentwise action.

    Element a*m + b (m = |h|) is the pair (a, b).  Each letter moves one
    coordinate, so its column is the factor's column, repeated or tiled
    over the other coordinate.  The result's meta carries the two factors
    under "factors" and "embed_left"/"embed_right" index maps for the
    canonical embeddings, and generators are the factor generators (right
    factor names suffixed on collision)."""
    n, m = g.size, h.size
    if n * m > MAX_PRODUCT_ORDER:
        raise GroupError(
            f"product order {n * m} exceeds the limit {MAX_PRODUCT_ORDER}")
    left = (np.repeat(g._npcols[:len(g.cols)] * m, m, axis=1)
            + np.tile(np.arange(m), n))
    right = np.repeat(np.arange(n) * m, m) + np.tile(h._npcols[:len(h.cols)], n)
    left_names = list(g.gen_names)
    right_names = []
    for name in h.gen_names:
        new = name
        while new in left_names or new in right_names:
            new += "_2"
        right_names.append(new)
    names = tuple(left_names + right_names)

    meta = {
        "embed_left": tuple(range(0, n * m, m)),
        "embed_right": tuple(range(m)),
        "factors": (g, h),
    }
    return ConcreteGroup(np.vstack((left, right)), gen_names=names, meta=meta)


def quotient(group: ConcreteGroup, n: Subgroup) -> ConcreteGroup:
    """The group on cosets of a normal subgroup, with the induced action.

    Coset ids are assigned in order of least member, so the identity
    coset is 0 and the numbering is deterministic.  Each coset is filled
    by one mult_batch of the subgroup's elements by its least member."""
    if n.group is not group:
        raise GroupError("subgroup belongs to a different group")
    if not is_normal_in(n, group):
        raise GroupError("subgroup is not normal; quotient undefined")
    members = np.array(n.elements)
    coset_of = np.full(group.size, -1)
    reps = []
    while (free := np.flatnonzero(coset_of < 0)).size:
        coset_of[group.mult_batch(members, free[0])] = len(reps)
        reps.append(free[0])
    reps = np.array(reps)
    cols = []
    for g in group.generator_elements():
        fwd = coset_of[group.mult_batch(reps, g)]
        cols += [fwd, np.argsort(fwd)]
    return ConcreteGroup(cols, gen_names=group.gen_names)
