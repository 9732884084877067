"""Engel element tests and commutator expansion identities.

All brackets are left normed: [x, y, z] means [[x, y], z] and
[x, n*y] abbreviates [x, y, ..., y] with n copies of y.  The workhorse
is ConcreteGroup.comm_with_perm, which tabulates x -> [x, y] for a
fixed y with the one BFS-tree fill of core (ConcreteGroup._along_tree);
applying that table n times computes [x, n*y] for every x at once, so
Engel conditions reduce to a few vectorized passes per y.  A group of
nilpotency class c is n-Engel for every n >= c, so such questions are
answered from the (memoized) class with no table at all; below the
class, each question iterates y's table afresh.

The identity checks and engel_bracket run on core's batched arithmetic
(ConcreteGroup.mult_batch and friends) over all input tuples at once; a
failure is reported at the first tuple, in input order, that fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb, prod

import numpy as np

from .core import (
    ConcreteGroup,
    GroupError,
    derived_subgroup,
    is_metabelian,
    nilpotency_class,
)

__all__ = [
    "EngelReport",
    "IdentityCheck",
    "engel_bracket",
    "is_left_n_engel",
    "is_n_engel_group",
    "check_metabelian_identities",
    "check_expansion_formula",
]

_EXHAUSTIVE_EVALS = 20_000

# Largest group order on which check_expansion_formula tries every pair.
EXPANSION_EXHAUSTIVE_ORDER = 64


def _inputs(rng: random.Random, pools, trials: int,
            limit: int) -> tuple[np.ndarray, str]:
    """The input tuples an identity check runs on, as an int64 array of
    columns (one row per pool, one column per tuple), and its mode.

    Every tuple of the product of the pools, in itertools.product
    order ("exhaustive"), when there are at most `limit` of them;
    otherwise `trials` tuples whose entries are drawn from their pools
    in order with `rng.choice` ("sampled").  Pools are sequences, so a
    pool `range(n)` draws what `rng.randrange(n)` would."""
    if prod(len(pool) for pool in pools) <= limit:
        axes = [np.asarray(pool, dtype=np.int64) for pool in pools]
        grids = np.meshgrid(*axes, indexing="ij", copy=False)
        return np.stack(grids).reshape(len(pools), -1), "exhaustive"
    draws = [rng.choice(pool) for _ in range(trials) for pool in pools]
    cols = np.array(draws, dtype=np.int64).reshape(trials, len(pools)).T
    return cols, "sampled"


@dataclass(frozen=True)
class EngelReport:
    """Outcome of an Engel test for one element or the whole group."""

    kind: str
    n: int
    holds: bool
    subject: str = "group"
    witness: tuple[str, str] | None = None

    def __str__(self) -> str:
        verdict = "holds" if self.holds else f"fails at {self.witness}"
        return f"{self.kind} {self.n}-Engel for {self.subject} {verdict}"


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one identity, with a witness when it fails.

    holds is None when the identity's hypothesis does not apply to the
    group, in which case mode is "skipped" and the note says why.
    """

    name: str
    holds: bool | None
    mode: str
    trials: int
    witness: str | None = None
    note: str | None = None


def engel_bracket(group: ConcreteGroup, x, y, n: int):
    """[x, y, y, ..., y] with n copies of y, elementwise over index
    arrays (or single elements)."""
    if n < 1:
        raise GroupError("bracket needs at least one copy of y")
    for _ in range(n):
        x = group.comm_batch(x, y)
    return x


def _left_engel_witness(group: ConcreteGroup, y: int, n: int) -> int | None:
    """The least g with [g, n*y] != 1, or None when y is left n-Engel.

    In a group of class c <= n, [g, n*y] lies in gamma_(n+1)(G) = 1, so
    the (memoized) class answers with no table.  Otherwise y's bracket
    table, applied n times, gives [g, n*y] for every g at once."""
    cls = nilpotency_class(group)
    if cls is not None and cls <= n:
        return None
    perm = cur = group.comm_with_perm(y)
    for _ in range(n - 1):
        cur = perm[cur]
    bad = np.flatnonzero(cur)
    return int(bad[0]) if bad.size else None


def is_left_n_engel(group: ConcreteGroup, x: int, n: int) -> EngelReport:
    """Whether [g, x, ..., x] = 1 (n copies of x) for every g.

    One bracket table for x answers the question for all g at once, so
    this is exhaustive at any group size; the witness of a failure is
    the least failing g."""
    if n < 1:
        raise GroupError("n must be at least 1")
    subject = str(group.element_word(x))
    g = _left_engel_witness(group, x, n)
    if g is None:
        return EngelReport("left", n, True, subject)
    return EngelReport("left", n, False, subject,
                       (str(group.element_word(g)), subject))


def is_n_engel_group(group: ConcreteGroup, n: int) -> EngelReport:
    """Whether [x, y, ..., y] = 1 (n copies of y) for all x and y.

    A group of nilpotency class at most n holds with no bracket table
    (see _left_engel_witness).  Otherwise y runs over class
    representatives only, which decides the same question: [x, n*(y^h)]
    = [x^(h^-1), n*y]^h and x^(h^-1) ranges over the whole group as x
    does; the witness of a failure is the least failing x for the first
    failing representative."""
    if n < 1:
        raise GroupError("n must be at least 1")
    for y in group.class_reps():
        x = _left_engel_witness(group, y, n)
        if x is not None:
            witness = (str(group.element_word(x)), str(group.element_word(y)))
            return EngelReport("group", n, False, witness=witness)
    return EngelReport("group", n, True)


# -- identity checks ---------------------------------------------------------


def _pair_words(group: ConcreteGroup, *elems: int) -> str:
    return ", ".join(str(group.element_word(e)) for e in elems)


def _identity(group: ConcreteGroup, name: str, mismatch, rng: random.Random,
              pools, trials: int, label: str | None = None) -> IdentityCheck:
    """One identity over the input tuples of `pools`, evaluated at once:
    mismatch(*columns) masks the tuples whose sides differ.  With a
    label, the last pool is a per-tuple n or m, and mismatch gets the
    tuples sharing each value, then the value.  The witness is the first
    masked tuple, the one a loop over the tuples in order stops at."""
    cols, mode = _inputs(rng, pools, trials, _EXHAUSTIVE_EVALS)
    count = cols.shape[1]
    if label is None:
        bad = mismatch(*cols)
    else:
        bad = np.zeros(count, dtype=bool)
        for v in set(pools[-1]):
            sel = cols[-1] == v
            bad[sel] = mismatch(*(c[sel] for c in cols[:-1]), v)
    witness = None
    if bad.any():
        t = cols[:, int(np.argmax(bad))].tolist()
        witness = (_pair_words(group, *t) if label is None else
                   _pair_words(group, *t[:-1]) + f", {label}={t[-1]}")
    return IdentityCheck(name, witness is None, mode, count, witness)


def check_metabelian_identities(
    group: ConcreteGroup,
    trials: int = 200,
    seed: int = 0,
) -> list[IdentityCheck]:
    """Identities valid in metabelian groups, checked on the group.

    Three families: commuting entries past the first slot
    ([c, x, y] = [c, y, x] for c in the derived subgroup), the product
    expansion [x*y, n*z] = [x, n*z] [x, n*z, y] [y, n*z] for n = 1, 2, 3,
    and, when the nilpotency class is at most 3, power extraction from
    any slot ([x^m, y, z] = [x, y^m, z] = [x, y, z^m] = [x, y, z]^m).  Each
    family enumerates all inputs when that is cheap and otherwise
    samples with the seeded generator.
    """
    if not is_metabelian(group):
        raise GroupError("group is not metabelian; these identities need not hold")
    rng = random.Random(seed)
    mult, comm, power = group.mult_batch, group.comm_batch, group.power_batch
    elems = range(group.size)

    def swap_rule(c, x, y):
        return comm(comm(c, x), y) != comm(comm(c, y), x)

    def product_rule(x, y, z, n):
        xz = engel_bracket(group, x, z, n)
        rhs = mult(mult(xz, comm(xz, y)), engel_bracket(group, y, z, n))
        return engel_bracket(group, mult(x, y), z, n) != rhs

    def power_rule(x, y, z, m):
        xy = comm(x, y)
        want = power(comm(xy, z), m)
        return ((comm(comm(power(x, m), y), z) != want)
                | (comm(comm(x, power(y, m)), z) != want)
                | (comm(xy, power(z, m)) != want))

    derived = derived_subgroup(group).elements
    checks = [
        _identity(group, "swap-entries-after-first", swap_rule, rng,
                  (derived, elems, elems), trials),
        _identity(group, "product-in-first-slot", product_rule, rng,
                  (elems, elems, elems, (1, 2, 3)), trials, "n"),
    ]
    cls = nilpotency_class(group)
    if cls is None or cls > 3:
        checks.append(IdentityCheck(
            "power-in-any-slot", None, "skipped", 0,
            note=f"needs nilpotency class at most 3, group has {cls}"))
    else:
        checks.append(_identity(group, "power-in-any-slot", power_rule, rng,
                                (elems, elems, elems, (-2, -1, 2, 3, 5)),
                                trials, "m"))
    return checks


def _expansion_holds(group: ConcreteGroup, x, y, n_values) -> list:
    """Per n in n_values, the mask of pairs (x, y) (index arrays) where
    (x*y^-1)^n equals its predicted expansion.

    The prediction is x^n * prod B(i,j)^C(n, i+j+1) * y^-n, the product
    over i >= 1, j >= 0 with 0 < i+j < n taken with i outer and j inner,
    where B(i,j) is the left-normed bracket [x, i*y, j*x].  Every factor
    is a commutator, so the product lands in the derived subgroup; that
    subgroup is abelian in the groups this applies to, which is why no
    factor order needs to be fixed.

    The brackets do not depend on n and are built once, stacked by
    weight i+j: those of weight k are one comm_batch of those of weight
    k-1 (B(i,j) = [B(i,j-1), x] and B(k,0) = [B(k-1,0), y]).  For each
    n, each weight is powered in one power_batch, since its brackets
    share the exponent C(n, k+1).  x^n, y^-n and (x*y^-1)^n are stacked
    too, one mult_batch taking them from n-1 to n; an n below 1 takes
    power_batch.  The factors are still multiplied one by one in the
    order above, so every value is the element that evaluating the
    formula factor by factor gives, in any group.
    """
    mult, comm, power = group.mult_batch, group.comm_batch, group.power_batch
    top = max(n_values, default=0)
    # weights[k - 1][i - 1] is B(i, k - i).
    weights = [comm(x, y)[None]]
    for k in range(2, top):
        weights.append(comm(weights[-1][[*range(k - 1), k - 2]],
                            np.stack([x] * (k - 1) + [y])))
    y_inv = power(y, -1)
    step = np.stack([x, y_inv, mult(x, y_inv)])
    sides = [step]
    for _ in range(1, top):
        sides.append(mult(sides[-1], step))

    def holds(n):
        x_n, y_n, xy_n = sides[n - 1] if n >= 1 else power(step, n)
        powered = [power(weights[k - 1], comb(n, k + 1)) for k in range(1, n)]
        rhs = x_n
        for i in range(1, n):
            for j in range(n - i):
                rhs = mult(rhs, powered[i + j - 1][i - 1])
        return xy_n == mult(rhs, y_n)

    return [holds(n) for n in n_values]


def check_expansion_formula(
    group: ConcreteGroup,
    n_values: tuple[int, ...] = (1, 2, 3, 4, 5, 6),
    trials: int = 200,
    seed: int = 0,
    exhaustive_order_bound: int = EXPANSION_EXHAUSTIVE_ORDER,
) -> list[IdentityCheck]:
    """The metabelian power expansion of (x*y^-1)^n, one check per n.

    Every pair (x, y) is tried when the group order is within the
    exhaustive bound; larger groups get sampled pairs from the seeded
    generator.
    """
    if not is_metabelian(group):
        raise GroupError("group is not metabelian; the expansion needs not hold")
    elems = range(group.size)
    pairs, mode = _inputs(random.Random(seed), (elems, elems), trials,
                          exhaustive_order_bound ** 2)
    checks = []
    for n, ok in zip(n_values, _expansion_holds(group, *pairs, n_values)):
        # The first False in ok is the first failing pair in input order.
        witness = (None if ok.all() else
                   _pair_words(group, *pairs[:, int(np.argmin(ok))].tolist()))
        checks.append(IdentityCheck(f"power-expansion-n{n}", witness is None,
                                    mode, pairs.shape[1], witness))
    return checks
