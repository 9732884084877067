"""Differential tests against SymPy, an enumerator written independently
of baerkit.  SymPy is not a dependency: without it these tests skip."""

import random

import numpy as np
import pytest

from baerkit.core import Subgroup, normal_closure
from baerkit.presentation import parse_presentation
from baerkit.verify import (
    alternating4_presentation,
    build_group,
    class3_p_group_presentation,
    class4_2group_presentation,
    dihedral_presentation,
    quaternion_presentation,
    symmetric_presentation,
)

sympy_coset_table = pytest.importorskip("sympy.combinatorics.coset_table")
from sympy.combinatorics.fp_groups import FpGroup  # noqa: E402
from sympy.combinatorics.free_groups import free_group  # noqa: E402
from sympy.combinatorics.perm_groups import PermutationGroup  # noqa: E402
from sympy.combinatorics.permutations import Permutation  # noqa: E402


def _sympy_group(text):
    pres = parse_presentation(text)
    free, *gens = free_group(",".join(pres.generators))
    by_name = dict(zip(pres.generators, gens))

    def element(word):
        out = free.identity
        for g, e in word.syllables:
            out = out * by_name[g] ** e
        return out

    return FpGroup(free, [element(r) for r in pres.relators])


@pytest.mark.parametrize("text", [
    symmetric_presentation(4),
    dihedral_presentation(16),
    quaternion_presentation(),
    class3_p_group_presentation(2),
])
def test_columns_equal_sympys_standardized_felsch_table(text):
    # SymPy's table has one row per coset and one column per letter
    # x, x^-1, y, y^-1, ..., the layout of ConcreteGroup.cols transposed.
    table = sympy_coset_table.coset_enumeration_c(_sympy_group(text), [])
    table.compress()
    table.standardize()
    assert build_group(text).cols == [list(col) for col in zip(*table.table)]


@pytest.mark.parametrize("text", [
    symmetric_presentation(4),
    alternating4_presentation(),
    dihedral_presentation(16),
    class4_2group_presentation(),
    class3_p_group_presentation(2),
    class3_p_group_presentation(3),
], ids=["s4", "a4", "d16", "class4-2group", "class3-p2", "class3-p3"])
def test_closure_orders_match_sympy(text):
    # Each element e acts on the group's indices by x -> x*e, and SymPy's
    # Schreier-Sims orders the permutation groups these actions generate.
    group = build_group(text)
    points = np.arange(group.size)

    def perms(elements):
        return [Permutation(group.mult_batch(points, e).tolist())
                for e in elements]

    whole = PermutationGroup(perms(group.generator_elements()))
    assert whole.order() == group.size
    rng = random.Random(f"sympy-closures:{text}")
    for arity in (2, 3):
        for _ in range(6):
            gens = [rng.randrange(group.size) for _ in range(arity)]
            sub = PermutationGroup(perms(gens))
            assert Subgroup.generated(group, gens).size == sub.order(), gens
            assert (normal_closure(gens, group).size
                    == whole.normal_closure(sub).order()), gens
