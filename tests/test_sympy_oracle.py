"""Differential tests against SymPy, an enumerator written independently
of baerkit.  SymPy is not a dependency: without it these tests skip."""

import pytest

from baerkit.presentation import parse_presentation
from baerkit.verify import (
    build_group,
    class3_p_group_presentation,
    dihedral_presentation,
    quaternion_presentation,
    symmetric_presentation,
)

sympy_coset_table = pytest.importorskip("sympy.combinatorics.coset_table")
from sympy.combinatorics.fp_groups import FpGroup  # noqa: E402
from sympy.combinatorics.free_groups import free_group  # noqa: E402


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
