"""baerkit: realize finitely presented finite groups and measure how far
their cyclic subgroups are from normality.

The pipeline: parse a presentation, enumerate cosets over the cyclic
subgroup of its first generator, lift that table to the regular action
and number the elements canonically, then compute subnormality defects,
the T_n subgroups they generate, Engel identities, and the structural
checks the verification suite runs over a corpus of benchmark groups.
"""

from .coset import DEFAULT_MAX_COSETS, CosetTable, EnumerationLimitError, enumerate_cosets, to_group
from .core import (
    ConcreteGroup,
    GroupError,
    Subgroup,
    center,
    centralizer,
    derived_length,
    derived_series,
    derived_subgroup,
    direct_product,
    exponent,
    factorize,
    frattini_p_group,
    is_metabelian,
    lower_central_series,
    nilpotency_class,
    normal_closure,
    quotient,
    sylow_decomposition,
    upper_central_series,
)
from .engel import (
    EngelReport,
    IdentityCheck,
    check_expansion_formula,
    check_metabelian_identities,
    engel_bracket,
    is_left_n_engel,
    is_n_engel_group,
)
from .presentation import (
    GroupPresentation,
    PresentationError,
    WordLimitError,
    Word,
    commutator_word,
    parse_presentation,
    parse_word,
    word,
)
from .subnormal import (
    DefectResult,
    ClassificationReport,
    all_subgroups,
    brute_force_defect,
    classify,
    cyclic_defect,
    defect,
    is_n_subnormal,
    t_n_subgroup,
    t_n_within,
)
from .verify import (
    CorpusEntry,
    TheoremCheck,
    build_class3_p_group,
    build_class4_2group,
    build_group,
    default_corpus,
    run_example_checks,
    run_full_suite,
    two_subnormal_congruence,
)

__version__ = "0.1.0"
