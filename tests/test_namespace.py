"""The `tdmc` namespace is the union of its modules' `__all__` lists."""

from __future__ import annotations

import tdmc
from tdmc import cohomology, errors, groups, modcat, twisted_algebra, verification

REEXPORTED = [groups, cohomology, twisted_algebra, modcat, verification, errors]

# the names `tdmc` exported when its own module listed them by hand
LISTED = [
    "__version__",
    "FiniteGroup", "Subgroup", "DirectSquare", "builtin_names", "group_from_spec",
    "subgroups_up_to_conjugacy", "direct_square_with_diagonal", "double_cosets",
    "orbit_decomposition",
    "Cochain", "CohomologyGroup", "coboundary", "is_cocycle", "restrict", "pullback",
    "build_tilde_omega", "cohomology_mod", "cohomology_cstar", "is_trivial_over_cstar",
    "solve_trivialization",
    "projective_irrep_count",
    "AmbientContext", "DoubleContext", "PairHPsi", "RankBreakdown", "ClassificationReport",
    "double_context", "make_pair", "diagonal_pair", "transport_pair", "bimodule_rank",
    "module_rank_double", "classify_class", "classify_pairs", "pair_from_coords",
    "is_fiber_functor", "fiber_functors",
    "census_labels", "verify_reference_tables",
    "TdmcError", "NonAssociative", "NotAGroup", "UnknownBuiltin", "SizeBound",
    "ElementOutOfRange", "NotASubgroup", "WrongAmbient", "DegreeOverflow", "NotACocycle",
    "NotTrivializing", "FormulaNotClosed", "InvariantViolated", "BadGroupSpec", "UsageError",
]

ADDED = {
    "CheckItem", "CheckSection", "ClassEntry", "OrbitDecomposition", "PairEntry", "RankRow",
    "SubgroupClass", "TildeOmega", "find_isomorphism", "load_reference", "max_group_order",
    "small_generating_set",
}


def test_namespace_is_the_modules_all():
    assert len(LISTED) == 55  # __version__ and 54 module names
    assert tdmc.__all__ == ["__version__"] + [n for m in REEXPORTED for n in m.__all__]
    assert len(set(tdmc.__all__)) == len(tdmc.__all__)
    assert set(LISTED) <= set(tdmc.__all__)
    assert set(tdmc.__all__) - set(LISTED) == ADDED
    for module in REEXPORTED:
        for name in module.__all__:
            assert getattr(tdmc, name) is getattr(module, name), name


def test_linalg_stays_out_of_the_namespace():
    from tdmc import linalg

    assert tdmc.linalg is linalg
    assert not set(linalg.__all__) & set(tdmc.__all__)
