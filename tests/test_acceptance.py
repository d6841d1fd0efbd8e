"""Acceptance gate: one test per top-level criterion, with pinned budgets.

Every expected number here is frozen from the published tables for the
symmetric group on three letters; runtimes are wall-clock budgets measured
around fresh computations.
"""

from __future__ import annotations

import itertools
from time import perf_counter

import pytest

import tdmc
from tdmc.cohomology import Cochain, coboundary, cohomology_cstar
from tdmc.groups import (
    direct_square_with_diagonal,
    group_from_spec,
    subgroups_up_to_conjugacy,
)
from tdmc.modcat import (
    _psi_double,
    bimodule_rank,
    classify_pairs,
    diagonal_pair,
    double_context,
    fiber_functors,
    module_rank_double,
    transport_pair,
)
from tdmc.twisted_algebra import projective_irrep_count
from tdmc.verification import census_labels

from oracles import center_dimension_oracle, centralizer, conjugacy_classes

ORDERS = {
    "H1": 1, "H2": 2, "H3": 2, "H4": 2, "H5": 3, "H6": 3, "H7": 3, "H8": 4,
    "H9": 6, "H10": 6, "H11": 6, "H12": 6, "H13": 6, "H14": 9, "H15": 12,
    "H16": 12, "H17": 18, "H18": 18, "H19": 18, "H20": 36, "H21": 6, "H22": 6,
}
H2_CSTAR = {
    "H8": [2], "H15": [2], "H16": [2], "H20": [2], "H14": [3], "H19": [3],
}
COSETS_AND_RANK = {
    "H1": (6, 6), "H2": (3, 3), "H3": (3, 3), "H4": (4, 6), "H5": (2, 2),
    "H6": (2, 2), "H7": (4, 10), "H8": (2, 3), "H9": (1, 1), "H10": (1, 1),
    "H11": (3, 8), "H12": (1, 1), "H13": (1, 1), "H14": (2, 6), "H15": (1, 2),
    "H16": (1, 2), "H17": (1, 3), "H18": (1, 3), "H19": (2, 6), "H20": (1, 3),
    "H21": (2, 4), "H22": (2, 4),
}
DUAL_RANKS = {
    "H1": [36], "H2": [18], "H3": [18], "H4": [12], "H5": [36], "H6": [36],
    "H7": [20], "H8": [9, 9], "H9": [18], "H10": [18], "H11": [8],
    "H12": [18], "H13": [18], "H14": [36, 20], "H15": [9, 9], "H16": [9, 9],
    "H17": [18], "H18": [18], "H19": [12, 8], "H20": [9, 9], "H21": [12],
    "H22": [12],
}
ADMISSIBLE = {
    0: set(ORDERS),
    1: {"H1", "H4", "H7", "H11"},
    2: {"H1", "H2", "H3", "H4", "H7", "H8", "H11"},
    3: {"H1", "H4", "H5", "H6", "H7", "H11", "H14", "H19", "H21", "H22"},
}
ADMISSIBLE[4] = ADMISSIBLE[2]
ADMISSIBLE[5] = ADMISSIBLE[1]
PAIR_COUNTS = {0: 28, 1: 4, 2: 8, 3: 12, 4: 8, 5: 4}
FIBER_CLASSES = {"H9", "H10", "H12", "H13"}


@pytest.fixture(scope="module")
def s3():
    return group_from_spec("S3")


@pytest.fixture(scope="module")
def classified(s3):
    """Contexts and classification reports for every twist, timed fresh."""
    t0 = perf_counter()
    ctxs = {k: double_context(s3, k) for k in range(6)}
    reports = {k: classify_pairs(ctxs[k]) for k in range(6)}
    elapsed = perf_counter() - t0
    return ctxs, reports, elapsed


@pytest.fixture(scope="module")
def labels(classified):
    ctxs, _, _ = classified
    got = census_labels(ctxs[0])
    assert got is not None
    return got


def test_criterion_1_subgroup_census(s3, labels):
    t0 = perf_counter()
    square = direct_square_with_diagonal(s3)
    census = subgroups_up_to_conjugacy(square.group)
    elapsed = perf_counter() - t0
    assert len(census) == 22
    for ci, cls in enumerate(census):
        label = labels[ci]
        assert cls.rep.order == ORDERS[label], label
        got = list(cohomology_cstar(cls.rep.as_group, 2).invariant_factors)
        assert got == H2_CSTAR.get(label, []), label
    assert elapsed < 5.0


def test_criterion_2_cohomology(s3):
    t0 = perf_counter()
    deg3 = cohomology_cstar(s3, 3)
    deg2 = cohomology_cstar(s3, 2)
    elapsed = perf_counter() - t0
    assert list(deg3.invariant_factors) == [6]
    assert list(deg2.invariant_factors) == []
    assert elapsed < 5.0


def test_criterion_3_classification_counts(classified, labels):
    _, reports, elapsed = classified
    for k in range(6):
        report = reports[k]
        assert report.census_size == 22
        got = {labels[e.index] for e in report.entries}
        assert got == ADMISSIBLE[k], f"k={k}"
        assert report.total_pairs == PAIR_COUNTS[k], f"k={k}"
    assert elapsed < 60.0


def test_criterion_4_rank_tables(classified, labels):
    _, reports, _ = classified
    baseline = {}
    for e in reports[0].entries:
        label = labels[e.index]
        shapes = {(len(pe.breakdown.rows), pe.breakdown.total) for pe in e.pairs}
        assert shapes == {COSETS_AND_RANK[label]}, label
        baseline[e.index] = sorted(
            (len(pe.breakdown.rows), pe.breakdown.total) for pe in e.pairs
        )
    # ranks do not move when the 3-cocycle changes, class by class
    for k in range(1, 6):
        for e in reports[k].entries:
            got = sorted(
                (len(pe.breakdown.rows), pe.breakdown.total) for pe in e.pairs
            )
            assert got == baseline[e.index], f"k={k}, {labels[e.index]}"


def test_criterion_5_dual_ranks(classified, labels):
    ctxs, reports, _ = classified
    for e in reports[0].entries:
        label = labels[e.index]
        got = [bimodule_rank(ctxs[0], pe.pair, pe.pair).total for pe in e.pairs]
        assert got == DUAL_RANKS[label], label
    assert sum(len(v) for v in DUAL_RANKS.values()) == 28


def test_criterion_6_fiber_functors(classified, labels):
    ctxs, reports, _ = classified
    found = fiber_functors(ctxs[0], reports[0])
    ids = {id(pe) for pe in found}
    got = {
        labels[e.index]
        for e in reports[0].entries
        for pe in e.pairs
        if id(pe) in ids
    }
    assert got == FIBER_CLASSES
    assert all(pe.coords == () for pe in found)
    assert all(pe.breakdown.total == 1 for pe in found)
    for k in range(1, 6):
        assert fiber_functors(ctxs[k], reports[k]) == []


def test_criterion_7_property_suites(s3, classified):
    ctxs, reports, _ = classified
    t0 = perf_counter()

    # d after d kills every normalized basis cochain: exhaustive by linearity
    import numpy as np

    for G in (group_from_spec("Z2"), group_from_spec("Z2xZ2"), s3):
        M = 2 * G.order
        for degree in (1, 2):
            shape = (G.order,) * degree
            for pos in itertools.product(range(1, G.order), repeat=degree):
                arr = np.zeros(shape, dtype=np.int64)
                arr[pos] = 1
                f = Cochain(G, degree, M, arr)
                assert coboundary(coboundary(f)).is_zero()

    # local-cocycle closure for every classified pair at every twist
    for k in (0, 3):
        ctx = ctxs[k]
        for e in reports[k].entries:
            for pe in e.pairs:
                for row in pe.breakdown.rows:
                    stab, coc = _psi_double(ctx, row.representative, pe.pair)
                    assert coc.same_values(row.cocycle)

    # shifting omega by a coboundary does not change the classification
    chi_vals = np.zeros((6, 6), dtype=np.int64)
    chi_vals[1, 3] = 2
    chi_vals[4, 2] = 5
    chi_vals[2, 5] = 1
    chi = Cochain(s3, 2, 6, chi_vals)
    gen = cohomology_cstar(s3, 3).generators[0]
    shifted = double_context(s3, omega=gen + coboundary(chi))
    shifted_report = classify_pairs(shifted)
    want = [
        (e.index, [(pe.coords, pe.breakdown.total) for pe in e.pairs])
        for e in reports[1].entries
    ]
    got = [
        (e.index, [(pe.coords, pe.breakdown.total) for pe in e.pairs])
        for e in shifted_report.entries
    ]
    assert got == want

    # rank is independent of the chosen class representative
    for k in (0, 3):
        ctx = ctxs[k]
        for e in reports[k].entries[:6]:
            for pe in e.pairs:
                for g in (1, 7, 23):
                    moved = transport_pair(ctx, pe.pair, g)
                    assert module_rank_double(ctx, moved).total == pe.breakdown.total

    # the orbit recipe agrees with the two-sided recipe against the diagonal
    base = diagonal_pair(ctxs[0])
    for e in reports[0].entries:
        for pe in e.pairs:
            two_sided = bimodule_rank(ctxs[0], base, pe.pair)
            assert two_sided.total == pe.breakdown.total

    # irreducible counts match the numeric center oracle on every stabilizer
    # arising at this scale, with its actual local cocycle
    for k in (0, 3):
        for e in reports[k].entries:
            for pe in e.pairs:
                for row in pe.breakdown.rows:
                    psi = row.cocycle
                    assert projective_irrep_count(psi) == center_dimension_oracle(psi)
                    assert projective_irrep_count(psi) == row.count

    # ... and on the two elementary squares for every cocycle class
    for name in ("Z2xZ2", "Z3"):
        G = group_from_spec(name)
        if name == "Z3":
            G = direct_square_with_diagonal(G).group
        h2 = cohomology_cstar(G, 2)
        gens = h2.generators
        for coords in itertools.product(*(range(f) for f in h2.invariant_factors)):
            acc = Cochain.zero(G, 2, gens[0].modulus if gens else G.order)
            for t, g in zip(coords, gens):
                acc = acc + g.scale(t)
            assert projective_irrep_count(acc) == center_dimension_oracle(acc)

    # untwisted diagonal identity: rank = sum over classes of centralizer
    # irreducible counts
    for name in ("Z2", "Z3", "Z4", "Z2xZ2", "S3"):
        G = group_from_spec(name)
        ctx = double_context(G, 0)
        rank = module_rank_double(ctx, diagonal_pair(ctx)).total
        want = sum(
            len(conjugacy_classes(centralizer(G, cls[0]).as_group))
            for cls in conjugacy_classes(G)
        )
        assert rank == want, name

    assert perf_counter() - t0 < 300.0


def test_criterion_8_modular_invariants_out_of_scope():
    # The conjectural modular-invariant assignment needs S/T-matrix data this
    # artifact does not model; it is deliberately absent from the API.
    assert not any("modular" in name.lower() for name in dir(tdmc))
    assert not any("modular" in name.lower() for name in tdmc.__all__)
