"""Each identity the classification guarantees is checked with a typed error.

Every test breaks one guaranteed identity on purpose (a patched helper, a
forged census class or report, a cocycle check patched to pass) and
expects InvariantViolated naming the orders involved.  None of these checks
may be an assert, so the suite is also run under python -O.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import numpy as np
import pytest

from tdmc import modcat
from tdmc.cohomology import Cochain
from tdmc.errors import InvariantViolated
from tdmc.groups import Subgroup, SubgroupClass, group_from_spec, subgroups_up_to_conjugacy
from tdmc.modcat import (
    RankBreakdown,
    classify_class,
    classify_pairs,
    diagonal_pair,
    double_context,
    fiber_functors,
    module_rank_double,
)
from tdmc.twisted_algebra import projective_irrep_count


@lru_cache(maxsize=None)
def _s3_untwisted():
    ctx = double_context(group_from_spec("S3"), 0)
    return ctx, subgroups_up_to_conjugacy(ctx.ambient)


def _order4_class():
    """The census class of order 4 (H^2 = Z/2, not normal in S3 x S3)."""
    ctx, census = _s3_untwisted()
    index = next(i for i, c in enumerate(census) if c.rep.order == 4)
    return ctx, census[index], index


def test_module_rank_double_stabilizer_mismatch(monkeypatch):
    ctx, _ = _s3_untwisted()
    real = modcat.orbit_decomposition

    def trivial_stabilizers(G, H):
        dec = real(G, H)
        return dataclasses.replace(
            dec, stabilizers=[Subgroup(G, [0]) for _ in dec.stabilizers]
        )

    monkeypatch.setattr(modcat, "orbit_decomposition", trivial_stabilizers)
    with pytest.raises(
        InvariantViolated, match=r"orbit representative 0 of the order-6 subgroup"
    ):
        module_rank_double(ctx, diagonal_pair(ctx))
    # the orbit rows shared by the pairs on a class run the same check; the first
    # class with a nontrivial stabilizer is {(e, e), (s, s)}, s = element 1
    with pytest.raises(
        InvariantViolated,
        match=r"orbit representative 0 of the order-2 subgroup \[0, 7\]: "
        r"stabilizer of order 2 differs from the orbit decomposition's \(1\)",
    ):
        classify_pairs(ctx)


def test_fold_generator_must_read_back_as_unit(monkeypatch):
    ctx, cls, index = _order4_class()
    real = modcat.cohomology_cstar

    def zero_lookup(G, n):
        h = real(G, n)
        return dataclasses.replace(h, lookup=lambda f: (0,) * len(h.invariant_factors))

    monkeypatch.setattr(modcat, "cohomology_cstar", zero_lookup)
    with pytest.raises(
        InvariantViolated,
        match=r"generator 0 reads back as \(0,\), not \(1,\) "
        r"\(subgroup of order 4, representative \[",
    ):
        classify_class(ctx, cls, index)


def test_fold_normalizer_must_normalize():
    ctx, cls, index = _order4_class()
    whole = Subgroup(ctx.ambient, range(ctx.ambient.order))
    forged = SubgroupClass(rep=cls.rep, class_size=1, normalizer=whole)
    with pytest.raises(
        InvariantViolated,
        match=r"normalizer element \d+ does not normalize the subgroup of order 4",
    ):
        classify_class(ctx, forged, index)


def test_fold_action_must_permute_classes(monkeypatch):
    ctx, cls, index = _order4_class()
    real = modcat._relabelled

    def collapse(H, moved, n, values):
        # every relabelled cochain is zero, so L_n = 0 and every point of the
        # torsor goes where psi0 was sent; omega = 0 keeps the transport closed
        return np.zeros_like(real(H, moved, n, values))

    monkeypatch.setattr(modcat, "_relabelled", collapse)
    with pytest.raises(
        InvariantViolated,
        match=r"does not permute the 2 C\*-classes of trivializations "
        r"\(subgroup of order 4",
    ):
        classify_class(ctx, cls, index)


def _forged_breakdowns(report, forge):
    """The report with every pair's rank breakdown replaced by forge(breakdown)."""
    return dataclasses.replace(
        report,
        entries=tuple(
            dataclasses.replace(
                e,
                pairs=tuple(
                    dataclasses.replace(pe, breakdown=forge(pe.breakdown))
                    for pe in e.pairs
                ),
            )
            for e in report.entries
        ),
    )


def test_fiber_functor_must_have_rank_one():
    ctx, _ = _s3_untwisted()
    forged = _forged_breakdowns(
        classify_pairs(ctx), lambda b: RankBreakdown(b.rows * 2)
    )
    with pytest.raises(
        InvariantViolated,
        match=r"fiber functor on census class \d+ \(order 6, representative \[.*"
        r"has rank 2, not 1",
    ):
        fiber_functors(ctx, forged)


def test_rank_one_pair_must_be_fiber_functor():
    ctx, _ = _s3_untwisted()
    forged = _forged_breakdowns(
        classify_pairs(ctx),
        lambda b: RankBreakdown((dataclasses.replace(b.rows[0], count=1),)),
    )
    with pytest.raises(
        InvariantViolated,
        match=r"rank-one pair on census class 0 \(order 1, representative \[0\]\), "
        r"psi \(\), is not a fiber functor",
    ):
        fiber_functors(ctx, forged)


def test_regularity_must_be_a_class_function(monkeypatch):
    D4 = group_from_spec("D4")
    r = next(x for x in range(D4.order) if D4.element_order(x) == 4)
    r2 = D4.times(r, r)
    # past a cocycle check patched to pass: psi(r, r^2) = 1 makes r irregular
    # and leaves r^3 regular, though the two are conjugate
    monkeypatch.setattr("tdmc.twisted_algebra.is_cocycle", lambda f: True)
    vals = np.zeros((8, 8), dtype=np.int64)
    vals[r, r2] = 1
    with pytest.raises(
        InvariantViolated,
        match=r"not constant on the conjugacy class of \d+ \(group of order 8\)",
    ):
        projective_irrep_count(Cochain(D4, 2, 2, vals))
