"""Twisted doubles of D4 and Q8, where conjugation moves the restricted cocycle.

On S3 and Z2xZ2 every twist is invariant under conjugation on the subgroups
that support pairs, so a wrong sign in the correction cochain theta_n of
transport_pair, or in the psi term of the orbit recipe, goes unnoticed there.
These checks run where it does not.  The identity d(theta_n) = omega^n - omega
behind the correction is checked on its own, on every builtin base.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from tdmc.cohomology import Cochain, coboundary, cohomology_cstar, is_trivial_over_cstar
from tdmc.errors import NotTrivializing
from tdmc.groups import (
    builtin_names,
    group_from_spec,
    small_generating_set,
    subgroups_up_to_conjugacy,
)
from tdmc.modcat import (
    bimodule_rank,
    classify_class,
    classify_pairs,
    diagonal_pair,
    double_context,
    fiber_functors,
    make_pair,
    module_rank_double,
    pair_from_coords,
    transport_pair,
)

# Census classes of the D4 square at k=1 on which omega trivializes but the
# orbit recipe's local cochains were not cocycles while psi entered with the
# wrong sign.
D4_K1_CLASSES = (90, 95, 100, 150, 160, 163, 180, 183, 186, 188)


@lru_cache(maxsize=None)
def _twisted(name: str, k: int):
    ctx = double_context(group_from_spec(name), k)
    return ctx, subgroups_up_to_conjugacy(ctx.ambient)


def test_orbit_recipe_matches_two_sided_recipe_on_twisted_d4():
    ctx, census = _twisted("D4", 1)
    diag = diagonal_pair(ctx)
    for ci in D4_K1_CLASSES:
        H = census[ci].rep
        zeros = (0,) * len(cohomology_cstar(H.as_group, 2).invariant_factors)
        pair, _ = pair_from_coords(ctx, H, zeros)
        got = module_rank_double(ctx, pair).total
        assert got == bimodule_rank(ctx, diag, pair).total, ci


@pytest.mark.parametrize("name", ["D4", "Q8"])
def test_transport_is_a_group_action_on_twisted_doubles(name):
    """transport_pair closes on every admissible class of order 8 and 16, and
    transporting by a and then by b lands in the C* class of transporting by
    b*a."""
    ctx, census = _twisted(name, 1)
    G = ctx.ambient
    S = small_generating_set(G)
    checked = 0
    for cls in census:
        if cls.rep.order not in (8, 16):
            continue
        try:
            pair = make_pair(ctx, cls.rep)
        except NotTrivializing:
            continue
        for a in S:
            by_a = transport_pair(ctx, pair, a)
            for b in S:
                then_b = transport_pair(ctx, by_a, b)
                at_once = transport_pair(ctx, pair, G.times(b, a))
                assert then_b.subgroup.elements == at_once.subgroup.elements
                trivial, _ = is_trivial_over_cstar(then_b.psi - at_once.psi)
                assert trivial, (cls.rep.elements, a, b)
                checked += 1
    assert checked > 0


# Pairs on the classes of order <= 16 of the Q8 square, twist k = 0..7 (456).
Q8_PAIRS_TO_ORDER_16 = (166, 17, 36, 17, 150, 17, 36, 17)


@pytest.mark.parametrize("k", range(8))
def test_orbit_recipe_matches_two_sided_recipe_on_q8(k):
    """Every pair of every Q8 twist on the admissible classes of order <= 16
    has the same rank by both recipes (the order-32 and order-64 classes are
    left out for the cost of their Smith forms)."""
    ctx, census = _twisted("Q8", k)
    diag = diagonal_pair(ctx)
    pairs = 0
    for ci, cls in enumerate(census):
        if cls.rep.order > 16:
            break  # the census is sorted by order
        entry = classify_class(ctx, cls, ci)
        for pe in [] if entry is None else entry.pairs:
            two_sided = bimodule_rank(ctx, diag, pe.pair).total
            assert pe.breakdown.total == two_sided, (ci, pe.coords)
            pairs += 1
    assert pairs == Q8_PAIRS_TO_ORDER_16[k]


# Galois orbits: omega -> u omega for u a unit mod the order of the twist
# sends (H, psi) to (H, u psi) and keeps every rank.  Each row: base group,
# one orbit of twists, pairs, fiber functors, multiset of ranks.
GALOIS_ORBITS = (
    ("Q8", (1, 3, 5, 7), 17, 0, {4: 2, 8: 7, 10: 3, 16: 1, 20: 3, 22: 1}),
    ("Q8", (2, 6), 36, 0, {2: 2, 4: 10, 8: 12, 10: 3, 16: 4, 20: 4, 22: 1}),
    ("Z4", (1, 3), 4, 0, {4: 2, 8: 1, 16: 1}),
)


@pytest.mark.parametrize("name, orbit, pairs, fibers, ranks", GALOIS_ORBITS)
def test_galois_orbits_preserve_every_count(name, orbit, pairs, fibers, ranks):
    """Every twist in one unit orbit classifies to the same pair count,
    fiber-functor count and rank multiset."""
    for k in orbit:
        ctx = double_context(group_from_spec(name), k)
        report = classify_pairs(ctx)
        got = Counter(pe.breakdown.total for e in report.entries for pe in e.pairs)
        assert report.total_pairs == pairs, k
        assert len(fiber_functors(ctx, report)) == fibers, k
        assert dict(got) == ranks, k


# S3xS3 is left out: its H^3 needs a degree-3 slice system past the size bound.
@pytest.mark.parametrize("name", [n for n in builtin_names() if n != "S3xS3"])
def test_theta_trivializes_the_conjugation_defect(name):
    """d(theta_n) = omega^n - omega for every generator omega of H^3(G, C*)
    and every n in G, with theta_n coded here from the modcat docstring:
    theta_n(x, y) = omega(x, y, n) - omega(x, n, n^-1 y n)
                    + omega(n, n^-1 x n, n^-1 y n)."""
    G = group_from_spec(name)
    idx = np.arange(G.order)
    X, Y = np.meshgrid(idx, idx, indexing="ij")
    for omega in cohomology_cstar(G, 3).generators:
        om = omega.values
        for n in range(G.order):
            back = G.conj[G.inv[n]]  # x -> n^-1 x n
            theta = om[X, Y, n] - om[X, n, back[Y]] + om[n, back[X], back[Y]]
            moved = Cochain(G, 3, omega.modulus, om[np.ix_(back, back, back)])
            got = coboundary(Cochain(G, 2, omega.modulus, theta))
            assert got.same_values(moved - omega), (name, n)
