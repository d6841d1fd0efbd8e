"""Twisted doubles of D4 and Q8, where conjugation moves the restricted cocycle.

On S3 and Z2xZ2 every twist is invariant under conjugation on the subgroups
that support pairs, so a wrong sign in the correction cochain theta_n of
transport_pair, or in the psi term of the orbit recipe, goes unnoticed there.
These checks run where it does not.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from tdmc.cohomology import cohomology_cstar, is_trivial_over_cstar
from tdmc.errors import NotTrivializing
from tdmc.groups import group_from_spec, small_generating_set, subgroups_up_to_conjugacy
from tdmc.modcat import (
    bimodule_rank,
    diagonal_pair,
    double_context,
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
