"""Projective-representation counting vs the numeric center oracle.

The production count is pure integer arithmetic (regular classes); every
value here is double-checked against the floating-point center dimension of
the literally-constructed twisted group algebra.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdmc.cohomology import Cochain, coboundary, cohomology_cstar
from tdmc.errors import InvariantViolated, NotACocycle, SizeBound
from tdmc.groups import (
    FiniteGroup,
    direct_square_with_diagonal,
    group_from_spec,
)
from tdmc.twisted_algebra import _regular_class_counts, projective_irrep_count

from oracles import (
    center_dimension_from_structure,
    center_dimension_oracle,
    conjugacy_classes,
    regular_class_count_by_classes,
)


def untwisted(G: FiniteGroup) -> Cochain:
    return Cochain.zero(G, 2, G.order)


def rnd_coboundary(G: FiniteGroup, M: int, seed: int) -> Cochain:
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, M, size=G.order)
    vals[0] = 0
    return coboundary(Cochain(G, 1, M, vals))


@pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "Z2xZ2", "S3", "D4", "Q8"])
def test_untwisted_count_is_class_number(name):
    G = group_from_spec(name)
    psi = untwisted(G)
    assert projective_irrep_count(psi) == len(conjugacy_classes(G))
    assert projective_irrep_count(psi) == center_dimension_oracle(psi)


def z3z3() -> FiniteGroup:
    return direct_square_with_diagonal(group_from_spec("Z3")).group


TWISTED_CASES = [
    # (group factory, expected count for the generator cocycle)
    (lambda: group_from_spec("Z2xZ2"), 1),
    (z3z3, 1),
    (lambda: group_from_spec("D4"), 2),
]


@pytest.mark.parametrize("factory,want", TWISTED_CASES)
def test_twisted_counts(factory, want):
    G = factory()
    h2 = cohomology_cstar(G, 2)
    assert h2.invariant_factors  # these groups all carry a nontrivial class
    psi = h2.generators[0]
    assert projective_irrep_count(psi) == want
    assert center_dimension_oracle(psi) == want


def test_all_twists_of_z3z3():
    G = z3z3()
    h2 = cohomology_cstar(G, 2)
    assert h2.invariant_factors == [3]
    gen = h2.generators[0]
    for k in range(3):
        psi = gen.scale(k)
        want = 9 if k == 0 else 1
        assert projective_irrep_count(psi) == want
        assert center_dimension_oracle(psi) == want


@pytest.mark.parametrize("name", ["Z4", "Z2xZ2", "S3", "D4"])
def test_count_invariant_under_coboundary_shift(name):
    G = group_from_spec(name)
    h2 = cohomology_cstar(G, 2)
    base = (
        h2.generators[0]
        if h2.generators
        else Cochain.zero(G, 2, G.order)
    )
    for seed in range(4):
        shifted = base + rnd_coboundary(G, base.modulus, seed)
        assert projective_irrep_count(base) == projective_irrep_count(shifted)
        assert center_dimension_oracle(shifted) == projective_irrep_count(shifted)


def test_count_invariant_under_transpose_negation():
    # psi(h,k) -> -psi(k,h) is the opposite-algebra cocycle (a cocycle on G
    # itself only when G is abelian); the count cannot change
    for G in (group_from_spec("Z2xZ2"), z3z3()):
        psi = cohomology_cstar(G, 2).generators[0]
        flipped = Cochain(G, 2, psi.modulus, (-psi.values.T) % psi.modulus)
        assert projective_irrep_count(psi) == projective_irrep_count(flipped)


def test_identity_is_always_regular():
    G = group_from_spec("D4")
    psi = cohomology_cstar(G, 2).generators[0]
    # at least one regular class exists: the identity's
    assert projective_irrep_count(psi) >= 1


def test_rejects_noncocycle():
    G = group_from_spec("Z4")
    vals = np.zeros((4, 4), dtype=np.int64)
    vals[2, 3] = 1  # breaks the cocycle identity but stays normalized
    with pytest.raises(NotACocycle, match="2-cocycle identity"):
        projective_irrep_count(Cochain(G, 2, 4, vals))
    with pytest.raises(NotACocycle, match="degree 1"):
        projective_irrep_count(Cochain.zero(G, 1, 4))


def test_structure_oracle_size_bound():
    table = np.zeros((65, 65), dtype=np.int64)
    with pytest.raises(SizeBound):
        center_dimension_from_structure(table, np.ones((65, 65), dtype=complex))


def test_structure_oracle_plain_matrix_algebra():
    # 2x2 matrix units: e_{ij} e_{kl} = delta_{jk} e_{il}; center is scalars
    # encode the 4 units as basis 0..3 = e00,e01,e10,e11 with an absorbing
    # trick: zero products get coefficient 0 (target index irrelevant)
    table = np.zeros((4, 4), dtype=np.int64)
    coeffs = np.zeros((4, 4), dtype=complex)
    def idx(i, j):
        return 2 * i + j
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    if j == k:
                        table[idx(i, j), idx(k, l)] = idx(i, l)
                        coeffs[idx(i, j), idx(k, l)] = 1.0
    assert center_dimension_from_structure(table, coeffs) == 1


def test_regularity_must_be_constant_on_classes(monkeypatch):
    """A non-cocycle past a cocycle check patched to pass: in D4,
    psi(r, r^2) = 1 makes r irregular while its conjugate r^3 stays regular."""
    G = group_from_spec("D4")
    monkeypatch.setattr("tdmc.twisted_algebra.is_cocycle", lambda f: True)
    vals = np.zeros((8, 8), dtype=np.int64)
    vals[1, 2] = 1
    with pytest.raises(InvariantViolated, match="not constant on the conjugacy class of 1 "):
        projective_irrep_count(Cochain(G, 2, 8, vals))


@lru_cache(maxsize=None)
def group_and_h2(name: str):
    G = z3z3() if name == "Z3xZ3" else group_from_spec(name)
    return G, cohomology_cstar(G, 2).generators


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(["Z4", "Z2xZ2", "S3", "D4", "Q8", "Z3xZ3"]),
    data=st.data(),
)
def test_batched_count_equals_each_count_alone(name, data):
    """A batch of 2-cocycles on one group, each a multiple of each H^2
    generator plus the coboundary of a drawn 1-cochain, at the modulus |G|:
    the batched count equals projective_irrep_count of each item alone, the
    class-by-class count and the center dimension of its twisted algebra."""
    G, gens = group_and_h2(name)
    M = G.order
    psis = []
    for _ in range(data.draw(st.integers(1, 4))):
        psi = Cochain.zero(G, 2, M)
        for gen in gens:
            psi = psi + gen.scale(data.draw(st.integers(0, M - 1)))
        chi = data.draw(st.lists(st.integers(0, M - 1), min_size=M - 1, max_size=M - 1))
        psis.append(psi + coboundary(Cochain(G, 1, M, np.array([0] + chi))))
    got = _regular_class_counts(G, np.stack([p.values for p in psis]), M)
    assert got == [projective_irrep_count(p) for p in psis]
    assert got == [regular_class_count_by_classes(p) for p in psis]
    assert got == [center_dimension_oracle(p) for p in psis]
