"""Cohomology engine checks.

The slice-reduced computation is never trusted alone: a dense implementation
of the full (unnormalized) bar complex, built tuple by tuple from the textbook
differential, recomputes invariant factors on small groups.  Frozen values
from the literature and exhaustive searches back up the C*-level decisions.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import textwrap
from math import gcd
from unittest import mock

import numpy as np
import pytest

import tdmc
from tdmc import cohomology, linalg
from tdmc.cohomology import (
    _cyclic_invariants,
    _cyclic_obstruction,
    _SliceSystem,
    _sylow_subgroups_cyclic,
    Cochain,
    build_tilde_omega,
    coboundary,
    cohomology_cstar,
    cohomology_mod,
    is_cocycle,
    is_trivial_over_cstar,
    pullback,
    restrict,
    small_generating_set,
    solve_trivialization,
)
from tdmc.errors import DegreeOverflow, InvariantViolated, NotACocycle
from tdmc.groups import (
    FiniteGroup,
    Subgroup,
    closure,
    direct_square_with_diagonal,
    group_from_spec,
    subgroups_up_to_conjugacy,
)
from tdmc.linalg import abelian_quotient, kernel_mod, smith_form_mod, solve_mod
from tdmc.modcat import double_context
from tdmc.twisted_algebra import projective_irrep_count

from oracles import (
    PerEdgeSliceSystem,
    cohomology_cstar_per_generator,
    cohomology_mod_per_generator,
    cyclic_invariants,
    klein_context,
)


def cyclic(n: int) -> FiniteGroup:
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n)


def rng_cochain(G: FiniteGroup, degree: int, M: int, seed: int) -> Cochain:
    """Random normalized cochain (identity slices forced to zero)."""
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, M, size=(G.order,) * degree)
    for axis in range(degree):
        sl = [slice(None)] * degree
        sl[axis] = 0
        vals[tuple(sl)] = 0
    return Cochain(G, degree, M, vals)


# ---------------------------------------------------------------------------
# the dense bar-complex oracle
# ---------------------------------------------------------------------------


def _flat(tup, n: int) -> int:
    out = 0
    for t in tup:
        out = out * n + int(t)
    return out


def _dense_diff(G: FiniteGroup, k: int) -> np.ndarray:
    """Differential C^k -> C^{k+1} on full (unnormalized) cochains as a matrix."""
    n = G.order
    D = np.zeros((n ** (k + 1), n**k), dtype=np.int64)
    for tup in itertools.product(range(n), repeat=k + 1):
        r = _flat(tup, n)
        D[r, _flat(tup[1:], n)] += 1
        for i in range(1, k + 1):
            merged = tup[: i - 1] + (G.times(tup[i - 1], tup[i]),) + tup[i + 1 :]
            D[r, _flat(merged, n)] += (-1) ** i
        D[r, _flat(tup[:-1], n)] += (-1) ** (k + 1)
    return D


def dense_invariant_factors(G: FiniteGroup, n: int, M: int) -> list:
    """H^n(G, mu_M) from the full cochain complex, no normalization, no slices."""
    Dn = _dense_diff(G, n) % M
    Dp = _dense_diff(G, n - 1) % M
    K = kernel_mod(Dn, M)
    z = K.shape[1]
    kform = smith_form_mod(K, M)

    def coords(v: np.ndarray) -> np.ndarray:
        b = (kform.U @ (v % M)) % M
        zz = np.zeros(z, dtype=np.int64)
        for i, d in enumerate(kform.diag):
            assert b[i] % d == 0
            zz[i] = b[i] // d
        assert not (b[len(kform.diag) :] % M).any()
        return (kform.V @ zz) % M

    rels = []
    for j in range(Dp.shape[1]):
        rels.append(coords(Dp[:, j]))  # the image of d consists of cocycles
    pieces = [np.stack(rels, axis=1)] if rels else []
    inner = kernel_mod(K, M)
    if inner.shape[1]:
        pieces.append(inner)
    allrels = (
        np.concatenate(pieces, axis=1) if pieces else np.zeros((z, 0), np.int64)
    )
    return list(abelian_quotient(z, allrels, M).invariant_factors)


DENSE_DEG2 = [
    ("Z4", [4, 8]),
    ("Z2xZ2", [2, 4, 8]),
    ("S3", [6, 12]),
    ("D4", [8]),
    ("Q8", [8]),
]


@pytest.mark.parametrize("name,moduli", DENSE_DEG2)
def test_dense_oracle_degree_2(name, moduli):
    G = group_from_spec(name)
    for M in moduli:
        assert (
            cohomology_mod(G, 2, M).invariant_factors
            == dense_invariant_factors(G, 2, M)
        )


@pytest.mark.parametrize(
    "group,M",
    [(cyclic(2), 2), (cyclic(2), 4), (cyclic(3), 3), (cyclic(4), 4), ("Z2xZ2", 4)],
)
def test_dense_oracle_degree_3(group, M):
    G = group_from_spec(group) if isinstance(group, str) else group
    assert (
        cohomology_mod(G, 3, M).invariant_factors
        == dense_invariant_factors(G, 3, M)
    )


def test_dense_oracle_degree_3_s3():
    # the largest dense instance we keep in-tree; exercises nonabelian deg 3
    G = group_from_spec("S3")
    assert cohomology_mod(G, 3, 6).invariant_factors == dense_invariant_factors(
        G, 3, 6
    )


# ---------------------------------------------------------------------------
# differential basics
# ---------------------------------------------------------------------------


def _pointwise_d(G: FiniteGroup, v: np.ndarray, tup) -> int:
    """The textbook bar differential at one argument tuple."""
    k = len(tup) - 1
    out = v[tuple(tup[1:])] + (-1) ** (k + 1) * v[tuple(tup[:-1])]
    for i in range(1, k + 1):
        merged = tup[: i - 1] + (G.times(tup[i - 1], tup[i]),) + tup[i + 1 :]
        out += (-1) ** i * v[tuple(merged)]
    return int(out)


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "Z2xZ2"])
def test_coboundary_matches_pointwise_formula(name, degree):
    G = group_from_spec(name)
    f = rng_cochain(G, degree, 12, seed=5)
    df = coboundary(f)
    for tup in itertools.product(range(G.order), repeat=degree + 1):
        assert df.values[tup] == _pointwise_d(G, f.values, tup) % 12


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "Z2xZ2"])
def test_is_cocycle_agrees_with_coboundary_degree_3(name):
    G = group_from_spec(name)
    M = 2 * G.order
    cocycles = [coboundary(rng_cochain(G, 2, M, seed=1))]
    cocycles += cohomology_mod(G, 3, M).generators
    for i, z in enumerate(cocycles):
        # one nonzero value off the identity slices: d of it is nonzero
        bump = np.zeros((G.order,) * 3, dtype=np.int64)
        bump[1 + i % (G.order - 1), 1, G.order - 1] = 1
        broken = z + Cochain(G, 3, M, bump)
        for f in (z, broken, rng_cochain(G, 3, M, seed=i)):
            assert is_cocycle(f) == coboundary(f).is_zero()
        assert is_cocycle(z) and not is_cocycle(broken)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", ["S3", "D4", "Z2xZ2"])
def test_slice_system_solves_coboundaries(name, n):
    G = group_from_spec(name)
    M = 4 * G.order
    phi = rng_cochain(G, n, M, seed=n)
    target = coboundary(phi)
    system = _SliceSystem(G, n, M)
    sol = system.solve(target.values)
    assert sol is not None and (sol.degree, sol.modulus) == (n, M)
    assert coboundary(sol).same_values(target)
    # later solves replay the factorization; the system holds no matrix
    held = [v for v in vars(system).values() if isinstance(v, np.ndarray)]
    assert system._form is not None and "A" not in vars(system)
    assert all(v.shape != system.A.shape for v in held)
    assert system.solve(target.values).same_values(sol)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("name", ["Z4", "Z2xZ2", "S3", "D4"])
def test_d_squared_is_zero(name, degree):
    G = group_from_spec(name)
    f = rng_cochain(G, degree, 12, seed=degree * 10 + G.order)
    assert coboundary(coboundary(f)).is_zero()
    assert is_cocycle(coboundary(f))


def test_degree_zero_and_overflow():
    G = group_from_spec("Z3")
    c = Cochain(G, 0, 6, np.array(4))
    assert coboundary(c).is_zero()  # constants are 1-cocycles here
    top = Cochain.zero(G, 4, 6)
    with pytest.raises(DegreeOverflow):
        coboundary(top)


def test_normalization_is_enforced():
    G = group_from_spec("Z4")
    bad = np.ones((4, 4), dtype=np.int64)
    with pytest.raises(ValueError):
        Cochain(G, 2, 5, bad)


def test_content_and_embed():
    G = group_from_spec("Z4")
    f = rng_cochain(G, 2, 3, seed=9)
    lifted = f.embed(12)
    assert lifted.modulus == 12
    assert lifted.content_modulus() == f.content_modulus()
    back = lifted.reduce_to_content()
    assert back.modulus == f.content_modulus()
    with pytest.raises(ValueError):
        f.embed(10)  # 3 does not divide 10


def test_restriction_commutes_with_d():
    G = group_from_spec("S3")
    H = Subgroup(G, [0, 3, 4])
    f = rng_cochain(G, 2, 6, seed=3)
    assert restrict(coboundary(f), H).same_values(coboundary(restrict(f, H)))


def test_pullback_commutes_with_d():
    G = group_from_spec("S3")
    sq = direct_square_with_diagonal(G)
    f = rng_cochain(G, 2, 6, seed=4)
    for which in (1, 2):
        assert pullback(coboundary(f), sq, which).same_values(
            coboundary(pullback(f, sq, which))
        )


def test_restriction_and_pullback_gather_reduced_values():
    """restrict and pullback read their values from a table already reduced,
    so they are not reduced again: the gathered values are the source's, in
    range, and read-only, in every degree."""
    G = group_from_spec("S3")
    H = Subgroup(G, [0, 3, 4])
    sq = direct_square_with_diagonal(G)
    for degree in range(4):
        f = rng_cochain(G, degree, 6, seed=degree)
        maps = [(restrict(f, H), H.to_parent)]
        maps += [(pullback(f, sq, which), p) for which, p in ((1, sq.p1), (2, sq.p2))]
        for g, index in maps:
            assert np.array_equal(g.values, f.values[np.ix_(*([index] * degree))])
            assert g.values.min() >= 0 and g.values.max() < 6
            assert not g.values.flags.writeable


def test_tilde_omega_shape():
    G = group_from_spec("S3")
    sq = direct_square_with_diagonal(G)
    omega = cohomology_cstar(G, 3).generators[0]
    tilde = build_tilde_omega(omega, sq)
    assert is_cocycle(tilde)
    # difference of the two pullbacks, pointwise
    manual = pullback(omega, sq, 1) - pullback(omega, sq, 2)
    assert tilde.same_values(manual)
    # vanishes identically on diagonal triples
    d = np.array(sq.diagonal.elements)
    assert not tilde.values[np.ix_(d, d, d)].any()


# ---------------------------------------------------------------------------
# frozen group-cohomology values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("M", [2, 3, 4, 6, 12])
def test_h1_cyclic(n, M):
    # H^1(Z/n, mu_M) = Hom(Z/n, Z/M) = Z/gcd(n, M)
    G = cyclic(n)
    want = [] if gcd(n, M) == 1 else [gcd(n, M)]
    assert cohomology_mod(G, 1, M).invariant_factors == want


def test_h2_frozen_values():
    K4 = group_from_spec("Z2xZ2")
    assert cohomology_mod(K4, 2, 4).invariant_factors == [2, 2, 2]
    assert cohomology_mod(K4, 2, 8).invariant_factors == [2, 2, 2]
    assert cohomology_mod(group_from_spec("S3"), 2, 6).invariant_factors == [2]
    assert cohomology_mod(group_from_spec("Z4"), 2, 4).invariant_factors == [4]


def test_h3_frozen_values():
    S3 = group_from_spec("S3")
    assert cohomology_mod(S3, 3, 6).invariant_factors == [6]
    assert cohomology_mod(S3, 3, 36).invariant_factors == [6]


CSTAR_FROZEN = [
    ("S3", 2, []),
    ("S3", 3, [6]),
    ("Z2xZ2", 2, [2]),
    ("Z2xZ2", 3, [2, 2, 2]),
    ("Z4", 2, []),
    ("Z4", 3, [4]),
    ("D4", 2, [2]),
    ("Q8", 2, []),
    # degree 1: H^1(G, C*) = Hom(G, C*), and no class of H^1(G, mu_|G|) dies
    ("Z2", 1, [2]),
    ("Z3", 1, [3]),
    ("Z4", 1, [4]),
    ("Z2xZ2", 1, [2, 2]),
    ("D4", 1, [2, 2]),
    ("Q8", 1, [2, 2]),
    ("S3", 1, [2]),
    ("S3xS3", 1, [2, 2]),
]


@pytest.mark.parametrize("name,n,want", CSTAR_FROZEN)
def test_cstar_frozen_values(name, n, want):
    """Invariant factors, and each generator reads back as its unit vector."""
    h = cohomology_cstar(group_from_spec(name), n)
    assert h.invariant_factors == want
    k = len(h.generators)
    for i, gen in enumerate(h.generators):
        assert h.lookup(gen) == tuple(int(i == j) for j in range(k))


def test_cstar_trivial_group():
    triv = FiniteGroup(np.zeros((1, 1), dtype=np.int64))
    assert cohomology_cstar(triv, 2).invariant_factors == []
    assert cohomology_cstar(triv, 3).invariant_factors == []


# square -> (distinct subgroup tables in its census on which every Sylow
# subgroup is cyclic, distinct tables)
SYLOW_CYCLIC_TABLES = {"S3": (7, 15), "Z2xZ2": (2, 5), "D4": (4, 52), "Q8": (3, 28)}


@pytest.mark.parametrize("name", sorted(SYLOW_CYCLIC_TABLES))
def test_sylow_cyclic_shortcut_is_sound(name):
    """Wherever H^2(H, C*) is answered as trivial because every Sylow
    subgroup of H is cyclic, the elimination path (the shortcut switched
    off) finds no invariant factor either, on every distinct subgroup table
    of the census of the square; and the shortcut fires on exactly the
    pinned number of tables."""
    square = direct_square_with_diagonal(group_from_spec(name))
    tables = {}
    for cls in subgroups_up_to_conjugacy(square.group):
        tables.setdefault(cls.rep.as_group.mul.tobytes(), cls.rep.as_group)
    fires = [H for H in tables.values() if _sylow_subgroups_cyclic(H)]
    assert (len(fires), len(tables)) == SYLOW_CYCLIC_TABLES[name]
    for H in fires:
        assert cohomology_cstar(H, 2).invariant_factors == []
        with mock.patch.object(cohomology, "_sylow_subgroups_cyclic", return_value=False):
            assert cohomology_cstar(H, 2).invariant_factors == [], H.order


def test_sylow_cyclic_shortcut_builds_nothing_and_its_lookup_checks():
    """S3 (Sylow subgroups Z2 and Z3) builds no slice system and takes no
    Smith form; Q8 (Sylow subgroup Q8 itself) is trivial only through the
    full path.  The shortcut's lookup refuses a non-cocycle and a cochain of
    the wrong group or degree, and reads () on a cocycle."""
    S3, Z3, Q8 = (group_from_spec(n) for n in ("S3", "Z3", "Q8"))
    assert _sylow_subgroups_cyclic(S3) and not _sylow_subgroups_cyclic(Q8)
    with mock.patch.object(cohomology, "_SliceSystem") as system, mock.patch.object(
        linalg, "smith_form_mod"
    ) as smith:
        h = cohomology_cstar(S3, 2)
    assert not system.called and not smith.called
    assert h.invariant_factors == [] and h.generators == []
    assert cohomology_cstar(Q8, 2).invariant_factors == []
    for bad in (
        rng_cochain(S3, 2, 6, seed=2),  # not closed
        Cochain.zero(Z3, 2, 6),  # another group
        Cochain.zero(S3, 3, 6),  # another degree
    ):
        with pytest.raises(NotACocycle):
            h.lookup(bad)
    assert not is_cocycle(rng_cochain(S3, 2, 6, seed=2))
    assert h.lookup(coboundary(rng_cochain(S3, 1, 36, seed=4))) == ()


def _census_tables(name: str, max_order: int = 64) -> list:
    """The distinct subgroup tables of the census of name's square, up to
    max_order, in census order."""
    square = direct_square_with_diagonal(group_from_spec(name))
    tables = {}
    for cls in subgroups_up_to_conjugacy(square.group):
        if cls.rep.order <= max_order:
            tables.setdefault(cls.rep.as_group.mul.tobytes(), cls.rep.as_group)
    return list(tables.values())


def _abelianization_by_quotient(G: FiniteGroup) -> int:
    """|G^ab| as |Hom(G, Z/|G|)| = |H^1(G, mu_|G|)|, from the elimination."""
    return cohomology_mod(G, 1, G.order).order


# square -> (distinct tables of order <= 32 that reach the elimination, and
# on which the universal-coefficient order |H^2(H, mu_|H|)| = |H^ab| answers
# H^2(H, C*) trivial)
UCT_TABLES = {"S3": (7, 2), "Z2xZ2": (3, 0), "D4": (47, 0)}


@pytest.mark.parametrize("name", sorted(UCT_TABLES))
def test_universal_coefficients_order_identity(name):
    """|H^2(H, mu_|H|)| = |H^ab| * |H^2(H, C*)| on every table of order at
    most 32 past the Sylow shortcut, with |H^ab| from the commutator
    subgroup equal to |H^1(H, mu_|H|)|; where H^2(H, mu_|H|) has order |H^ab|
    the answer is trivial with no lower system, and the full path (the
    per-generator reference, with no shortcut) finds it trivial too."""
    reached = shortcut = 0
    for H in _census_tables(name, 32):
        if _sylow_subgroups_cyclic(H):
            continue
        reached += 1
        ab = cohomology._abelianization_order(H)
        assert ab == _abelianization_by_quotient(H)
        order = cohomology_mod(H, 2, H.order).order
        if order == ab:
            shortcut += 1
            with mock.patch.object(cohomology, "_SliceSystem", wraps=_SliceSystem) as system:
                h = cohomology_cstar(H, 2)
            assert [c.args[1:] for c in system.call_args_list] == [(2, H.order)]
            assert h.invariant_factors == []
            assert cohomology_cstar_per_generator(H, 2).invariant_factors == []
        else:
            assert order == ab * cohomology_cstar(H, 2).order
    assert (reached, shortcut) == UCT_TABLES[name]


def test_universal_coefficients_violation_is_refused():
    """With |H^ab| misread, the order identity fails on D4 (|H^2(D4, mu_8)| =
    8 = 4 * 2) and cohomology_cstar raises instead of answering."""
    D4 = group_from_spec("D4")
    assert cohomology._abelianization_order(D4) == 4
    with mock.patch.object(cohomology, "_abelianization_order", return_value=2):
        with pytest.raises(InvariantViolated, match=r"universal coefficients"):
            cohomology_cstar(D4, 2)
    assert cohomology_cstar(D4, 2).invariant_factors == [2]


def _elementary_divisors(factors) -> list:
    """The prime-power cyclic factors of the product of Z/f, sorted."""
    out = []
    for f in factors:
        p = 2
        while f > 1:
            q = 1
            while f % p == 0:
                f //= p
                q *= p
            if q > 1:
                out.append(q)
            p += 1
    return sorted(out)


# square -> number of census classes of order <= 32 that are products
# p1(H) x p2(H)
PRODUCT_CLASSES = {"S3": 15, "Z2xZ2": 25, "D4": 63}


@pytest.mark.parametrize("name", sorted(PRODUCT_CLASSES))
def test_product_classes_match_kunneth(name):
    """Every census class H = K1 x K2 (|H| = |p1(H)| |p2(H)|) of order at most
    32 has H^2(H, C*) = H^2(K1) + H^2(K2) + sum_ij Z/gcd(a_i, b_j), with a_i
    and b_j the invariant factors of H^1(K1, C*) and H^1(K2, C*) (Schur's
    Kunneth formula; Karpilovsky, The Schur Multiplier, 1987), compared as
    elementary divisors."""
    base = group_from_spec(name)
    square = direct_square_with_diagonal(base)
    memo = {}

    def factors(G: FiniteGroup, n: int) -> list:
        key = (G.mul.tobytes(), n)
        if key not in memo:
            memo[key] = cohomology_cstar(G, n).invariant_factors
        return memo[key]

    products = 0
    for cls in subgroups_up_to_conjugacy(square.group):
        H = cls.rep
        if H.order > 32:
            continue
        K1, K2 = (Subgroup(base, p[H.to_parent].tolist()) for p in (square.p1, square.p2))
        if K1.order * K2.order != H.order:
            continue
        products += 1
        K1, K2 = K1.as_group, K2.as_group
        a, b = factors(K1, 1), factors(K2, 1)
        want = factors(K1, 2) + factors(K2, 2) + [gcd(x, y) for x in a for y in b]
        got = factors(H.as_group, 2)
        assert _elementary_divisors(got) == _elementary_divisors(want), H.elements
    assert products == PRODUCT_CLASSES[name]


REFERENCE_SQUARES = [("S3", 64), ("Z2xZ2", 64), ("D4", 64), ("Q8", 32)]


def _random_cocycles(h, G: FiniteGroup, n: int, seed: int) -> list:
    """A few n-cocycles: combinations of h's generators plus a coboundary at
    |G|, and one at 2|G|, whose C* lookup takes the lifting path."""
    rng = np.random.default_rng(seed)
    M = G.order
    out = []
    for modulus in (M, M, 2 * M):
        f = coboundary(rng_cochain(G, n - 1, modulus, seed=int(rng.integers(1 << 30))))
        for gen in h.generators:
            f = f + gen.embed(modulus).scale(int(rng.integers(modulus)))
        out.append(f)
    return out


def _check_against_per_generator_reference(G: FiniteGroup, n: int, seed: int) -> None:
    """The slice matrices and right-hand sides, the invariant factors, the
    generators' values and the lookups of the batched build equal those of
    the per-edge, per-generator reference, at |G| and for C*."""
    rng = np.random.default_rng(seed)
    M0 = G.order
    for m, M in ((n, M0), (n - 1, M0 * M0)):
        if m == 0:
            continue
        got, want = _SliceSystem(G, m, M), PerEdgeSliceSystem(G, m, M)
        assert np.array_equal(got.A, want.A)
        F = rng.integers(0, M, size=(G.order,) * (m + 1) + (2,))
        assert np.array_equal(got._rhs(F), want._rhs(F))
        assert np.array_equal(got._rhs(F[..., 0]), want._rhs(F[..., 0]))
    mu = (cohomology_mod(G, n, M0), cohomology_mod_per_generator(G, n, M0))
    cstar = (cohomology_cstar(G, n), cohomology_cstar_per_generator(G, n))
    for got, want in (mu, cstar):
        assert got.invariant_factors == want.invariant_factors
        assert len(got.generators) == len(want.generators)
        for g, w in zip(got.generators, want.generators):
            assert g.modulus == w.modulus and np.array_equal(g.values, w.values)
        k = len(want.generators)
        for i, gen in enumerate(want.generators):
            assert got.lookup(gen) == want.lookup(gen) == tuple(int(i == j) for j in range(k))
    for f in _random_cocycles(mu[1], G, n, seed):
        for got, want in (mu, cstar) if f.modulus == M0 else (cstar,):
            assert got.lookup(f) == want.lookup(f)


@pytest.mark.parametrize("name,max_order", REFERENCE_SQUARES)
def test_batched_h2_equals_the_per_generator_reference(name, max_order):
    """On every distinct census table of the square (Q8's up to order 32)."""
    for seed, H in enumerate(_census_tables(name, max_order)):
        _check_against_per_generator_reference(H, 2, seed)


@pytest.mark.parametrize("name", ["S3", "Z2xZ2", "D4", "Q8"])
def test_batched_h3_equals_the_per_generator_reference(name):
    """The degree-3 systems (the recurrence's third branch) on the base groups."""
    _check_against_per_generator_reference(group_from_spec(name), 3, 0)


def test_trivial_group_mu_lookup_checks_its_argument():
    """H^n(1, mu_M) is trivial, and its lookup refuses what the lookup of a
    nontrivial group refuses: another degree or group, another modulus, and
    a cochain that is not a cocycle (an unnormalized 1-cochain, which only
    the private constructor builds)."""
    triv = FiniteGroup(np.zeros((1, 1), dtype=np.int64))
    h = cohomology_mod(triv, 2, 6)
    assert h.invariant_factors == [] and h.generators == []
    assert h.lookup(Cochain.zero(triv, 2, 6)) == ()
    Z2 = group_from_spec("Z2")
    for bad in (Cochain.zero(Z2, 3, 6), Cochain.zero(Z2, 2, 6), Cochain.zero(triv, 3, 6)):
        with pytest.raises(NotACocycle, match="right degree and group"):
            h.lookup(bad)
    with pytest.raises(ValueError, match="modulus 6, got 12"):
        h.lookup(Cochain.zero(triv, 2, 12))
    h1 = cohomology_mod(triv, 1, 6)
    unnormalized = Cochain._derived(triv, 1, 6, np.array([1]), False)
    assert not is_cocycle(unnormalized)
    with pytest.raises(NotACocycle, match="not a cocycle"):
        h1.lookup(unnormalized)
    assert h1.lookup(Cochain.zero(triv, 1, 6)) == ()


def test_failing_generator_is_named():
    """When a reconstructed generator is not a cocycle, cohomology_mod raises
    InvariantViolated naming it (here the last of D4's H^2(D4, mu_8)
    generators, replaced by a random normalized cochain)."""
    G = group_from_spec("D4")
    k = len(cohomology_mod(G, 2, 8).generators)
    real = _SliceSystem.reconstruct

    def reconstruct(self, u, F=None):
        phi = real(self, u, F)
        if phi.ndim == 3 and phi.shape[-1] == k:  # the generator batch
            phi[..., -1] = rng_cochain(G, 2, 8, seed=5).values
        return phi

    with mock.patch.object(_SliceSystem, "reconstruct", reconstruct):
        with pytest.raises(InvariantViolated, match=rf"generator {k - 1} is not a cocycle"):
            cohomology_mod(G, 2, 8)


# ---------------------------------------------------------------------------
# lookup is an exact homomorphism
# ---------------------------------------------------------------------------


def test_lookup_units_and_additivity():
    G = group_from_spec("S3")
    h = cohomology_mod(G, 3, 6)
    assert h.invariant_factors == [6]
    gen = h.generators[0]
    assert h.lookup(gen) == (1,)
    for k in range(6):
        assert h.lookup(gen.scale(k)) == (k,)
    # shifting by a coboundary never moves the class
    phi = rng_cochain(G, 2, 6, seed=11)
    assert h.lookup(gen + coboundary(phi)) == (1,)
    assert h.lookup(coboundary(phi)) == (0,)


def test_lookup_rejects_noncocycles():
    G = group_from_spec("S3")
    h = cohomology_mod(G, 2, 6)
    with pytest.raises(NotACocycle):
        h.lookup(rng_cochain(G, 2, 6, seed=2))  # a random cochain is not closed


@pytest.mark.parametrize("M", [6, 36])
def test_cstar_lookup_rejects_noncocycles(M):
    """Whether the content divides |G| (read directly) or not (lifted first)."""
    G = group_from_spec("S3")
    f = rng_cochain(G, 3, M, seed=3)
    assert f.content_modulus() == M and not is_cocycle(f)
    with pytest.raises(NotACocycle):
        cohomology_cstar(G, 3).lookup(f)


@pytest.mark.parametrize("name,other", [("D4", "Q8"), ("Z2xZ2", "Z4")])
def test_nontrivial_degree2_cstar_lookup_refusals(name, other):
    """The lookup of a nontrivial H^2(G, C*) (Z/2 on D4 and on Z2xZ2) refuses
    another degree or another group of the same order, and a normalized
    non-cocycle whether its content divides |G| (read directly) or not
    (modulus 9 |G|, content 3, lifted first); each generator embedded at
    any modulus reads back as its unit vector."""
    G = group_from_spec(name)
    n = G.order
    h = cohomology_cstar(G, 2)
    assert h.invariant_factors == [2]
    for bad in (Cochain.zero(G, 3, n), Cochain.zero(group_from_spec(other), 2, n)):
        with pytest.raises(NotACocycle, match="right degree and group"):
            h.lookup(bad)
    for modulus, value, content in ((n, 1, n), (9 * n, 3 * n, 3)):
        vals = np.zeros((n, n), dtype=np.int64)
        vals[1, 2] = value
        f = Cochain(G, 2, modulus, vals)
        assert f.content_modulus() == content and not is_cocycle(f)
        with pytest.raises(NotACocycle, match="not a cocycle"):
            h.lookup(f)
    for i, gen in enumerate(h.generators):
        unit = tuple(int(j == i) for j in range(len(h.generators)))
        for scale in (1, 2, 3, 5, n):
            assert h.lookup(gen.embed(n * scale)) == unit


def test_cstar_lookup():
    G = group_from_spec("S3")
    h = cohomology_cstar(G, 3)
    gen = h.generators[0]
    assert h.lookup(gen) == (1,)
    assert h.lookup(gen.scale(6)) == (0,)
    assert h.lookup(gen.scale(4) + coboundary(rng_cochain(G, 2, 6, seed=8))) == (4,)
    # above |G| the same lookup reads H^3(S3, mu_36) and maps it to C*
    assert h.lookup(gen.embed(36).scale(5)) == (5,)


CSTAR_CASES = [("S3", 2), ("S3", 3), ("Z2xZ2", 2), ("Z2xZ2", 3), ("D4", 2)]


@pytest.mark.parametrize("power", [1, 2, 3])
@pytest.mark.parametrize("spec,n", CSTAR_CASES)
def test_cstar_lookup_any_modulus(spec, n, power):
    """At M = |G|^power the C* lookup is additive, blind to coboundaries, and
    vanishes exactly on the classes that die over C*."""
    G = group_from_spec(spec)
    h = cohomology_cstar(G, n)
    M = G.order**power
    factors = h.invariant_factors
    rng = np.random.default_rng(power * 10 + n)
    gens = [g.embed(M) for g in h.generators]

    def combo(basis, coeffs, seed):
        f = coboundary(rng_cochain(G, n - 1, M, seed))
        for c, b in zip(coeffs, basis):
            f = f + b.scale(int(c))
        return f

    for seed in range(3):
        x = [int(rng.integers(0, 3 * d)) for d in factors]
        want = tuple(xi % d for xi, d in zip(x, factors))
        assert h.lookup(combo(gens, x, seed)) == want

    # classes of H^n(G, mu_M), including ones that are nonzero there but die
    # over C*; the C* generators make sure both answers occur
    hm = cohomology_mod(G, n, M)
    units = np.eye(len(hm.generators), dtype=np.int64)
    cases = [combo(hm.generators, u, 20 + i) for i, u in enumerate(units)]
    for seed in range(2):
        coeffs = [int(rng.integers(0, d)) for d in hm.invariant_factors]
        cases.append(combo(hm.generators, coeffs, 30 + seed))
    cases += [combo(gens, [1] * len(gens), 40), combo([], [], 41)]
    seen = set()
    for f in cases:
        trivial = is_trivial_over_cstar(f)[0]
        assert (h.lookup(f) == (0,) * len(factors)) == trivial
        seen.add(trivial)
    assert seen == ({True, False} if factors else {True})


# ---------------------------------------------------------------------------
# C*-triviality decisions
# ---------------------------------------------------------------------------


def test_trivial_over_cstar_restrictions():
    S3 = group_from_spec("S3")
    omega = cohomology_cstar(S3, 3).generators[0]
    flip = Subgroup(S3, [0, 1])
    rot = Subgroup(S3, [0, 3, 4])
    # the generator survives on both the 2-part and the 3-part
    assert not is_trivial_over_cstar(restrict(omega, flip))[0]
    assert not is_trivial_over_cstar(restrict(omega, rot))[0]
    # killing one part at a time
    assert is_trivial_over_cstar(restrict(omega.scale(2), flip))[0]
    assert not is_trivial_over_cstar(restrict(omega.scale(2), rot))[0]
    assert not is_trivial_over_cstar(restrict(omega.scale(3), flip))[0]
    assert is_trivial_over_cstar(restrict(omega.scale(3), rot))[0]
    ok, phi = is_trivial_over_cstar(restrict(omega.scale(3), rot))
    assert ok
    red = restrict(omega.scale(3), rot).reduce_to_content()
    lift = Cochain(phi.group, 3, phi.modulus, red.values * (phi.modulus // red.modulus))
    assert coboundary(phi).same_values(lift)


def test_trivial_over_cstar_exhaustive_confirmation():
    """The K4 class really has no trivialization: brute force over all
    normalized 1-cochains at the headroom modulus agrees with the solver."""
    K4 = group_from_spec("Z2xZ2")
    h = cohomology_cstar(K4, 2)
    f = h.generators[0]
    ok, _ = is_trivial_over_cstar(f)
    assert not ok
    red = f.reduce_to_content()
    target = red.modulus * K4.order
    wanted = red.values * K4.order
    found = False
    for vals in itertools.product(range(target), repeat=3):
        phi = Cochain(K4, 1, target, np.array((0,) + vals))
        if np.array_equal(coboundary(phi).values % target, wanted % target):
            found = True
            break
    assert not found


def test_solve_trivialization_cases():
    S3 = group_from_spec("S3")
    sq = direct_square_with_diagonal(S3)
    GG = sq.group
    session = GG.order**2
    omega = cohomology_cstar(S3, 3).generators[0]

    tilde3 = build_tilde_omega(omega.scale(3), sq)
    both_rot = Subgroup(GG, closure(GG, [18, 3]))  # rotations on both sides
    psi0 = solve_trivialization(tilde3, both_rot, session)
    assert psi0 is not None  # d(psi0) = restriction is asserted inside

    tilde1 = build_tilde_omega(omega, sq)
    left_flip = Subgroup(GG, [0, 6])
    assert solve_trivialization(tilde1, left_flip, session) is None

    # headroom guard: the bare cochain modulus cannot decide C*-triviality
    with pytest.raises(ValueError):
        solve_trivialization(tilde1, left_flip, tilde1.modulus)


def test_solvability_stable_under_headroom_doubling():
    S3 = group_from_spec("S3")
    sq = direct_square_with_diagonal(S3)
    GG = sq.group
    session = GG.order**2
    omega = cohomology_cstar(S3, 3).generators[0]
    subs = [
        Subgroup(GG, [0, 6]),
        Subgroup(GG, closure(GG, [18, 3])),
        Subgroup(GG, closure(GG, [7, 21])),
        sq.diagonal,
    ]
    for k in (1, 2, 3):
        tilde = build_tilde_omega(omega.scale(k), sq)
        for H in subs:
            first = solve_trivialization(tilde, H, session)
            second = solve_trivialization(tilde, H, 2 * session)
            assert (first is None) == (second is None)


# ---------------------------------------------------------------------------
# odds and ends
# ---------------------------------------------------------------------------


def test_invariant_errors_survive_optimize():
    """A slice system whose S does not generate G raises InvariantViolated
    under python -O too (S3 with an empty generating set)."""
    code = textwrap.dedent(
        """
        import sys
        if __debug__:
            sys.exit("asserts are still on")
        import tdmc.cohomology
        from tdmc.errors import InvariantViolated
        from tdmc.groups import group_from_spec
        tdmc.cohomology.small_generating_set = lambda G: []
        try:
            tdmc.cohomology.cohomology_mod(group_from_spec("S3"), 2, 36)
        except InvariantViolated as exc:
            print(exc)
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(tdmc.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert "does not generate G (group of order 6, degree 2, modulus 36)" in proc.stdout


def test_small_generating_set():
    for name in ("Z4", "S3", "D4", "Q8", "S3xS3"):
        G = group_from_spec(name)
        gens = small_generating_set(G)
        assert len(gens) <= 3
        assert len(closure(G, gens)) == G.order


def test_deterministic_generators():
    G = group_from_spec("S3")
    a = cohomology_mod(G, 3, 6)
    b = cohomology_mod(G, 3, 6)
    assert a.invariant_factors == b.invariant_factors
    for x, y in zip(a.generators, b.generators):
        assert x.same_values(y)


# ---------------------------------------------------------------------------
# checks paid once: the cocycle flag and the zero right-hand side
# ---------------------------------------------------------------------------


def test_cocycle_flag_is_carried_by_maps_that_commute_with_d():
    S3 = group_from_spec("S3")
    sq = direct_square_with_diagonal(S3)
    omega = cohomology_cstar(S3, 3).generators[0]
    f = Cochain(S3, 3, omega.modulus, omega.values)
    assert not f._cocycle  # the public constructor never sets it
    assert is_cocycle(f) and f._cocycle
    H = Subgroup(S3, [0, 3, 4])
    other = rng_cochain(S3, 3, f.modulus, seed=5)
    assert not is_cocycle(other) and not other._cocycle
    carried = [
        restrict(f, H),
        pullback(f, sq, 1),
        pullback(f, sq, 2),
        f.embed(2 * f.modulus),
        f.scale(5),
        -f,
        f + f.scale(2),
        f - f.scale(3),
        f.reduce_to_content(),
        f.embed(4 * f.modulus).reduce_to_content(),
        f.scale(2).reduce_to_content(),
    ]
    assert f.embed(4 * f.modulus).reduce_to_content().same_values(f)
    for g in carried:
        assert g._cocycle
        # the carried answer is the computed one
        assert is_cocycle(Cochain(g.group, g.degree, g.modulus, g.values))
    for g in (f + other, other + f, f - other, other - f, other.reduce_to_content()):
        assert not g._cocycle and not is_cocycle(g)
    assert not Cochain(S3, 3, f.modulus, f.values)._cocycle


def test_non_cocycles_are_still_refused():
    """A hand-built non-cocycle fails every check that guards an input, and
    so do the values derived from it."""
    K4 = group_from_spec("Z2xZ2")
    whole = Subgroup(K4, range(4))
    vals = np.zeros((4, 4, 4), dtype=np.int64)
    vals[1, 2, 3] = 1
    f = Cochain(K4, 3, 16, vals)
    for g in (f, f.scale(1), f.embed(32), restrict(f, whole)):
        assert not is_cocycle(g)
        assert not is_cocycle(g)  # a False answer is not recorded
    with pytest.raises(NotACocycle):
        solve_trivialization(f, whole, 64)
    h3 = cohomology_cstar(K4, 3)
    # content 16 takes the lift path, content 4 = |K4| the direct one
    for g in (f, f.embed(32), f.scale(4)):
        with pytest.raises(NotACocycle):
            h3.lookup(g)
    psi_vals = np.zeros((4, 4), dtype=np.int64)
    psi_vals[1, 2] = 1
    psi = Cochain(K4, 2, 4, psi_vals)
    assert not is_cocycle(psi)
    with pytest.raises(NotACocycle):
        projective_irrep_count(psi)


@pytest.mark.parametrize(
    "name, twists", [("S3", range(6)), ("Z2xZ2", range(2)), ("D4", range(2))]
)
def test_zero_restriction_shortcut_equals_the_solve(name, twists):
    """On every census class where omega|_H is zero, the psi0 returned without
    a slice system is the one the factored solve of a zero right-hand side
    gives, value for value; at k = 0 that is every class."""
    base = group_from_spec(name)
    census = subgroups_up_to_conjugacy(direct_square_with_diagonal(base).group)
    solved = {}  # one solve per table: the system depends on nothing else
    for k in twists:
        ctx = double_context(base, k)
        omega = ctx.omega  # built on each read
        shortcut = 0
        for cls in census:
            H = cls.rep
            if not restrict(omega, H).is_zero():
                continue
            psi0 = solve_trivialization(omega, H, ctx.modulus)
            key = H.as_group.mul.tobytes()
            if key not in solved:
                zero = np.zeros((H.order,) * 3, dtype=np.int64)
                solved[key] = _SliceSystem(H.as_group, 2, ctx.modulus).solve(zero)
            assert psi0.group is H.as_group
            assert (psi0.degree, psi0.modulus) == (2, ctx.modulus)
            assert np.array_equal(psi0.values, solved[key].values)
            shortcut += 1
        # the trivial class and the diagonal are zero under every twist
        assert shortcut == len(census) if k == 0 else 2 <= shortcut < len(census)


# ---------------------------------------------------------------------------
# the cyclic invariant: inadmissible classes refused before any system
# ---------------------------------------------------------------------------


def _twisted_contexts():
    for k in range(1, 6):
        yield "S3", double_context(group_from_spec("S3"), k)
    for bits in itertools.product((0, 1), repeat=3):
        yield "Z2xZ2", klein_context(bits)
    for k in range(1, 4):
        yield "Z4", double_context(group_from_spec("Z4"), k)
    yield "D4", double_context(group_from_spec("D4"), 1)
    yield "Q8", double_context(group_from_spec("Q8"), 1)


def test_cyclic_obstruction_is_sound():
    """Wherever the invariant refuses a nonzero omega|_H, the factored slice
    solve finds no trivialization either: S3 k = 1..5, the 8 Klein cocycles,
    Z4 k = 1..3, and D4 and Q8 at k = 1 on the classes of order <= 16.  The
    vectorized walk agrees with the element-by-element reference."""
    censuses, systems = {}, {}
    for name, ctx in _twisted_contexts():
        if name not in censuses:
            censuses[name] = subgroups_up_to_conjugacy(ctx.ambient)
        refused = 0
        omega = ctx.omega  # built on each read
        max_order = 16 if name in ("D4", "Q8") else ctx.ambient.order
        for cls in censuses[name]:
            H = cls.rep
            if H.order > max_order:
                break  # the census is sorted by order
            fH = restrict(omega, H)
            fires = _cyclic_obstruction(fH)
            assert fires == any(cyclic_invariants(fH))
            if not fires:
                continue
            key = (name, H.as_group.mul.tobytes())
            if key not in systems:  # one factorization per table
                systems[key] = _SliceSystem(H.as_group, 2, ctx.modulus)
            assert systems[key].solve(fH.values) is None, (name, H.elements)
            assert solve_trivialization(omega, H, ctx.modulus) is None
            refused += 1
        assert refused > 0 or omega.is_zero(), name


def _refusal_contexts():
    for k in range(6):
        yield "S3", double_context(group_from_spec("S3"), k)
    for bits in itertools.product((0, 1), repeat=3):
        yield "Z2xZ2", klein_context(bits)
    for k in (0, 1):
        yield "D4", double_context(group_from_spec("D4"), k)
    for k in range(8):
        yield "Q8", double_context(group_from_spec("Q8"), k)


def test_one_ambient_walk_decides_the_invariant_on_every_class():
    """The invariant of an element reads the same values in omega and in
    its restriction, so the flags of omega|_H are the ambient's flags at H's
    elements, on every census class of S3 k = 0..5, the 8 Klein cocycles,
    D4 k = 0, 1 and Q8 k = 0..7; and solve_trivialization returns None on
    every class holding a flagged element.  The ambient walk agrees with
    the element-by-element reference."""
    censuses = {}
    for name, ctx in _refusal_contexts():
        if name not in censuses:
            censuses[name] = subgroups_up_to_conjugacy(ctx.ambient)
        omega = ctx.omega  # built on each read
        flagged = _cyclic_invariants(omega)
        assert flagged.tolist() == [v != 0 for v in cyclic_invariants(omega)]
        for cls in censuses[name]:
            H = cls.rep
            on_H = _cyclic_invariants(restrict(omega, H))
            assert np.array_equal(on_H, flagged[H.to_parent]), (name, H.elements)
            if on_H.any():
                assert solve_trivialization(omega, H, ctx.modulus) is None


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_cyclic_obstruction_is_complete_on_cyclic_groups(n):
    """H^3(Z_n, C*) = Z_n, and the invariant tells its classes from 0: it
    fires on k times the generator exactly when k is not 0 mod n, at the
    generator's modulus and embedded at a larger one."""
    h3 = cohomology_cstar(cyclic(n), 3)
    assert h3.invariant_factors == [n] and h3.generators[0].modulus == n
    # on the generator 1 of Z_n the invariant of the generator is a unit
    assert gcd(cyclic_invariants(h3.generators[0])[1], n) == 1
    for k in range(2 * n):
        f = h3.generators[0].scale(k)
        assert _cyclic_obstruction(f) == (k % n != 0), k
        assert _cyclic_obstruction(f.embed(n * f.modulus)) == (k % n != 0), k


@pytest.mark.parametrize("name", ["Z4", "S3", "D4", "Q8"])
def test_cyclic_obstruction_never_fires_on_a_coboundary(name):
    G = group_from_spec(name)
    for seed in range(5):
        for M in (G.order, G.order**2):
            assert not _cyclic_obstruction(coboundary(rng_cochain(G, 2, M, seed)))


def test_classes_the_invariant_does_not_decide_reach_the_factored_solve(monkeypatch):
    """On the Q8 double at k = 4, omega|_H on census classes 26 and 45 (order
    8) is nonzero and trivial on every cyclic subgroup, yet not a coboundary:
    solve_trivialization refuses them through one slice-system factorization
    each."""
    ctx = double_context(group_from_spec("Q8"), 4)
    census = subgroups_up_to_conjugacy(ctx.ambient)
    factored = []
    real_smith = tdmc.cohomology.smith_form_mod

    def smith(A, M, *args, **kwargs):
        factored.append(A.shape)
        return real_smith(A, M, *args, **kwargs)

    monkeypatch.setattr(tdmc.cohomology, "smith_form_mod", smith)
    for ci in (26, 45):
        H = census[ci].rep
        fH = restrict(ctx.omega, H)
        assert H.order == 8 and not fH.is_zero() and not _cyclic_obstruction(fH)
        factored.clear()
        assert solve_trivialization(ctx.omega, H, ctx.modulus) is None
        assert len(factored) == 1, ci
