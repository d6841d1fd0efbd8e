"""Brute-force cross-checks for the Z/M linear algebra kernel.

Everything here is verified against exhaustive enumeration on tiny instances,
so the fancy elimination code is never trusted on its own word.
"""

from __future__ import annotations

import itertools
import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tdmc.cohomology import cohomology_mod
from tdmc.errors import SizeBound
from tdmc.groups import group_from_spec
from tdmc.linalg import (
    _check_headroom,
    abelian_quotient,
    kernel_mod,
    smith_form_mod,
    solve_mod,
    unit_stabilizer,
    xgcd,
)

MODULI = [2, 3, 4, 6, 8, 9, 12]


@given(st.integers(-200, 200), st.integers(-200, 200))
def test_xgcd_bezout(a, b):
    g, x, y = xgcd(a, b)
    assert g == gcd(a, b)
    assert x * a + y * b == g


@given(st.integers(0, 400), st.integers(1, 144))
def test_unit_stabilizer(a, M):
    u = unit_stabilizer(a, M)
    if M == 1:
        assert u == 0
        return
    assert gcd(u, M) == 1
    assert (u * a) % M == gcd(a % M, M) % M


def _random_matrix(rng, m, n, M):
    return rng.integers(0, M, size=(m, n), dtype=np.int64)


def test_smith_diagonalizes():
    rng = np.random.default_rng(7)
    for M in MODULI:
        for _ in range(25):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            A = _random_matrix(rng, m, n, M)
            form = smith_form_mod(A, M, want_transforms=True)
            D = (form.U @ A @ form.V) % M
            expected = np.zeros((m, n), dtype=np.int64)
            for i, d in enumerate(form.diag):
                expected[i, i] = d % M
            assert np.array_equal(D, expected)
            # U is invertible and Uinv really is its inverse
            assert np.array_equal((form.U @ form.Uinv) % M, np.eye(m, dtype=np.int64) % M)
            # invariant chain: each entry divides M and the next entry
            for d in form.diag:
                assert M % d == 0
            for d1, d2 in zip(form.diag, form.diag[1:]):
                assert d2 % d1 == 0


def _all_vectors(n, M):
    return [np.array(v, dtype=np.int64) for v in itertools.product(range(M), repeat=n)]


def test_solve_matches_exhaustive_search():
    rng = np.random.default_rng(11)
    for M in [2, 3, 4, 6]:
        for _ in range(12):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            A = _random_matrix(rng, m, n, M)
            attainable = {tuple((A @ x) % M) for x in _all_vectors(n, M)}
            for b in _all_vectors(m, M):
                x = solve_mod(A, b, M)
                if tuple(b) in attainable:
                    assert x is not None
                    assert np.array_equal((A @ x) % M, b)
                else:
                    assert x is None


def test_kernel_matches_exhaustive_search():
    rng = np.random.default_rng(13)
    for M in [2, 3, 4, 6]:
        for _ in range(12):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            A = _random_matrix(rng, m, n, M)
            true_kernel = {
                tuple(x) for x in _all_vectors(n, M) if not ((A @ x) % M).any()
            }
            K = kernel_mod(A, M)
            for col in K.T:
                assert tuple(col) in true_kernel
            spanned = set()
            for coeffs in itertools.product(range(M), repeat=K.shape[1]):
                v = (K @ np.array(coeffs, dtype=np.int64)) % M if K.shape[1] else np.zeros(n, dtype=np.int64)
                spanned.add(tuple(v))
            assert spanned == true_kernel


def _subgroup_generated(columns, M, k):
    """All elements of the subgroup of (Z/M)^k generated by the given columns."""
    seen = {(0,) * k}
    frontier = [(0,) * k]
    gens = [tuple(int(c) % M for c in col) for col in columns.T]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = tuple((a + b) % M for a, b in zip(v, g))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def test_quotient_structure_exhaustive():
    rng = np.random.default_rng(17)
    for M in [2, 3, 4, 6]:
        for _ in range(10):
            k = int(rng.integers(1, 4))
            r = int(rng.integers(0, 4))
            rels = _random_matrix(rng, k, r, M)
            q = abelian_quotient(k, rels, M)
            sub = _subgroup_generated(rels, M, k)
            assert q.order * len(sub) == M**k
            # relations die
            for col in rels.T:
                assert q.lookup(col) == (0,) * len(q.invariant_factors)
            # lookup is additive
            for _ in range(8):
                u = rng.integers(0, M, size=k, dtype=np.int64)
                v = rng.integers(0, M, size=k, dtype=np.int64)
                lu, lv, luv = q.lookup(u), q.lookup(v), q.lookup((u + v) % M)
                assert luv == tuple(
                    (a + b) % f for a, b, f in zip(lu, lv, q.invariant_factors)
                )
            # generators hit unit vectors
            for i in range(len(q.invariant_factors)):
                coords = q.lookup(q.generator_coords[:, i])
                want = tuple(
                    1 if j == i else 0 for j in range(len(q.invariant_factors))
                )
                assert coords == want
            # lookup kernel is exactly the subgroup
            zero = (0,) * len(q.invariant_factors)
            for v in _all_vectors(k, M):
                assert (q.lookup(v) == zero) == (tuple(v) in sub)


def test_quotient_known_cases():
    q = abelian_quotient(1, np.array([[2]]), 4)
    assert q.invariant_factors == [2]

    q = abelian_quotient(1, np.zeros((1, 0), dtype=np.int64), 4)
    assert q.invariant_factors == [4]

    # (Z/12)^2 / <(4,0),(0,6)>  has order 24 = 2 * 12
    q = abelian_quotient(2, np.array([[4, 0], [0, 6]]), 12)
    assert q.invariant_factors == [2, 12]

    # (Z/6)^2 / <(3,0)>  =  Z/3 + Z/6
    q = abelian_quotient(2, np.array([[3], [0]]), 6)
    assert q.invariant_factors == [3, 6]

    # full relations kill everything
    q = abelian_quotient(2, np.eye(2, dtype=np.int64), 6)
    assert q.invariant_factors == []
    assert q.order == 1


def test_solve_is_deterministic():
    A = np.array([[2, 4, 0], [0, 0, 3]], dtype=np.int64)
    b = np.array([2, 3], dtype=np.int64)
    first = solve_mod(A, b, 6)
    second = solve_mod(A, b, 6)
    assert first is not None
    assert np.array_equal(first, second)


@settings(max_examples=60)
@given(st.integers(2, 12), st.integers(1, 3), st.integers(1, 3), st.data())
def test_smith_transform_property(M, m, n, data):
    entries = data.draw(
        st.lists(st.integers(0, M - 1), min_size=m * n, max_size=m * n)
    )
    A = np.array(entries, dtype=np.int64).reshape(m, n)
    form = smith_form_mod(A, M, want_transforms=True)
    D = (form.U @ A @ form.V) % M
    off_diag = D.copy()
    for i in range(min(m, n)):
        off_diag[i, i] = 0
    assert not off_diag.any()


# The moduli the engine reaches (|G|, |G|^2 and T_N moduli of the benchmark
# groups) plus small composites with incomparable prime-power parts.
ENGINE_MODULI = [16, 81, 256, 1296, 4096, 6, 12, 18, 36]


@st.composite
def engine_systems(draw):
    """Tall sparse {-1, 0, 1} matrices like the slice systems, up to 60x12.

    Rows and columns are scaled by divisors of M, so pivots are often not
    units and, for composite M, entries with incomparable gcds force the
    row-combine, column-combine and interior-divisibility steps.
    """
    M = draw(st.sampled_from(ENGINE_MODULI))
    m = draw(st.integers(1, 60))
    n = draw(st.integers(1, 12))
    A = draw(arrays(np.int64, (m, n), elements=st.integers(-1, 1)))
    divisors = [d for d in range(1, min(M, 50)) if M % d == 0]
    rs = draw(arrays(np.int64, (m, 1), elements=st.sampled_from(divisors)))
    cs = draw(arrays(np.int64, (1, n), elements=st.sampled_from(divisors)))
    x0 = draw(arrays(np.int64, (n, 2), elements=st.integers(0, M - 1)))
    R = draw(arrays(np.int64, (m, 2), elements=st.integers(0, M - 1)))
    return M, (A * rs * cs) % M, x0, R


def _matmul_mod(*mats, M):
    out = mats[0] % M
    for mat in mats[1:]:
        out = (out @ (mat % M)) % M
    return out


@settings(max_examples=150, deadline=None)
@given(engine_systems())
def test_smith_at_engine_moduli(system):
    M, A, x0, R = system
    m, n = A.shape
    form = smith_form_mod(A, M, rhs=R, want_transforms=True)
    expected = np.zeros((m, n), dtype=np.int64)
    for i, d in enumerate(form.diag):
        expected[i, i] = d
    assert np.array_equal(_matmul_mod(form.U, A, form.V, M=M), expected)
    for d in form.diag:
        assert 0 < d < M and M % d == 0
    for d1, d2 in zip(form.diag, form.diag[1:]):
        assert d2 % d1 == 0
    assert np.array_equal(_matmul_mod(form.U, form.Uinv, M=M), np.eye(m, dtype=np.int64))
    assert np.array_equal(form.rhs, _matmul_mod(form.U, R, M=M))
    # tracking U changes no choice
    plain = smith_form_mod(A, M)
    assert plain.diag == form.diag and np.array_equal(plain.V, form.V)

    B = _matmul_mod(A, x0, M=M)
    X = solve_mod(A, B, M)
    assert X is not None and np.array_equal(_matmul_mod(A, X, M=M), B)
    for j in range(B.shape[1]):
        x = solve_mod(A, B[:, j], M)
        assert np.array_equal(x, X[:, j])
        assert np.array_equal(solve_mod(A, B[:, j], M, form=form), x)

    K = kernel_mod(A, M)
    assert K.shape[0] == n
    assert not _matmul_mod(A, K, M=M).any()
    assert np.array_equal(kernel_mod(A, M, form=form), K)


def test_solve_mod_columns_all_or_nothing():
    A = np.array([[2, 0], [0, 3]], dtype=np.int64)
    B = np.array([[2, 1], [3, 0]], dtype=np.int64)  # second column: 2x = 1 mod 6
    assert solve_mod(A, B[:, 0], 6) is not None
    assert solve_mod(A, B[:, 1], 6) is None
    assert solve_mod(A, B, 6) is None


def test_int64_headroom_is_enforced():
    A = np.ones((1, 1), dtype=np.int64)
    M = 2**32  # M**2 * 2 >= 2**63: rejected before any elimination
    for call in (
        lambda: smith_form_mod(A, M),
        lambda: solve_mod(A, np.ones(1, dtype=np.int64), M),
        lambda: kernel_mod(A, M),
    ):
        with pytest.raises(SizeBound, match=r"modulus 4294967296 with a 1x1 matrix"):
            call()
    # the bound is M**2 * (max(m, n) + 1) < 2**63, checked without allocating
    _check_headroom(2**20, (2**23 - 2, 1))
    with pytest.raises(SizeBound, match=r"8388607x1"):
        _check_headroom(2**20, (2**23 - 1, 1))


def test_large_modulus_allocates_nothing_sized_by_m():
    """M within the headroom but far above the engine's moduli: the work and
    memory of a call follow the matrix, not M."""
    M = 2**30
    tracemalloc.start()
    try:
        form = smith_form_mod([[1]], M, want_transforms=True)
        assert form.diag == [1]
        assert solve_mod([[3]], np.array([6]), M).tolist() == [2]
        H = cohomology_mod(group_from_spec("Z2"), 2, 10**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert H.invariant_factors == [2]
    assert peak < 2**20
