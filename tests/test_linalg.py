"""Brute-force cross-checks for the Z/M linear algebra kernel.

Everything here is verified against exhaustive enumeration on tiny instances,
so the fancy elimination code is never trusted on its own word.
"""

from __future__ import annotations

import itertools
import tracemalloc
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import smith_form_full_block
from tdmc import linalg
from tdmc.cohomology import cohomology_mod
from tdmc.errors import SizeBound
from tdmc.groups import group_from_spec
from tdmc.linalg import (
    _ADDMUL,
    _BAND_CELLS,
    _CLEAR,
    _COMBINE,
    _DENSE_ROWS,
    _SCALE,
    _SWAP,
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
            form = smith_form_mod(A, M)
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
    form = smith_form_mod(A, M)
    D = (form.U @ A @ form.V) % M
    off_diag = D.copy()
    for i in range(min(m, n)):
        off_diag[i, i] = 0
    assert not off_diag.any()


# The moduli the engine reaches (|G| and |G|^2 of the benchmark groups) plus small composites with incomparable prime-power parts.
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


def _elementary(op, m):
    """The m x m matrix of one recorded row operation, written out literally."""
    E = np.eye(m, dtype=np.int64)
    tag = op[0]
    if tag == _SWAP:
        _, i, j = op
        E[[i, j]] = E[[j, i]]
    elif tag == _SCALE:
        _, i, u = op
        E[i, i] = u
    elif tag == _ADDMUL:
        _, i, j, q = op
        E[i, j] += q
    elif tag == _CLEAR:
        _, t, rows, q = op
        E[rows, t] -= q.ravel()
    else:
        assert tag == _COMBINE
        _, i, j, x, y, p, q = op
        E[[i, i, j, j], [i, j, i, j]] = [x, y, -q, p]
    return E


def _literal_replay(form, b):
    """U @ b as the product of the recorded operations' matrices, first op first."""
    out = np.asarray(b, dtype=np.int64) % form.M
    for op in form.ops:
        out = _matmul_mod(_elementary(op, form.shape[0]), out, M=form.M)
    return out


def _check_transforms(form, A, R):
    """U A V = D with the derived U, U Uinv = I, and apply_rows is the
    literal replay of the record, on several columns and on each alone."""
    M, (m, n) = form.M, A.shape
    expected = np.zeros((m, n), dtype=np.int64)
    for i, d in enumerate(form.diag):
        expected[i, i] = d
    assert np.array_equal(_matmul_mod(form.U, A, form.V, M=M), expected)
    assert np.array_equal(_matmul_mod(form.U, form.Uinv, M=M), np.eye(m, dtype=np.int64))
    assert form.U is form.U and form.Uinv is form.Uinv  # derived once, then kept
    UR = _literal_replay(form, R)
    R_before = R.copy()
    assert np.array_equal(form.apply_rows(R), UR)
    assert np.array_equal(form.apply_rows(R), UR)  # as often as asked
    assert np.array_equal(R, R_before)
    for j in range(R.shape[1]):
        assert np.array_equal(form.apply_rows(R[:, j]), UR[:, j])


@settings(max_examples=150, deadline=None)
@given(engine_systems())
def test_smith_at_engine_moduli(system):
    M, A, x0, R = system
    form = smith_form_mod(A, M)
    for d in form.diag:
        assert 0 < d < M and M % d == 0
    for d1, d2 in zip(form.diag, form.diag[1:]):
        assert d2 % d1 == 0
    _check_transforms(form, A, R)

    B = _matmul_mod(A, x0, M=M)
    X = solve_mod(A, B, M)
    assert X is not None and np.array_equal(_matmul_mod(A, X, M=M), B)
    for j in range(B.shape[1]):
        x = solve_mod(A, B[:, j], M)
        assert np.array_equal(x, X[:, j])
        assert np.array_equal(solve_mod(A, B[:, j], M, form=form), x)
    assert np.array_equal(solve_mod(A, B, M, form=form), X)
    for j in range(R.shape[1]):  # unsolvable right-hand sides agree too
        alone = solve_mod(A, R[:, j], M)
        shared = solve_mod(A, R[:, j], M, form=form)
        assert (alone is None and shared is None) or np.array_equal(alone, shared)

    K = kernel_mod(A, M)
    assert K.shape[0] == A.shape[1]
    assert not _matmul_mod(A, K, M=M).any()
    assert np.array_equal(kernel_mod(A, M, form=form), K)


def _divisors_above_one(M):
    """The two least divisors of M above 1."""
    ds = [d for d in range(2, M) if M % d == 0]
    return ds[0], ds[1]


def _tall_sparse(rng, M, height, width, scale):
    """scale * (a {-1, 0, 1} matrix with about one nonzero entry in five), mod M."""
    B = rng.choice([-1, 0, 0, 0, 0, 0, 0, 0, 0, 1], size=(height, width))
    return (scale * B) % M


def _pivot_band_cases(M):
    """(label, matrix, first pivot row or None) tall sparse systems at modulus M."""
    rng = np.random.default_rng(M)
    p, q = _divisors_above_one(M)  # p < q, both proper divisors of M
    cases = []
    for height, width in ((1500, 4), (700, 8), (600, 16)):
        band = _BAND_CELLS // width
        # the unit lies only in the second band; the first band's minimum is p
        A = _tall_sparse(rng, M, height, width, q)
        A[5, 0] = p
        A[band + 7, width - 1] = 1
        cases.append((f"unit in band 2 ({height}x{width})", A, band + 7))
        # no band reaches the bound 1; the minimum p lies only in the second band
        A = _tall_sparse(rng, M, height, width, q)
        A[band + 3, 1] = p
        cases.append((f"minimum above the bound in band 2 ({height}x{width})", A, band + 3))
        # ties straddle the boundary of the first two bands, above and at the bound
        for low in (p, 1):
            A = _tall_sparse(rng, M, height, width, q)
            A[band - 1, width - 1] = low
            A[band, 0] = low
            cases.append((f"tie {low} across bands ({height}x{width})", A, band - 1))
        # every entry a multiple of p: the bound d_{t-1} is above 1 from t = 1
        # on; the first band holds only multiples of a larger divisor r when M
        # has one that p divides
        r = next((d for d in range(p + 1, M) if M % d == 0 and d % p == 0), p)
        A = _tall_sparse(rng, M, height, width, p)
        A[:band] = _tall_sparse(rng, M, band, width, r)
        cases.append((f"bound above 1 ({height}x{width})", A, None))
    for height in (300, 900, 1500):  # engine-like: rows scaled by divisors of M
        width = int(rng.integers(4, 17))
        divisors = [d for d in range(1, M) if M % d == 0]
        rs = rng.choice(divisors, size=(height, 1))
        cases.append((f"random {height}x{width}", _tall_sparse(rng, M, height, width, rs), None))
    return cases


def _same_ops(a, b):
    return len(a) == len(b) and all(
        len(x) == len(y) and all(np.array_equal(u, v) for u, v in zip(x, y))
        for x, y in zip(a, b)
    )


@pytest.mark.parametrize("M", ENGINE_MODULI)
def test_banded_pivot_search_matches_full_block(M):
    """The band scan picks the pivot the full-block search picks, so the
    diagonal, V and the recorded row operations are the same."""
    p, _ = _divisors_above_one(M)
    for label, A, first_row in _pivot_band_cases(M):
        form = smith_form_mod(A, M)
        ref = smith_form_full_block(A, M)
        assert form.diag == ref.diag, label
        assert np.array_equal(form.V, ref.V), label
        assert _same_ops(form.ops, ref.ops), label
        if first_row is not None:  # the case is the one its label names
            assert form.ops[0][:2] == (_SWAP, 0) and form.ops[0][2] == first_row, label
        if label.startswith("bound above 1"):
            assert form.diag[0] >= p and len(form.diag) > 1, label


def _check_active_block(A, M):
    """Run smith_form_mod checking the active-block rule before every
    operation at step t: A[t:, :t] and A[:t, t:] are zero."""
    checked = []

    def guarded(method):
        def run(self, t, *args):
            assert not self.A[t:, :t].any(), (method.__name__, t)
            assert not self.A[:t, t:].any(), (method.__name__, t)
            checked.append(t)
            return method(self, t, *args)

        return run

    names = ("row_op", "col_op", "cols_clear")
    guards = {name: guarded(getattr(linalg._Worker, name)) for name in names}
    with mock.patch.multiple(linalg._Worker, **guards):
        form = smith_form_mod(A, M)
    assert len(checked) >= len(form.ops)  # every recorded operation was checked


@settings(max_examples=100, deadline=None)
@given(engine_systems())
def test_active_block_rule_at_engine_moduli(system):
    """Row operations run on A[:, t:] and column operations on A[t:] only,
    which is exact because the rest of those rows and columns is zero."""
    M, A, _, _ = system
    _check_active_block(A, M)


@pytest.mark.parametrize("M", ENGINE_MODULI)
def test_active_block_rule_on_tall_systems(M):
    for _, A, _ in _pivot_band_cases(M):
        _check_active_block(A, M)


def test_transforms_on_both_sides_of_the_dense_row_limit():
    """Up to _DENSE_ROWS rows apply_rows multiplies by the derived U; above,
    it replays the record and derives no U.  Either way U A V = D, U Uinv = I
    and apply_rows is the literal replay; the cases record all five kinds of
    row operation, so every inverse is exercised."""
    tags = set()
    for height, M in itertools.product(
        (_DENSE_ROWS, _DENSE_ROWS + 1, 3 * _DENSE_ROWS), ENGINE_MODULI
    ):
        rng = np.random.default_rng(M * height)
        width = int(rng.integers(4, 17))
        # no row scaled by a unit: pivots stay above 1, and composite M
        # meets incomparable gcds in one column
        divisors = [d for d in range(2, M) if M % d == 0]
        A = _tall_sparse(rng, M, height, width, rng.choice(divisors, size=(height, 1)))
        R = rng.integers(0, M, size=(height, 3), dtype=np.int64)
        form = smith_form_mod(A, M)
        form.apply_rows(R)
        assert ("U" in vars(form)) == (height <= _DENSE_ROWS)
        _check_transforms(form, A, R)
        tags.update(op[0] for op in form.ops)
    assert tags == {_SWAP, _SCALE, _ADDMUL, _CLEAR, _COMBINE}


def test_form_must_match_the_modulus():
    """A form computed mod 12 is refused mod 6, where 4 * 2 = 2 is solvable
    and the kernel of 4 is {0, 3}."""
    form = smith_form_mod([[4]], 12)
    with pytest.raises(ValueError, match=r"computed mod 12 cannot answer mod 6"):
        solve_mod([[4]], [2], 6, form=form)
    with pytest.raises(ValueError, match=r"computed mod 12 cannot answer mod 6"):
        kernel_mod([[4]], 6, form=form)
    x = solve_mod([[4]], [2], 6)
    assert x is not None and (4 * int(x[0])) % 6 == 2
    assert kernel_mod([[4]], 6).tolist() == [[3]]


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
        form = smith_form_mod([[1]], M)
        assert form.diag == [1]
        assert form.U.tolist() == [[1]] and form.Uinv.tolist() == [[1]]
        assert solve_mod([[3]], np.array([6]), M).tolist() == [2]
        H = cohomology_mod(group_from_spec("Z2"), 2, 10**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert H.invariant_factors == [2]
    assert peak < 2**20
