"""Exact linear algebra over Z/M for arbitrary composite M.

Z/M is a principal ideal ring, so every matrix has a Smith-like diagonal form
D = U A V with U, V invertible mod M and diagonal entries that are divisors of
M forming a divisibility chain.  All arithmetic stays in [0, M), so there is
no integer coefficient blowup.  The two facts that make the classical
algorithm work unchanged are:

* for any a there is a unit u with u*a = gcd(a, M)  (mod M), and
* the integer extended-gcd row transform [[x, y], [-b/g, a/g]] has
  determinant 1, hence is invertible mod M.

Entry bound: inner products are accumulated in int64, which is safe for
M up to ~10**6 and a few thousand terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "xgcd",
    "unit_stabilizer",
    "SmithForm",
    "smith_form_mod",
    "solve_mod",
    "kernel_mod",
    "AbelianQuotient",
    "abelian_quotient",
]


def xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def unit_stabilizer(a: int, M: int) -> int:
    """Return a unit u mod M with u*a = gcd(a, M) (mod M).

    Args:
        a: any residue (0 <= a < M is not required; reduced internally).
        M: modulus >= 1.

    Returns:
        u with gcd(u, M) = 1 and (u * a) % M == gcd(a, M) % M.
    """
    if M == 1:
        return 0
    a %= M
    g = gcd(a, M)
    if a == 0:
        return 1
    c = a // g
    step = M // g
    u0 = pow(c, -1, step)
    u = u0
    while gcd(u, M) != 1:
        u += step
    return u % M


class _Worker:
    """Mutable elimination state: the matrix plus whichever transforms are tracked."""

    def __init__(
        self,
        A: np.ndarray,
        M: int,
        rhs: Optional[np.ndarray],
        want_transforms: bool,
    ) -> None:
        self.M = M
        self.A = np.asarray(A, dtype=np.int64).copy() % M
        m, n = self.A.shape
        self.R = None if rhs is None else np.asarray(rhs, dtype=np.int64).copy() % M
        self.V = np.eye(n, dtype=np.int64)
        self.U = np.eye(m, dtype=np.int64) if want_transforms else None
        self.Uinv = np.eye(m, dtype=np.int64) if want_transforms else None

    # --- row operations (applied to A, R, U; inverse column ops to Uinv) ---

    def row_swap(self, i: int, j: int) -> None:
        if i == j:
            return
        for mat in (self.A, self.R, self.U):
            if mat is not None:
                mat[[i, j], :] = mat[[j, i], :]
        if self.Uinv is not None:
            self.Uinv[:, [i, j]] = self.Uinv[:, [j, i]]

    def row_scale(self, i: int, u: int) -> None:
        M = self.M
        for mat in (self.A, self.R, self.U):
            if mat is not None:
                mat[i, :] = (mat[i, :] * u) % M
        if self.Uinv is not None:
            uinv = pow(int(u), -1, M) if M > 1 else 0
            self.Uinv[:, i] = (self.Uinv[:, i] * uinv) % M

    def row_addmul(self, i: int, j: int, q: int) -> None:
        """row_i += q * row_j."""
        M = self.M
        for mat in (self.A, self.R, self.U):
            if mat is not None:
                mat[i, :] = (mat[i, :] + q * mat[j, :]) % M
        if self.Uinv is not None:
            self.Uinv[:, j] = (self.Uinv[:, j] - q * self.Uinv[:, i]) % M

    def rows_clear(self, pivot: int, rows: np.ndarray, quotients: np.ndarray) -> None:
        """row_i -= q_i * row_pivot for many rows at once."""
        M = self.M
        for mat in (self.A, self.R, self.U):
            if mat is not None:
                mat[rows, :] = (mat[rows, :] - quotients[:, None] * mat[pivot, :]) % M
        if self.Uinv is not None:
            self.Uinv[:, pivot] = (
                self.Uinv[:, pivot] + self.Uinv[:, rows] @ quotients
            ) % M

    def rows_combine(self, i: int, j: int, col: int) -> None:
        """Det-1 transform on rows (i, j) making A[i, col] = gcd of the two entries."""
        M = self.M
        a, b = int(self.A[i, col]), int(self.A[j, col])
        g, x, y = xgcd(a, b)
        p, q = a // g, b // g
        for mat in (self.A, self.R, self.U):
            if mat is not None:
                ri = (x * mat[i, :] + y * mat[j, :]) % M
                rj = (-q * mat[i, :] + p * mat[j, :]) % M
                mat[i, :], mat[j, :] = ri, rj
        if self.Uinv is not None:
            ci = (p * self.Uinv[:, i] + q * self.Uinv[:, j]) % M
            cj = (-y * self.Uinv[:, i] + x * self.Uinv[:, j]) % M
            self.Uinv[:, i], self.Uinv[:, j] = ci, cj

    # --- column operations (applied to A and V only) ---

    def col_swap(self, i: int, j: int) -> None:
        if i == j:
            return
        self.A[:, [i, j]] = self.A[:, [j, i]]
        self.V[:, [i, j]] = self.V[:, [j, i]]

    def cols_clear(self, pivot: int, cols: np.ndarray, quotients: np.ndarray) -> None:
        """col_j -= q_j * col_pivot for many columns at once."""
        M = self.M
        self.A[:, cols] = (self.A[:, cols] - self.A[:, [pivot]] * quotients[None, :]) % M
        self.V[:, cols] = (self.V[:, cols] - self.V[:, [pivot]] * quotients[None, :]) % M

    def cols_combine(self, i: int, j: int, row: int) -> None:
        """Det-1 transform on columns (i, j) making A[row, i] = gcd of the two."""
        M = self.M
        a, b = int(self.A[row, i]), int(self.A[row, j])
        g, x, y = xgcd(a, b)
        p, q = a // g, b // g
        ci = (x * self.A[:, i] + y * self.A[:, j]) % M
        cj = (-q * self.A[:, i] + p * self.A[:, j]) % M
        self.A[:, i], self.A[:, j] = ci, cj
        vi = (x * self.V[:, i] + y * self.V[:, j]) % M
        vj = (-q * self.V[:, i] + p * self.V[:, j]) % M
        self.V[:, i], self.V[:, j] = vi, vj


@dataclass
class SmithForm:
    """Diagonalization U A V = diag(d_1, ..., d_t) over Z/M with d_1 | d_2 | ... | M.

    diag entries are positive divisors of M; a zero row/column contributes no
    entry.  V is always present; U/Uinv only when requested; rhs is the
    row-transformed right-hand side (U @ rhs) when one was supplied.
    """

    M: int
    shape: Tuple[int, int]
    diag: List[int]
    V: np.ndarray
    rhs: Optional[np.ndarray] = None
    U: Optional[np.ndarray] = None
    Uinv: Optional[np.ndarray] = None


def _gcd_with_modulus(A: np.ndarray, M: int) -> np.ndarray:
    g = np.gcd(A, M)
    g[g == 0] = M
    return g


def smith_form_mod(
    A: Sequence[Sequence[int]] | np.ndarray,
    M: int,
    rhs: Optional[np.ndarray] = None,
    want_transforms: bool = False,
) -> SmithForm:
    """Diagonalize A over Z/M.

    Args:
        A: an (m, n) integer matrix (interpreted mod M).
        M: modulus >= 1.
        rhs: optional (m,) or (m, r) right-hand side; the returned ``rhs`` has
            had every row transform applied (i.e. it equals U @ rhs).
        want_transforms: track U and its inverse explicitly (costs O(m^2)
            memory; only needed by the quotient construction).

    Returns:
        A SmithForm; diagonal entries are normalized to divisors of M and form
        a divisibility chain.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    if rhs is not None and rhs.ndim == 1:
        rhs = rhs.reshape(-1, 1)
    w = _Worker(A, M, rhs, want_transforms)
    m, n = w.A.shape
    t = 0
    limit = min(m, n)
    while t < limit:
        sub = w.A[t:, t:]
        if not sub.any():
            break
        # choose the entry whose ideal (gcd with M) is largest, i.e. gcd smallest
        gcds = _gcd_with_modulus(sub, M)
        i, j = np.unravel_index(int(np.argmin(gcds)), gcds.shape)
        w.row_swap(t, t + int(i))
        w.col_swap(t, t + int(j))
        while True:
            a = int(w.A[t, t])
            d = gcd(a, M)
            if a != d:
                w.row_scale(t, unit_stabilizer(a, M))
                d = int(w.A[t, t])
            if d == 0 or (M > 1 and d % M == 0):
                # pivot vanished mod M; restart pivot selection
                sub = w.A[t:, t:]
                if not sub.any():
                    break
                gcds = _gcd_with_modulus(sub, M)
                i, j = np.unravel_index(int(np.argmin(gcds)), gcds.shape)
                w.row_swap(t, t + int(i))
                w.col_swap(t, t + int(j))
                continue
            col = w.A[t + 1 :, t]
            bad = np.nonzero(col % d)[0]
            if bad.size:
                w.rows_combine(t, t + 1 + int(bad[0]), t)
                continue
            row = w.A[t, t + 1 :]
            bad = np.nonzero(row % d)[0]
            if bad.size:
                w.cols_combine(t, t + 1 + int(bad[0]), t)
                continue
            # clear the pivot column and row
            rows = t + 1 + np.nonzero(col)[0]
            if rows.size:
                w.rows_clear(t, rows, w.A[rows, t] // d)
            cols = t + 1 + np.nonzero(w.A[t, t + 1 :])[0]
            if cols.size:
                w.cols_clear(t, cols, w.A[t, cols] // d)
            # divisibility condition: the pivot must divide the rest of the matrix
            interior = w.A[t + 1 :, t + 1 :]
            off = np.nonzero(interior % d)
            if off[0].size:
                w.row_addmul(t, t + 1 + int(off[0][0]), 1)
                continue
            break
        if not w.A[t:, t:].any():
            if int(w.A[t, t]) == 0:
                break
        t += 1
    diag = [int(w.A[i, i]) for i in range(min(m, n)) if int(w.A[i, i]) != 0]
    return SmithForm(
        M=M,
        shape=(m, n),
        diag=diag,
        V=w.V,
        rhs=w.R,
        U=w.U,
        Uinv=w.Uinv,
    )


def solve_mod(
    A: np.ndarray, b: np.ndarray, M: int, form: Optional[SmithForm] = None
) -> Optional[np.ndarray]:
    """Solve A x = b over Z/M; return a deterministic solution or None.

    Free coordinates are set to zero, so the answer is reproducible run to
    run.  ``form`` may pass a precomputed smith_form_mod(A, M,
    want_transforms=True), so that many right-hand sides share one
    factorization.
    """
    b = np.asarray(b, dtype=np.int64)
    if form is None:
        form = smith_form_mod(A, M, rhs=b)
        bprime = form.rhs[:, 0]
    else:
        bprime = (form.U @ (b % M)) % M
    m, n = form.shape
    z = np.zeros(n, dtype=np.int64)
    for i, d in enumerate(form.diag):
        c = int(bprime[i]) % M
        if c % d:
            return None
        z[i] = c // d
    for i in range(len(form.diag), m):
        if int(bprime[i]) % M:
            return None
    return (form.V @ z) % M


def kernel_mod(A: np.ndarray, M: int, form: Optional[SmithForm] = None) -> np.ndarray:
    """Columns generating {x : A x = 0 mod M} as a Z/M-module (shape (n, k))."""
    if form is None:
        form = smith_form_mod(A, M)
    m, n = form.shape
    cols = []
    for i in range(n):
        d = form.diag[i] if i < len(form.diag) else M
        mult = M // d
        if mult % M == 0 and M > 1:
            continue
        cols.append((form.V[:, i] * mult) % M)
    if not cols:
        return np.zeros((n, 0), dtype=np.int64)
    return np.stack(cols, axis=1)


@dataclass
class AbelianQuotient:
    """The quotient (Z/M)^k / <columns of a relation matrix>.

    invariant_factors: d_1 | d_2 | ... (trivial factors dropped).
    generator_coords: one column per invariant factor; coordinates (in the
        ambient (Z/M)^k) of a representative generating that cyclic factor.
    """

    M: int
    k: int
    invariant_factors: List[int]
    generator_coords: np.ndarray
    _U: np.ndarray
    _kept: List[int]

    def lookup(self, vec: np.ndarray) -> Tuple[int, ...]:
        """Coordinates of the class of ``vec`` along the invariant factors."""
        w = (self._U @ (np.asarray(vec, dtype=np.int64) % self.M)) % self.M
        return tuple(
            int(w[i]) % f for i, f in zip(self._kept, self.invariant_factors)
        )

    @property
    def order(self) -> int:
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n


def abelian_quotient(k: int, relations: np.ndarray, M: int) -> AbelianQuotient:
    """Structure of (Z/M)^k modulo the subgroup generated by relation columns.

    Args:
        k: rank of the ambient free Z/M-module.
        relations: (k, r) matrix whose columns generate the subgroup to kill
            (r = 0 is allowed).
        M: modulus >= 1.

    Returns:
        An AbelianQuotient with invariant factors in a divisibility chain,
        generator coordinates, and an exact lookup map.
    """
    if k == 0:
        return AbelianQuotient(
            M=M,
            k=0,
            invariant_factors=[],
            generator_coords=np.zeros((0, 0), dtype=np.int64),
            _U=np.zeros((0, 0), dtype=np.int64),
            _kept=[],
        )
    relations = np.asarray(relations, dtype=np.int64).reshape(k, -1)
    form = smith_form_mod(relations, M, want_transforms=True)
    factors: List[int] = []
    kept: List[int] = []
    for i in range(k):
        d = form.diag[i] if i < len(form.diag) else M
        if d != 1:
            factors.append(d)
            kept.append(i)
    gens = form.Uinv[:, kept] if kept else np.zeros((k, 0), dtype=np.int64)
    return AbelianQuotient(
        M=M,
        k=k,
        invariant_factors=factors,
        generator_coords=gens,
        _U=form.U,
        _kept=kept,
    )
