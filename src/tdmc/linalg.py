"""Exact linear algebra over Z/M for arbitrary composite M.

Z/M is a principal ideal ring, so every matrix has a Smith-like diagonal form
D = U A V with U, V invertible mod M and diagonal entries that are divisors of
M forming a divisibility chain.  All arithmetic stays in [0, M), so there is
no integer coefficient blowup.  The two facts that make the classical
algorithm work unchanged are:

* for any a there is a unit u with u*a = gcd(a, M)  (mod M), and
* the integer extended-gcd row transform [[x, y], [-b/g, a/g]] has
  determinant 1, hence is invertible mod M.

Pivot rule.  At step t the entry of the unfinished block A[t:, t:] with the
smallest gcd with M (the first in row-major order on ties) is swapped to
(t, t) and its row scaled by a unit to d = gcd(A[t, t], M).  Then, in this
order: the first entry below the pivot that d does not divide is combined
into row t by the extended-gcd transform; else the first such entry right of
the pivot, by the same transform on columns; else column t and row t are
cleared, and the first interior entry (row-major) that d does not divide has
its row added to row t.  Each of these restarts the step; when none applies,
the step is done.  The transforms U, V and the returned rhs depend only on
this sequence of choices.

The elimination skips work without changing a choice:

* the pivot search takes np.gcd(x, M) once per step over the block; it is
  M for x = 0, so a zero entry is never picked over a nonzero one;
* d = 1 divides every entry, so the three divisibility scans are skipped;
* rows and columns >= t of A are zero outside A[t:, t:] (earlier steps
  cleared them, and later operations combine only rows or columns >= t), so
  the row clear updates A only from column t on;
* after the row clear, column t of A is d * e_t, so the column clear just
  zeroes A[t, cols] and applies the column operations to V.

Entry bound: inner products accumulate at most max(m, n) + 1 products of
residues in int64, so smith_form_mod, solve_mod and kernel_mod raise
SizeBound when M**2 * (max(m, n) + 1) >= 2**63.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import SizeBound

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


def _check_headroom(M: int, shape: Tuple[int, ...]) -> None:
    """Raise SizeBound unless int64 inner products over Z/M are exact."""
    m, n = shape
    if M * M * (max(m, n) + 1) >= 2**63:
        raise SizeBound(
            f"modulus {M} with a {m}x{n} matrix overflows int64: "
            "M**2 * (max(m, n) + 1) must stay below 2**63"
        )


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

    def move_pivot(self, t: int) -> bool:
        """Swap the entry of A[t:, t:] with the smallest gcd with M to (t, t).

        Returns False, moving nothing, when the block is zero.
        """
        sub = self.A[t:, t:]
        g = np.gcd(sub, self.M)  # np.gcd(0, M) is M
        i, j = divmod(int(np.argmin(g)), g.shape[1])
        if g[i, j] == self.M:
            return False
        self.row_swap(t, t + int(i))
        self.col_swap(t, t + int(j))
        return True

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

    def rows_clear(self, t: int, rows: np.ndarray, quotients: np.ndarray) -> None:
        """row_i -= q_i * row_t for many rows i > t at once (A from column t on)."""
        M = self.M
        q = quotients[:, None]
        self.A[rows, t:] = (self.A[rows, t:] - q * self.A[t, t:]) % M
        for mat in (self.R, self.U):
            if mat is not None:
                mat[rows, :] = (mat[rows, :] - q * mat[t, :]) % M
        if self.Uinv is not None:
            self.Uinv[:, t] = (self.Uinv[:, t] + self.Uinv[:, rows] @ quotients) % M

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

    def cols_clear(self, t: int, cols: np.ndarray, quotients: np.ndarray) -> None:
        """col_j -= q_j * col_t for many columns j > t, once column t is d * e_t
        and d divides every A[t, j]: on A that only zeroes A[t, cols]."""
        self.A[t, cols] = 0
        self.V[:, cols] = (self.V[:, cols] - self.V[:, [t]] * quotients[None, :]) % self.M

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


def smith_form_mod(
    A: Sequence[Sequence[int]] | np.ndarray,
    M: int,
    rhs: Optional[np.ndarray] = None,
    want_transforms: bool = False,
) -> SmithForm:
    """Diagonalize A over Z/M by the pivot rule of the module docstring.

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

    Raises:
        SizeBound: M**2 * (max(m, n) + 1) >= 2**63.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    _check_headroom(M, A.shape)
    if rhs is not None and rhs.ndim == 1:
        rhs = rhs.reshape(-1, 1)
    w = _Worker(A, M, rhs, want_transforms)
    m, n = w.A.shape
    for t in range(min(m, n)):
        if not w.move_pivot(t):
            break
        # A[t, t] is nonzero from here on: every transform below keeps it a
        # gcd of nonzero residues, or adds a row that is zero in column t.
        while True:
            a = int(w.A[t, t])
            d = gcd(a, M)
            if a != d:
                w.row_scale(t, unit_stabilizer(a, M))
            if d != 1:
                bad = np.flatnonzero(w.A[t + 1 :, t] % d)
                if bad.size:
                    w.rows_combine(t, t + 1 + int(bad[0]), t)
                    continue
                bad = np.flatnonzero(w.A[t, t + 1 :] % d)
                if bad.size:
                    w.cols_combine(t, t + 1 + int(bad[0]), t)
                    continue
            rows = t + 1 + np.flatnonzero(w.A[t + 1 :, t])
            if rows.size:
                w.rows_clear(t, rows, w.A[rows, t] // d)
            cols = t + 1 + np.flatnonzero(w.A[t, t + 1 :])
            if cols.size:
                w.cols_clear(t, cols, w.A[t, cols] // d)
            if d != 1:
                # divisibility condition: the pivot must divide the rest
                off = np.flatnonzero(w.A[t + 1 :, t + 1 :] % d)
                if off.size:
                    w.row_addmul(t, t + 1 + int(off[0]) // (n - t - 1), 1)
                    continue
            break
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

    b may be one (m,) right-hand side or several as the columns of an (m, r)
    array; the answer then has shape (n, r), and is None unless every column
    is solvable.  All columns share one factorization, and each column's
    answer equals solving it alone.  Free coordinates are set to zero, so the
    answer is reproducible run to run.  ``form`` may pass a precomputed
    smith_form_mod(A, M, want_transforms=True).

    Raises:
        SizeBound: M**2 * (max(m, n) + 1) >= 2**63.
    """
    b = np.asarray(b, dtype=np.int64)
    cols = b[:, None] if b.ndim == 1 else b
    if form is None:
        form = smith_form_mod(A, M, rhs=cols)
        bprime = form.rhs
    else:
        _check_headroom(M, form.shape)
        bprime = (form.U @ (cols % M)) % M
    m, n = form.shape
    k = len(form.diag)
    d = np.array(form.diag, dtype=np.int64)[:, None]
    if (bprime[:k] % d).any() or bprime[k:].any():
        return None
    z = np.zeros((n, cols.shape[1]), dtype=np.int64)
    z[:k] = bprime[:k] // d
    x = (form.V @ z) % M
    return x[:, 0] if b.ndim == 1 else x


def kernel_mod(A: np.ndarray, M: int, form: Optional[SmithForm] = None) -> np.ndarray:
    """Columns generating {x : A x = 0 mod M} as a Z/M-module (shape (n, k)).

    Raises:
        SizeBound: M**2 * (max(m, n) + 1) >= 2**63.
    """
    if form is None:
        form = smith_form_mod(A, M)
    else:
        _check_headroom(M, form.shape)
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
