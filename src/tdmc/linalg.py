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
the step is done.  The transforms U and V depend only on this sequence of
choices, and every choice reads only the entries of A.

Recorded row operations.  The row transform is kept in one form only: the
row operations, in order, in SmithForm.ops (swap, unit scale, add a multiple
of a row, clear the column below a pivot, extended-gcd combine of two rows).
U is by definition their product, and since no choice looks at a
right-hand side, running the record on any b gives exactly U @ b (mod M);
that is SmithForm.apply_rows(b).  U itself is the record run on the
identity, and U^-1 the inverse operations run last to first; both are
derived on first use.  apply_rows multiplies by the derived U on forms of at
most _DENSE_ROWS rows and replays the record on taller ones, where a dense U
would cost m**2 entries against one narrow row update per operation.

The elimination skips work without changing a choice:

* the pivot search scans the block in bands of about _BAND_CELLS entries
  (whole rows), taking np.gcd(x, M) band by band; it is M for x = 0, so a
  zero entry is never picked over a nonzero one.  At step t > 0 every entry
  of A[t:, t:] is divisible by the previous pivot d_{t-1} (that is the
  divisibility condition that ended step t - 1), and d_{t-1} divides M, so
  no gcd in the block is below d_{t-1}; at t = 0 the bound is 1.  The scan
  stops at the first band whose minimum reaches the bound, and its first
  minimum is the first in row-major order over the whole block.  When no
  band reaches the bound, the pivot is the first minimum of the first band
  holding the overall minimum.  Either way the choice is the one the rule names;
* d = 1 divides every entry, so the three divisibility scans are skipped;
* the active block: at step t, rows >= t of A are zero left of column t and
  rows < t are zero from column t on (earlier steps cleared them, and step t
  combines only rows and columns >= t).  So a row operation runs on A[:, t:]
  and a column operation on the rows >= t of A, and the column clear, once
  column t is d * e_t, only zeroes A[t, cols] on A.

_replay is the one definition of each operation: the elimination runs every
row operation through it on A[:, t:], and every column operation on the
transposes of A[t:] and V, as U, U^-1 and apply_rows run the record.

Entry bound: inner products accumulate at most max(m, n) + 1 products of
residues in int64, so smith_form_mod, solve_mod and kernel_mod raise
SizeBound when M**2 * (max(m, n) + 1) >= 2**63.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterable, List, Optional, Sequence, Tuple

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


# Cells per band of the pivot search (see the module docstring).
_BAND_CELLS = 4096

# Forms with at most this many rows answer apply_rows with one product by the
# derived dense U; taller ones replay the record.  The small forms are the
# cohomology kernel forms (a benchmark pass takes the dense path 62/310/85
# times against 5/3/12 replays on s3-paper/klein-twists/d4-queries); the tall
# ones are the slice systems, where a dense U would hold m**2 int64 (16 MB at
# 1,406 rows).  Replaying everything was measured and not taken (seed 1, best
# of 5): klein-twists applies 28 forms 310 times, 0.9 ms dense plus 1.4 ms to
# derive U against 13.9 ms replayed, and its wall_s read 11% higher; on
# d4-queries, 85 forms once each, 0.8 + 8.0 ms against 6.8 ms.
_DENSE_ROWS = 64

# Tags of the recorded row operations.
_SWAP, _SCALE, _ADDMUL, _CLEAR, _COMBINE = range(5)


def _combine(
    mat: np.ndarray, i: int, j: int, x: int, y: int, p: int, q: int, M: int
) -> None:
    """Rows (i, j) <- (x row_i + y row_j, -q row_i + p row_j), mod M."""
    ri = (x * mat[i] + y * mat[j]) % M
    rj = (-q * mat[i] + p * mat[j]) % M
    mat[i], mat[j] = ri, rj


def _combine_op(i: int, j: int, a: int, b: int) -> tuple:
    """The det-1 combine of lines (i, j) that turns entries (a, b) into (gcd, 0)."""
    g, x, y = xgcd(a, b)
    return (_COMBINE, i, j, x, y, a // g, b // g)


class _Worker:
    """Mutable elimination state: the matrix, V, and the recorded row operations."""

    def __init__(self, A: np.ndarray, M: int) -> None:
        self.M = M
        self.A = np.asarray(A, dtype=np.int64).copy() % M
        self.V = np.eye(self.A.shape[1], dtype=np.int64)
        self.ops: List[tuple] = []

    def move_pivot(self, t: int, bound: int) -> bool:
        """Swap the entry of A[t:, t:] with the smallest gcd with M to (t, t).

        ``bound`` divides every entry of the block and M, so no gcd is below
        it: the band scan stops at the first band that reaches it.  Returns
        False, moving nothing, when the block is zero.
        """
        sub = self.A[t:, t:]
        width = sub.shape[1]
        step = max(1, _BAND_CELLS // width)
        best, at = self.M, 0
        for r0 in range(0, sub.shape[0], step):
            g = np.gcd(sub[r0 : r0 + step], self.M)  # np.gcd(0, M) is M
            k = int(np.argmin(g))
            low = int(g.flat[k])
            if low < best:
                best, at = low, r0 * width + k
                if low <= bound:
                    break
        if best == self.M:
            return False
        i, j = divmod(at, width)
        if i:
            self.row_op(t, (_SWAP, t, t + i))
        if j:
            self.col_op(t, (_SWAP, t, t + j))
        return True

    def row_op(self, t: int, op: tuple) -> None:
        """Run the row operation ``op`` on A from column t on, and record it."""
        _replay((op,), self.A[:, t:], self.M)
        self.ops.append(op)

    def col_op(self, t: int, op: tuple) -> None:
        """Run ``op`` on the columns of A from row t on, and of V."""
        _replay((op,), self.A[t:].T, self.M)
        _replay((op,), self.V.T, self.M)

    def cols_clear(self, t: int, cols: np.ndarray, quotients: np.ndarray) -> None:
        """col_j -= q_j * col_t for many columns j > t, once column t is d * e_t
        and d divides every A[t, j]: on A that only zeroes A[t, cols]."""
        self.A[t, cols] = 0
        _replay(((_CLEAR, t, cols, quotients[:, None]),), self.V.T, self.M)


def _replay(ops: Iterable[tuple], out: np.ndarray, M: int) -> np.ndarray:
    """Run the row operations ``ops``, in order, on the rows of ``out`` in place."""
    for op in ops:
        tag = op[0]
        if tag == _CLEAR:
            _, t, rows, q = op
            out[rows] = (out[rows] - q * out[t]) % M
        elif tag == _SWAP:
            _, i, j = op
            out[[i, j]] = out[[j, i]]
        elif tag == _SCALE:
            _, i, u = op
            out[i] = (out[i] * u) % M
        elif tag == _ADDMUL:
            _, i, j, q = op
            out[i] = (out[i] + q * out[j]) % M
        else:
            _combine(out, *op[1:], M)
    return out


def _inverse(op: tuple, M: int) -> tuple:
    """The recorded row operation that undoes ``op``."""
    tag = op[0]
    if tag == _SCALE:
        return (_SCALE, op[1], pow(int(op[2]), -1, M))
    if tag in (_ADDMUL, _CLEAR):
        return op[:-1] + (-op[-1],)
    if tag == _COMBINE:  # [[x, y], [-q, p]] has inverse [[p, -y], [q, x]]
        _, i, j, x, y, p, q = op
        return (_COMBINE, i, j, p, -y, x, -q)
    return op  # a swap


@dataclass
class SmithForm:
    """Diagonalization U A V = diag(d_1, ..., d_t) over Z/M with d_1 | d_2 | ... | M.

    diag entries are positive divisors of M; a zero row/column contributes no
    entry.  V is kept as a matrix.  The row transform is kept only as ops, the
    row operations in the order they ran (see the module docstring); U and
    Uinv are derived from that record on first use and then kept.
    """

    M: int
    shape: Tuple[int, int]
    diag: List[int]
    V: np.ndarray
    ops: List[tuple]

    @cached_property
    def U(self) -> np.ndarray:
        """The recorded operations replayed on the identity."""
        return _replay(self.ops, np.eye(self.shape[0], dtype=np.int64), self.M)

    @cached_property
    def Uinv(self) -> np.ndarray:
        """The inverse of each recorded operation, last to first, on the identity."""
        undo = (_inverse(op, self.M) for op in reversed(self.ops))
        return _replay(undo, np.eye(self.shape[0], dtype=np.int64), self.M)

    def apply_rows(self, b: np.ndarray) -> np.ndarray:
        """U @ b mod M for an (m,) or (m, r) array b: the product with the
        derived U when the form has at most _DENSE_ROWS rows, else the
        recorded operations replayed on a copy of b."""
        M = self.M
        b = np.asarray(b, dtype=np.int64)
        if self.shape[0] <= _DENSE_ROWS:
            return (self.U @ (b % M)) % M
        return _replay(self.ops, b.reshape(b.shape[0], -1) % M, M).reshape(b.shape)


def smith_form_mod(
    A: Sequence[Sequence[int]] | np.ndarray,
    M: int,
) -> SmithForm:
    """Diagonalize A over Z/M by the pivot rule of the module docstring.

    Args:
        A: an (m, n) integer matrix (interpreted mod M).
        M: modulus >= 1.

    Returns:
        A SmithForm; diagonal entries are normalized to divisors of M and form
        a divisibility chain.

    Raises:
        SizeBound: M**2 * (max(m, n) + 1) >= 2**63.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    _check_headroom(M, A.shape)
    w = _Worker(A, M)
    m, n = w.A.shape
    d = 1  # the previous pivot: a lower bound on every gcd left in the block
    for t in range(min(m, n)):
        if not w.move_pivot(t, d):
            break
        # A[t, t] is nonzero from here on: every transform below keeps it a
        # gcd of nonzero residues, or adds a row that is zero in column t.
        while True:
            a = int(w.A[t, t])
            d = gcd(a, M)
            if a != d:
                w.row_op(t, (_SCALE, t, unit_stabilizer(a, M)))
            if d != 1:
                bad = np.flatnonzero(w.A[t + 1 :, t] % d)
                if bad.size:
                    j = t + 1 + int(bad[0])
                    w.row_op(t, _combine_op(t, j, d, int(w.A[j, t])))
                    continue
                bad = np.flatnonzero(w.A[t, t + 1 :] % d)
                if bad.size:
                    j = t + 1 + int(bad[0])
                    w.col_op(t, _combine_op(t, j, d, int(w.A[t, j])))
                    continue
            rows = t + 1 + np.flatnonzero(w.A[t + 1 :, t])
            if rows.size:
                w.row_op(t, (_CLEAR, t, rows, (w.A[rows, t] // d)[:, None]))
            cols = t + 1 + np.flatnonzero(w.A[t, t + 1 :])
            if cols.size:
                w.cols_clear(t, cols, w.A[t, cols] // d)
            if d != 1:
                # divisibility condition: the pivot must divide the rest
                off = np.flatnonzero(w.A[t + 1 :, t + 1 :] % d)
                if off.size:
                    w.row_op(t, (_ADDMUL, t, t + 1 + int(off[0]) // (n - t - 1), 1))
                    continue
            break
    diag = [int(w.A[i, i]) for i in range(min(m, n)) if int(w.A[i, i]) != 0]
    return SmithForm(M=M, shape=(m, n), diag=diag, V=w.V, ops=w.ops)


def _given_form(A: Optional[np.ndarray], M: int, form: Optional[SmithForm]) -> SmithForm:
    """``form`` when it was computed mod M, else a new smith_form_mod(A, M)."""
    if form is None:
        return smith_form_mod(A, M)
    if form.M != M:
        raise ValueError(f"a Smith form computed mod {form.M} cannot answer mod {M}")
    return form


def solve_mod(
    A: Optional[np.ndarray], b: np.ndarray, M: int, form: Optional[SmithForm] = None
) -> Optional[np.ndarray]:
    """Solve A x = b over Z/M; return a deterministic solution or None.

    b may be one (m,) right-hand side or several as the columns of an (m, r)
    array; the answer then has shape (n, r), and is None unless every column
    is solvable.  All columns share one factorization, and each column's
    answer equals solving it alone.  Free coordinates are set to zero, so the
    answer is reproducible run to run.  ``form`` may pass a precomputed
    smith_form_mod(A, M); it gives the same answer as solving alone, and A
    itself is then not read (it may be None).

    Raises:
        SizeBound: M**2 * (max(m, n) + 1) >= 2**63.
        ValueError: ``form`` was computed modulo another M.
    """
    b = np.asarray(b, dtype=np.int64)
    cols = b[:, None] if b.ndim == 1 else b
    form = _given_form(A, M, form)
    bprime = form.apply_rows(cols)
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

    ``form`` may pass a precomputed smith_form_mod(A, M), as for solve_mod.

    Raises:
        SizeBound: M**2 * (max(m, n) + 1) >= 2**63.
        ValueError: ``form`` was computed modulo another M.
    """
    form = _given_form(A, M, form)
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
    form = smith_form_mod(relations, M)
    factors: List[int] = []
    kept: List[int] = []
    for i in range(k):
        d = form.diag[i] if i < len(form.diag) else M
        if d != 1:
            factors.append(d)
            kept.append(i)
    return AbelianQuotient(
        M=M,
        k=k,
        invariant_factors=factors,
        generator_coords=form.Uinv[:, kept],
        _U=form.U,
        _kept=kept,
    )
