"""Group cochains with values in roots of unity, written additively as Z/M.

A value k at modulus M stands for exp(2*pi*i*k/M).  Every cochain carries its
own modulus; moving between moduli is always explicit (embed / content
reduction), which keeps the C*-triviality bookkeeping honest.

The linear systems "d(phi) = F" are never solved on the full cochain table.
A cocycle identity argument shows it is enough to impose the equations whose
first argument lies in a generating set S: the defect D = d(phi) - F is a
cocycle vanishing on those slices, and the coboundary identity then
propagates the vanishing to products of generators.  Rows phi(g, ...) are
placed on a spanning tree of the left-multiplication Cayley graph, leaving a
small affine consistency system in the generator rows only - for the S3
double this turns 46656-equation systems into ~1400x72 ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import (
    DegreeOverflow,
    NotACocycle,
    SizeBound,
    WrongAmbient,
)
from .groups import DirectSquare, FiniteGroup, Subgroup, closure, _same_group
from .linalg import kernel_mod, smith_form_mod, solve_mod, abelian_quotient

__all__ = [
    "Cochain",
    "CohomologyGroup",
    "coboundary",
    "is_cocycle",
    "restrict",
    "pullback",
    "build_tilde_omega",
    "small_generating_set",
    "cohomology_mod",
    "cohomology_cstar",
    "is_trivial_over_cstar",
    "solve_trivialization",
    "cochain_to_dict",
    "cochain_from_dict",
]

_MAX_SYSTEM_CELLS = 30_000_000


class Cochain:
    """A normalized n-cochain on a finite group, valued in Z/modulus."""

    def __init__(
        self,
        group: FiniteGroup,
        degree: int,
        modulus: int,
        values: np.ndarray,
    ) -> None:
        if degree < 0 or degree > 4:
            raise DegreeOverflow(f"cochain degree {degree} unsupported")
        if modulus < 1:
            raise ValueError("modulus must be positive")
        shape = (group.order,) * degree
        values = np.asarray(values, dtype=np.int64).reshape(shape) % modulus
        for axis in range(degree):
            sl = [slice(None)] * degree
            sl[axis] = 0
            if values[tuple(sl)].any():
                raise ValueError("cochain is not normalized (nonzero on identity slice)")
        self.group = group
        self.degree = degree
        self.modulus = modulus
        self.values = values
        self.values.setflags(write=False)

    @classmethod
    def zero(cls, group: FiniteGroup, degree: int, modulus: int) -> "Cochain":
        return cls(group, degree, modulus, np.zeros((group.order,) * degree, np.int64))

    def _compat(self, other: "Cochain") -> None:
        if (
            not _same_group(self.group, other.group)
            or self.degree != other.degree
            or self.modulus != other.modulus
        ):
            raise ValueError("cochain mismatch (group, degree, or modulus differ)")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._compat(other)
        return Cochain(self.group, self.degree, self.modulus, self.values + other.values)

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._compat(other)
        return Cochain(self.group, self.degree, self.modulus, self.values - other.values)

    def __neg__(self) -> "Cochain":
        return Cochain(self.group, self.degree, self.modulus, -self.values)

    def scale(self, k: int) -> "Cochain":
        return Cochain(self.group, self.degree, self.modulus, self.values * int(k))

    def is_zero(self) -> bool:
        return not self.values.any()

    def same_values(self, other: "Cochain") -> bool:
        self._compat(other)
        return bool(np.array_equal(self.values, other.values))

    def content_modulus(self) -> int:
        """Smallest M' with all values in the image of mu_{M'} inside mu_{modulus}."""
        g = int(np.gcd.reduce(np.append(self.values.ravel(), self.modulus)))
        return self.modulus // g

    def embed(self, new_modulus: int) -> "Cochain":
        """Rewrite at a larger modulus (same points on the unit circle)."""
        if new_modulus % self.modulus != 0:
            raise ValueError(
                f"cannot embed modulus {self.modulus} into {new_modulus}"
            )
        k = new_modulus // self.modulus
        return Cochain(self.group, self.degree, new_modulus, self.values * k)

    def reduce_to_content(self) -> "Cochain":
        m = self.content_modulus()
        k = self.modulus // m
        return Cochain(self.group, self.degree, m, self.values // k)

    def __repr__(self) -> str:
        return (
            f"Cochain(degree={self.degree}, order={self.group.order}, "
            f"modulus={self.modulus})"
        )


def coboundary(f: Cochain) -> Cochain:
    """Bar-resolution differential with trivial action.

    d f(g1,...,g_{n+1}) = f(g2,...) + sum_i (-1)^i f(..., g_i g_{i+1}, ...)
                          + (-1)^{n+1} f(g1,...,gn)
    """
    n = f.degree
    if n + 1 > 4:
        raise DegreeOverflow("coboundary beyond degree 4 unsupported")
    G, M, v = f.group, f.modulus, f.values
    order = G.order
    if order ** (n + 1) > _MAX_SYSTEM_CELLS:
        raise SizeBound("coboundary table would exceed the size bound")
    mul = G.mul
    if n == 0:
        out = np.zeros(order, dtype=np.int64)
    elif n == 1:
        out = v[None, :] - v[mul] + v[:, None]
    elif n == 2:
        out = v[None, :, :] - v[mul] + v[:, mul] - v[:, :, None]
    else:
        out = v[None, :, :, :] - v[mul] + v[:, mul, :] - v[:, :, mul] + v[:, :, :, None]
    return Cochain(G, n + 1, M, out)


def is_cocycle(f: Cochain) -> bool:
    """d f = 0, computed without materializing the full (n+1)-table for n = 3."""
    if f.degree <= 2:
        return coboundary(f).is_zero()
    if f.degree == 4:
        raise DegreeOverflow("cocycle check beyond degree 3 unsupported")
    G, M, v = f.group, f.modulus, f.values
    mul = G.mul
    for a in range(G.order):
        chunk = (
            v
            - v[mul[a]]
            + v[a][mul, :]
            - v[a][:, mul]
            + v[a][:, :, None]
        ) % M
        if chunk.any():
            return False
    return True


def restrict(f: Cochain, H: Subgroup) -> Cochain:
    """Restriction along the inclusion of H; result lives on H.as_group."""
    if not _same_group(f.group, H.parent):
        raise WrongAmbient("cochain and subgroup have different ambient groups")
    els = np.array(H.elements, dtype=np.int64)
    if f.degree == 0:
        vals = f.values
    else:
        vals = f.values[np.ix_(*([els] * f.degree))]
    return Cochain(H.as_group, f.degree, f.modulus, vals)


def pullback(f: Cochain, square: DirectSquare, which: int) -> Cochain:
    """Pullback along the first (which=1) or second (which=2) projection of G×G."""
    if not _same_group(f.group, square.base):
        raise WrongAmbient("cochain does not live on the base of the square")
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    p = square.p1 if which == 1 else square.p2
    if f.degree == 0:
        vals = f.values
    else:
        vals = f.values[np.ix_(*([p] * f.degree))]
    return Cochain(square.group, f.degree, f.modulus, vals)


def build_tilde_omega(omega: Cochain, square: DirectSquare) -> Cochain:
    """p1*omega - p2*omega on G×G; vanishes identically on the diagonal."""
    if omega.degree != 3:
        raise DegreeOverflow("tilde construction expects a 3-cochain")
    if not is_cocycle(omega):
        raise NotACocycle("omega is not a 3-cocycle")
    out = pullback(omega, square, 1) - pullback(omega, square, 2)
    assert restrict(out, square.diagonal).is_zero()
    return out


def small_generating_set(G: FiniteGroup) -> List[int]:
    """A deterministic generating set, preferring 1 or 2 generators when they exist."""
    n = G.order
    if n == 1:
        return []
    for x in range(1, n):
        if len(closure(G, [x])) == n:
            return [x]
    for x in range(1, n):
        for y in range(x + 1, n):
            if len(closure(G, [x, y])) == n:
                return [x, y]
    gens: List[int] = []
    have = {0}
    for x in range(1, n):
        if x not in have:
            gens.append(x)
            have = set(closure(G, gens))
            if len(have) == n:
                break
    return gens


class _SliceSystem:
    """Reduced linear system for d(phi) = F with phi an unknown n-cochain.

    Unknowns are the rows phi(s, .) for s in a generating set S; every other
    row is placed on a breadth-first spanning tree of the left-multiplication
    Cayley graph, each non-tree edge contributing one slab of consistency
    equations.  Normalization rows pin phi(s, x) = 0 whenever x touches the
    identity, which (with row e fixed at zero) forces full normalization.
    """

    def __init__(self, G: FiniteGroup, unknown_degree: int, modulus: int) -> None:
        if unknown_degree not in (1, 2, 3):
            raise DegreeOverflow(
                f"slice systems support unknown degrees 1..3, got {unknown_degree}"
            )
        self.G = G
        self.n = unknown_degree
        self.M = modulus
        H = G.order
        self.slab = H ** (unknown_degree - 1)
        self.S = small_generating_set(G)
        self.U = max(len(self.S) * self.slab, 1)
        est = H * self.U * self.slab + len(self.S) * H * self.slab * self.U // 4
        if est > _MAX_SYSTEM_CELLS:
            raise SizeBound(
                f"slice system too large (~{est} cells) for order {H}, degree {unknown_degree}"
            )
        self._build_tree()
        self._build_matrix()

    # tree -----------------------------------------------------------------

    def _build_tree(self) -> None:
        G, S = self.G, self.S
        placed = {0: True}
        order: List[int] = [0]
        for s in S:
            if s not in placed:
                placed[s] = True
                order.append(s)
        tree: List[Tuple[int, int, int]] = []
        extra: List[Tuple[int, int, int]] = []
        queue = list(order)
        qi = 0
        while qi < len(queue):
            b = queue[qi]
            qi += 1
            for si, s in enumerate(S):
                g = int(G.mul[s, b])
                if g in placed:
                    extra.append((si, b, g))
                else:
                    placed[g] = True
                    tree.append((si, b, g))
                    queue.append(g)
        assert len(placed) == G.order  # S generates G
        self.tree = tree
        self.extra = extra

    # index helpers --------------------------------------------------------

    def _slab_flat(self) -> np.ndarray:
        return np.arange(self.slab, dtype=np.int64)

    def _delta(self, si: int, b: int) -> np.ndarray:
        """Coefficient of the generator rows in the recurrence for row s*b."""
        H = self.G.order
        mul = self.G.mul
        off = si * self.slab
        D = np.zeros((self.U, self.slab), dtype=np.int64)
        if self.n == 1:
            D[off, 0] += 1
        elif self.n == 2:
            c = np.arange(H, dtype=np.int64)
            D[off + mul[b, c], c] += 1
            D[off + b, :] -= 1
        else:
            H2 = H
            c = np.repeat(np.arange(H2), H2)
            d = np.tile(np.arange(H2), H2)
            col = c * H2 + d
            D[off + mul[b, c] * H2 + d, col] += 1
            np.add.at(D, (off + b * H2 + mul[c, d], col), -1)
            np.add.at(D, (off + b * H2 + c, col), 1)
        return D

    def _identity_slab_positions(self) -> np.ndarray:
        H = self.G.order
        if self.n == 1:
            return np.zeros(0, dtype=np.int64)
        if self.n == 2:
            return np.array([0], dtype=np.int64)
        c = np.repeat(np.arange(H), H)
        d = np.tile(np.arange(H), H)
        return np.nonzero((c == 0) | (d == 0))[0].astype(np.int64)

    # matrix ---------------------------------------------------------------

    def _build_matrix(self) -> None:
        M, U, slab = self.M, self.U, self.slab
        H = self.G.order
        alpha = np.zeros((H, U, slab), dtype=np.int64)
        flat = self._slab_flat()
        for si, s in enumerate(self.S):
            alpha[s, si * slab + flat, flat] = 1
        for si, b, g in self.tree:
            alpha[g] = (alpha[b] + self._delta(si, b)) % M
        blocks = []
        for si, b, g in self.extra:
            block = (alpha[g] - alpha[b] - self._delta(si, b)).T % M
            blocks.append(block)
        norm_pos = self._identity_slab_positions()
        for si in range(len(self.S)):
            rows = np.zeros((len(norm_pos), U), dtype=np.int64)
            rows[np.arange(len(norm_pos)), si * slab + norm_pos] = 1
            blocks.append(rows)
        if blocks:
            self.A = np.vstack(blocks) % M
        else:
            self.A = np.zeros((0, U), dtype=np.int64)
        self._kernel: Optional[np.ndarray] = None

    # rhs ------------------------------------------------------------------

    def _propagate(self, u: Optional[np.ndarray], F: Optional[np.ndarray]) -> np.ndarray:
        """Numeric breadth-first fill of all rows from generator rows u and rhs F."""
        G, M, slab = self.G, self.M, self.slab
        H = G.order
        mul = G.mul
        rows = np.zeros((H, slab), dtype=np.int64)
        if u is not None:
            for si, s in enumerate(self.S):
                rows[s] = u[si * slab : (si + 1) * slab] % M
        for si, b, g in self.tree:
            s = self.S[si]
            if self.n == 1:
                val = rows[b] + rows[s]
            elif self.n == 2:
                val = rows[b] + rows[s][mul[b]] - rows[s][b]
            else:
                rs = rows[s].reshape(H, H)
                val = (
                    rows[b].reshape(H, H)
                    + rs[mul[b], :]
                    - rs[b, mul]
                    + rs[b][:, None]
                ).ravel()
            if F is not None:
                val = val - np.asarray(F[s, b]).reshape(-1)
            rows[g] = val % M
        return rows

    def _rhs(self, F: np.ndarray) -> np.ndarray:
        """Right-hand side of the consistency system for a given rhs cochain F."""
        beta = self._propagate(None, F)
        parts = []
        for si, b, g in self.extra:
            s = self.S[si]
            fslice = np.asarray(F[s, b]).reshape(-1)
            parts.append((-(beta[g] - beta[b] + fslice)) % self.M)
        norm_count = len(self._identity_slab_positions()) * len(self.S)
        parts.append(np.zeros(norm_count, dtype=np.int64))
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    # public ---------------------------------------------------------------

    def kernel(self) -> np.ndarray:
        if self._kernel is None:
            self._kernel = kernel_mod(self.A, self.M)
        return self._kernel

    def solve(self, F: np.ndarray) -> Optional[np.ndarray]:
        """One normalized solution of d(phi) = F as a full value table, or None."""
        if self.G.order == 1:
            return (
                None
                if (F % self.M).any()
                else np.zeros((1,) * self.n, dtype=np.int64)
            )
        r = self._rhs(F)
        u = solve_mod(self.A, r, self.M)
        if u is None:
            return None
        return self.reconstruct(u, F)

    def reconstruct(self, u: np.ndarray, F: Optional[np.ndarray] = None) -> np.ndarray:
        rows = self._propagate(u, F)
        return rows.reshape((self.G.order,) * self.n)

    def read_u(self, values: np.ndarray) -> np.ndarray:
        """Generator-row coordinates of a cochain table (left inverse of reconstruct
        on cocycles)."""
        return np.concatenate(
            [values[s].reshape(-1) for s in self.S]
        ) if self.S else np.zeros(0, dtype=np.int64)


@dataclass
class CohomologyGroup:
    """H^degree with invariant factors, generator cocycles, and an exact lookup."""

    degree: int
    invariant_factors: List[int]
    generators: List[Cochain]
    lookup: Callable[[Cochain], Tuple[int, ...]]
    coefficient_modulus: Optional[int]

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out


def _coboundary_slice_columns(system: _SliceSystem) -> np.ndarray:
    """Generator-row coordinates of d(chi) for every normalized basis (n-1)-cochain."""
    G, n = system.G, system.n
    H = G.order
    mul = G.mul
    slab, U = system.slab, system.U
    if n == 1:
        return np.zeros((U, 0), dtype=np.int64)
    if n == 2:
        ts = np.arange(1, H, dtype=np.int64)
        cols = np.zeros((U, len(ts)), dtype=np.int64)
        x = np.arange(H, dtype=np.int64)
        for si, s in enumerate(system.S):
            block = (
                np.equal.outer(x, ts).astype(np.int64)
                - np.equal.outer(mul[s], ts).astype(np.int64)
                + (s == ts).astype(np.int64)[None, :]
            )
            cols[si * slab : (si + 1) * slab, :] = block
        return cols % system.M
    # n == 3: basis 2-cochains delta_{t1,t2} with t1, t2 != identity
    ts = np.arange(1, H, dtype=np.int64)
    nb = len(ts) * len(ts)
    cols = np.zeros((U, nb), dtype=np.int64)
    x = np.repeat(np.arange(H), H)
    y = np.tile(np.arange(H), H)
    t1 = np.repeat(ts, len(ts))
    t2 = np.tile(ts, len(ts))
    for si, s in enumerate(system.S):
        # d chi(s, x, y) = chi(x,y) - chi(sx,y) + chi(s,xy) - chi(s,x)
        term1 = (x[:, None] == t1[None, :]) & (y[:, None] == t2[None, :])
        term2 = (mul[s][x][:, None] == t1[None, :]) & (y[:, None] == t2[None, :])
        term3 = (s == t1)[None, :] & (mul[x, y][:, None] == t2[None, :])
        term4 = (s == t1)[None, :] & (x[:, None] == t2[None, :])
        block = (
            term1.astype(np.int64)
            - term2.astype(np.int64)
            + term3.astype(np.int64)
            - term4.astype(np.int64)
        )
        cols[si * slab : (si + 1) * slab, :] = block
    return cols % system.M


def cohomology_mod(G: FiniteGroup, n: int, M: int) -> CohomologyGroup:
    """H^n(G, mu_M) with invariant factors, generator cocycles, and exact lookup."""
    if n not in (1, 2, 3):
        raise DegreeOverflow(f"cohomology degree {n} unsupported")
    if G.order == 1:
        return CohomologyGroup(
            degree=n,
            invariant_factors=[],
            generators=[],
            lookup=lambda f: (),
            coefficient_modulus=M,
        )
    system = _SliceSystem(G, n, M)
    K = system.kernel()
    z = K.shape[1]
    kform = smith_form_mod(K, M, want_transforms=True)

    brels = solve_mod(K, _coboundary_slice_columns(system), M, form=kform)
    assert brels is not None  # coboundaries are cocycles
    rels = np.concatenate([brels, kernel_mod(K, M, form=kform)], axis=1)
    quotient = abelian_quotient(z, rels, M)

    generators = []
    for i in range(len(quotient.invariant_factors)):
        u = (K @ quotient.generator_coords[:, i]) % M
        vals = system.reconstruct(u)
        gen = Cochain(G, n, M, vals)
        assert is_cocycle(gen)
        generators.append(gen)

    def lookup(f: Cochain) -> Tuple[int, ...]:
        if f.degree != n or not _same_group(f.group, G):
            raise NotACocycle("lookup expects a cocycle of the right degree and group")
        if f.modulus != M:
            raise ValueError(f"lookup expects modulus {M}, got {f.modulus}")
        if not is_cocycle(f):
            raise NotACocycle("not a cocycle")
        c = solve_mod(K, system.read_u(f.values), M, form=kform)
        if c is None:
            raise NotACocycle("cocycle is outside the computed kernel (unnormalized?)")
        return quotient.lookup(c)

    return CohomologyGroup(
        degree=n,
        invariant_factors=list(quotient.invariant_factors),
        generators=generators,
        lookup=lookup,
        coefficient_modulus=M,
    )


def is_trivial_over_cstar(f: Cochain) -> Tuple[bool, Optional[Cochain]]:
    """Does the class of f die in H^n(G, C*)?  If yes, also return phi with
    d(phi) = f rewritten at modulus content(f) * |G| (the headroom that makes
    the finite solve equivalent to C*-triviality)."""
    n = f.degree
    if n not in (1, 2, 3):
        raise DegreeOverflow(f"triviality test unsupported in degree {n}")
    if not is_cocycle(f):
        raise NotACocycle("triviality test needs a cocycle")
    G = f.group
    red = f.reduce_to_content()
    target = red.modulus * G.order
    if n == 1:
        # coboundaries of normalized 0-cochains vanish
        if f.is_zero():
            return True, Cochain.zero(G, 0, target)
        return False, None
    rhs = red.values * G.order  # iota: mu_content -> mu_target
    system = _SliceSystem(G, n - 1, target)
    sol = system.solve(rhs)
    if sol is None:
        return False, None
    phi = Cochain(G, n - 1, target, sol)
    assert coboundary(phi).same_values(Cochain(G, n, target, rhs))
    return True, phi


def solve_trivialization(
    f: Cochain, H: Subgroup, modulus: int
) -> Optional[Cochain]:
    """A normalized 2-cochain psi0 on H with d(psi0) = f|_H at the given modulus.

    Returns None exactly when f|_H is nontrivial over C*: the session modulus
    must contain the headroom content(f|_H) * |H| (checked), which makes
    solvability at `modulus` equivalent to C*-triviality.
    """
    if f.degree != 3:
        raise DegreeOverflow("trivialization expects a 3-cocycle")
    fH = restrict(f, H)
    if not is_cocycle(fH):
        raise NotACocycle("restriction is not a cocycle")
    if modulus % fH.modulus != 0:
        raise ValueError(
            f"session modulus {modulus} does not contain cochain modulus {fH.modulus}"
        )
    needed = fH.content_modulus() * H.order
    if modulus % needed != 0:
        raise ValueError(
            f"session modulus {modulus} lacks the headroom {needed} needed "
            "for an exact C*-triviality decision"
        )
    target = fH.embed(modulus)
    system = _SliceSystem(H.as_group, 2, modulus)
    sol = system.solve(target.values)
    if sol is None:
        return None
    psi0 = Cochain(H.as_group, 2, modulus, sol)
    assert coboundary(psi0).same_values(target)
    return psi0


def cohomology_cstar(G: FiniteGroup, n: int) -> CohomologyGroup:
    """H^n(G, C*) as the mu_{|G|} cohomology modulo C*-trivializable classes.

    Generators are mu_{|G|}-valued; lookup accepts a cocycle f at any modulus
    and returns its coordinates along the invariant factors.  There is one
    lookup path: reduce f to its content, read it in H^n(G, mu_N) with
    N = lcm(content, |G|), and multiply by a table T_N sending those
    coordinates to C* coordinates.  T_N is built once per N the first time a
    lookup needs it and lives as long as the returned object.

    At N = |G| the rows of T_N are the C* classes of the mu_{|G|} generators.
    For a generator a at any other N, |G| annihilates H^n(G, mu_N), so
    |G|*a = d(phi) has a solution phi at modulus N; at modulus N*|G| the
    cocycle a - d(phi) lies in the same C* class and its values are
    multiples of N, so its content divides |G| and the |G| table reads it.
    """
    if n not in (1, 2, 3):
        raise DegreeOverflow(f"cohomology degree {n} unsupported")
    M0 = G.order
    M1 = G.order * G.order
    A = cohomology_mod(G, n, M0)
    k = len(A.invariant_factors)
    if k == 0 or G.order == 1:
        return CohomologyGroup(
            degree=n,
            invariant_factors=[],
            generators=[],
            lookup=lambda f: (),
            coefficient_modulus=M0,
        )
    B = cohomology_mod(G, n, M1)
    # image of each A-generator in B, then the kernel of that map
    W = np.zeros((len(B.invariant_factors), k), dtype=np.int64)
    for i, g in enumerate(A.generators):
        W[:, i] = np.array(B.lookup(g.embed(M1)), dtype=np.int64)
    scaled = W.copy()
    for j, d in enumerate(B.invariant_factors):
        scaled[j, :] = (scaled[j, :] * (M1 // d)) % M1
    trivial_coords = kernel_mod(scaled, M1)  # columns: A-coordinate vectors
    LA = 1
    for d in A.invariant_factors:
        LA = LA * d // gcd(LA, d)
    rels = [trivial_coords % LA, np.diag(np.array(A.invariant_factors, dtype=np.int64))]
    quotient = abelian_quotient(k, np.concatenate(rels, axis=1), LA)

    generators = []
    for i in range(len(quotient.invariant_factors)):
        coords = quotient.generator_coords[:, i]
        gen = Cochain.zero(G, n, M0)
        for c, basis in zip(coords, A.generators):
            gen = gen + basis.scale(int(c))
        assert is_cocycle(gen)
        generators.append(gen)
    factors = np.array(quotient.invariant_factors, dtype=np.int64)

    # N -> (lookup in H^n(G, mu_N), T_N: one row of C* coordinates per factor)
    units = [quotient.lookup(e) for e in np.eye(k, dtype=np.int64)]
    tables = {M0: (A.lookup, np.array(units, dtype=np.int64).reshape(k, len(factors)))}

    def table(N: int) -> Tuple[Callable[[Cochain], Tuple[int, ...]], np.ndarray]:
        if N not in tables:
            HN = cohomology_mod(G, n, N)
            system = _SliceSystem(G, n - 1, N) if n > 1 else None
            rows = []
            for a in HN.generators:
                lifted = a.embed(N * M0)
                if system is not None:
                    phi = system.solve(a.scale(M0).values)
                    assert phi is not None  # |G| annihilates H^n(G, mu_N)
                    lifted = lifted - coboundary(Cochain(G, n - 1, N * M0, phi))
                small = lifted.reduce_to_content().embed(M0)
                rows.append(quotient.lookup(A.lookup(small)))
            T = np.array(rows, dtype=np.int64).reshape(len(rows), len(factors))
            tables[N] = (HN.lookup, T)
        return tables[N]

    def lookup(f: Cochain) -> Tuple[int, ...]:
        if f.degree != n or not _same_group(f.group, G):
            raise NotACocycle("lookup expects a cocycle of the right degree and group")
        red = f.reduce_to_content()
        N = red.modulus * M0 // gcd(red.modulus, M0)
        read, T = table(N)
        x = np.array(read(red.embed(N)), dtype=np.int64)
        return tuple(int(v) for v in (x @ T) % factors)

    return CohomologyGroup(
        degree=n,
        invariant_factors=list(quotient.invariant_factors),
        generators=generators,
        lookup=lookup,
        coefficient_modulus=M0,
    )


def cochain_to_dict(f: Cochain, group_spec: object) -> dict:
    """JSON-ready form: flat row-major values plus the group it lives on."""
    return {
        "group": group_spec,
        "degree": f.degree,
        "modulus": f.modulus,
        "values": [int(v) for v in f.values.reshape(-1)],
    }


def cochain_from_dict(d: dict, group: FiniteGroup) -> Cochain:
    degree = d["degree"]
    modulus = d["modulus"]
    values = np.array(d["values"], dtype=np.int64)
    expect = group.order**degree
    if values.size != expect:
        raise ValueError(f"expected {expect} values, got {values.size}")
    return Cochain(group, degree, modulus, values)
