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

The differential is written twice: `_d_rows` gives rows of d(v) (used by
`coboundary`, `is_cocycle` and the coboundary columns), and
`_SliceSystem._row` solves one such row for the row s*b of phi (the tree
recurrence).  The system's matrix is that recurrence run on unit vectors,
its right-hand side the same recurrence run on F.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

import numpy as np

from .errors import (
    DegreeOverflow,
    InvariantViolated,
    NotACocycle,
    SizeBound,
    WrongAmbient,
)
from .groups import (
    DirectSquare,
    FiniteGroup,
    Subgroup,
    _same_group,
    small_generating_set,
)
from .linalg import SmithForm, abelian_quotient, kernel_mod, smith_form_mod, solve_mod

__all__ = [
    "Cochain",
    "CohomologyGroup",
    "coboundary",
    "is_cocycle",
    "restrict",
    "pullback",
    "build_tilde_omega",
    "cohomology_mod",
    "cohomology_cstar",
    "is_trivial_over_cstar",
    "solve_trivialization",
]

_MAX_SYSTEM_CELLS = 30_000_000

_T = TypeVar("_T")

# The store of the open _shared_work block, or None outside every block.
_SHARED: ContextVar[Optional[Dict[tuple, object]]] = ContextVar("_SHARED", default=None)


@contextmanager
def _shared_work() -> Iterator[None]:
    """A block within which _once computes each per-table result once.

    The store lives exactly as long as the block: it is dropped on the way
    out, also when the block raises, so no result outlives the caller that
    opened it.  A nested block starts an empty store of its own."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _once(what: object, G: FiniteGroup, make: Callable[[], _T]) -> _T:
    """make(), a function of G's multiplication table named by `what`,
    computed once per table inside a _shared_work block and afresh outside."""
    store = _SHARED.get()
    if store is None:
        return make()
    key = (what, G.mul.tobytes())
    if key not in store:
        store[key] = make()
    return store[key]


def _generating_set(G: FiniteGroup) -> List[int]:
    """small_generating_set(G) through _once; the caller must not change it."""
    return _once("generating set", G, lambda: small_generating_set(G))


def _invariant(holds: bool, what: str, order: int, degree: int, modulus: int) -> None:
    """Raise InvariantViolated unless an identity the construction guarantees holds."""
    if not holds:
        raise InvariantViolated(
            f"{what} (group of order {order}, degree {degree}, modulus {modulus})"
        )


class Cochain:
    """A normalized n-cochain on a finite group, valued in Z/modulus.

    The public constructor checks the degree, the modulus and normalization.
    Values derived from cochains already built (restrict, pullback, embed,
    scale, reduce_to_content, coboundary, unary minus, + and -) go through
    the private _derived path, which skips the normalization scan: each of
    those maps sends normalized cochains to normalized ones.  It reduces the
    values mod the modulus, except for restrict and pullback, which gather
    them from a table already reduced.

    is_cocycle records a positive answer in the private flag _cocycle and
    answers at once for a flagged cochain.  The maps above commute with d,
    so restrict, pullback, embed, reduce_to_content, scale and unary minus
    carry the flag, and + and - carry it when both operands have it.  The
    public constructor never sets it; zero builds its cochain flagged.
    """

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
        self._set(group, degree, modulus, values, False)
        for axis in range(degree):
            sl = [slice(None)] * degree
            sl[axis] = 0
            if self.values[tuple(sl)].any():
                raise ValueError("cochain is not normalized (nonzero on identity slice)")

    @classmethod
    def _derived(
        cls,
        group: FiniteGroup,
        degree: int,
        modulus: int,
        values: np.ndarray,
        cocycle: bool,
        reduced: bool = False,
    ) -> "Cochain":
        """A cochain known to be normalized, with the cocycle flag given;
        reduced=True for values gathered from a table already reduced mod
        the modulus."""
        out = cls.__new__(cls)
        out._set(group, degree, modulus, values, cocycle, reduced)
        return out

    def _set(
        self,
        group: FiniteGroup,
        degree: int,
        modulus: int,
        values: np.ndarray,
        cocycle: bool,
        reduced: bool = False,
    ) -> None:
        shape = (group.order,) * degree
        self.group = group
        self.degree = degree
        self.modulus = modulus
        values = np.asarray(values, dtype=np.int64).reshape(shape)
        self.values = values if reduced else values % modulus
        self.values.setflags(write=False)
        self._cocycle = cocycle

    def _like(self, values: np.ndarray, cocycle: bool) -> "Cochain":
        """A cochain on the same group, degree and modulus with the given values."""
        return Cochain._derived(self.group, self.degree, self.modulus, values, cocycle)

    @classmethod
    def zero(cls, group: FiniteGroup, degree: int, modulus: int) -> "Cochain":
        """The zero cochain, flagged as the cocycle it is."""
        zero = cls(group, degree, modulus, np.zeros((group.order,) * degree, np.int64))
        zero._cocycle = True
        return zero

    def _compat(self, other: "Cochain") -> None:
        if (
            not _same_group(self.group, other.group)
            or self.degree != other.degree
            or self.modulus != other.modulus
        ):
            raise ValueError("cochain mismatch (group, degree, or modulus differ)")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._compat(other)
        return self._like(self.values + other.values, self._cocycle and other._cocycle)

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._compat(other)
        return self._like(self.values - other.values, self._cocycle and other._cocycle)

    def __neg__(self) -> "Cochain":
        return self._like(-self.values, self._cocycle)

    def scale(self, k: int) -> "Cochain":
        return self._like(self.values * int(k), self._cocycle)

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
        return Cochain._derived(
            self.group, self.degree, new_modulus, self.values * k, self._cocycle
        )

    def reduce_to_content(self) -> "Cochain":
        """Rewrite at the content modulus; the inverse of embed, so it keeps
        the cocycle flag."""
        m = self.content_modulus()
        k = self.modulus // m
        return Cochain._derived(self.group, self.degree, m, self.values // k, self._cocycle)

    def __repr__(self) -> str:
        return (
            f"Cochain(degree={self.degree}, order={self.group.order}, "
            f"modulus={self.modulus})"
        )


def _d_rows(v: np.ndarray, n: int, mul: np.ndarray, rows) -> np.ndarray:
    """Rows a of d v for an n-cochain table v (n = 1..3), a ranging over `rows`
    (a slice or index array); axes of v past the first n are a batch.

    d v(a, x, ...) = v(x, ...) - v(a x, ...) + (terms that read only row a)
    """
    va = v[rows]
    out = v[None] - v[mul[rows]]
    if n == 1:
        return out + va[:, None]
    if n == 2:
        return out + va[:, mul] - va[:, :, None]
    return out + va[:, mul] - va[:, :, mul] + va[:, :, :, None]


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
    if n == 0:
        out = np.zeros(order, dtype=np.int64)
    else:
        out = _d_rows(v, n, G.mul, slice(None))
    return Cochain._derived(G, n + 1, M, out, False)


def is_cocycle(f: Cochain) -> bool:
    """d f = 0, computed without materializing the full (n+1)-table for n = 3.

    A True answer is recorded on f, and a cochain so flagged (or derived from
    flagged ones, see Cochain) is answered without recomputing."""
    if f._cocycle:
        return True
    if f.degree <= 2:
        f._cocycle = coboundary(f).is_zero()
    elif f.degree == 4:
        raise DegreeOverflow("cocycle check beyond degree 3 unsupported")
    else:
        G, M, v = f.group, f.modulus, f.values
        f._cocycle = not any(
            (_d_rows(v, 3, G.mul, slice(a, a + 1)) % M).any() for a in range(G.order)
        )
    return f._cocycle


def _gather(f: Cochain, group: FiniteGroup, index: np.ndarray) -> Cochain:
    """The cochain on ``group`` with values f.values at ``index`` in every
    argument, argument i broadcast along axis i (degree 0 reads the one
    value through the empty index)."""
    n = f.degree
    grid = tuple(index.reshape((-1,) + (1,) * (n - 1 - i)) for i in range(n))
    vals = f.values[grid]
    return Cochain._derived(group, f.degree, f.modulus, vals, f._cocycle, True)


def restrict(f: Cochain, H: Subgroup) -> Cochain:
    """Restriction along the inclusion of H; result lives on H.as_group."""
    if not _same_group(f.group, H.parent):
        raise WrongAmbient("cochain and subgroup have different ambient groups")
    return _gather(f, H.as_group, H.to_parent)


def pullback(f: Cochain, square: DirectSquare, which: int) -> Cochain:
    """Pullback along the first (which=1) or second (which=2) projection of G×G."""
    if not _same_group(f.group, square.base):
        raise WrongAmbient("cochain does not live on the base of the square")
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    return _gather(f, square.group, square.p1 if which == 1 else square.p2)


def build_tilde_omega(omega: Cochain, square: DirectSquare) -> Cochain:
    """p1*omega - p2*omega on G×G; vanishes identically on the diagonal."""
    if omega.degree != 3:
        raise DegreeOverflow("tilde construction expects a 3-cochain")
    if not is_cocycle(omega):
        raise NotACocycle("omega is not a 3-cocycle")
    out = pullback(omega, square, 1) - pullback(omega, square, 2)
    _invariant(
        restrict(out, square.diagonal).is_zero(),
        "tilde omega does not vanish on the diagonal",
        square.group.order,
        3,
        out.modulus,
    )
    return out


class _SliceSystem:
    """Reduced linear system for d(phi) = F with phi an unknown n-cochain.

    Unknowns are the rows phi(s, .) for s in a generating set S; every other
    row is placed on a breadth-first spanning tree of the left-multiplication
    Cayley graph by the recurrence `_row` along the edge b -> s*b, and each
    non-tree edge leaves a slab of consistency equations (its residual).
    Normalization rows pin phi(s, x) = 0 whenever x touches the identity,
    which (with row e fixed at zero) forces full normalization.

    The residuals are affine in the generator rows u and in F: the matrix A is
    the recurrence run on unit vectors u = I (one batch column per unknown)
    with F = 0, and the right-hand side is minus the same recurrence run on
    u = 0 with F.  A depends only on (table, degree, modulus), so the first
    solve factors it and every later solve replays the recorded row
    operations on its right-hand side.  The system keeps the factorization,
    never A: A is built on each read, and each caller reads it once, so a
    system held past its solve (a shared one, or one inside a lookup) pins
    no matrix.

    Construction builds nothing: S (with the size bound), the tree and A come
    on first use, so a holder that never needs them pays nothing.  S is the
    table's _generating_set.
    """

    def __init__(self, G: FiniteGroup, unknown_degree: int, modulus: int) -> None:
        if unknown_degree not in (1, 2, 3):
            raise DegreeOverflow(
                f"slice systems support unknown degrees 1..3, got {unknown_degree}"
            )
        self.G = G
        self.n = unknown_degree
        self.M = modulus
        self.slab = G.order ** (unknown_degree - 1)
        # positions x of a row phi(s, x) with some entry of x the identity
        self._touches_e = np.zeros((G.order,) * (unknown_degree - 1), dtype=bool)
        for axis in range(unknown_degree - 1):
            self._touches_e[(slice(None),) * axis + (0,)] = True
        self._form: Optional[SmithForm] = None

    @cached_property
    def S(self) -> List[int]:
        """The generating set whose rows are the unknowns, once the size bound holds."""
        S = _generating_set(self.G)
        H, slab = self.G.order, self.slab
        U = max(len(S) * slab, 1)
        est = H * U * slab + len(S) * H * slab * U // 4
        if est > _MAX_SYSTEM_CELLS:
            raise SizeBound(
                f"slice system too large (~{est} cells) for order {H}, degree {self.n}"
            )
        return S

    @property
    def U(self) -> int:
        """Number of unknowns."""
        return max(len(self.S) * self.slab, 1)

    @property
    def A(self) -> np.ndarray:
        """The matrix of the consistency system, built on each read."""
        return self._residuals(self.reconstruct(np.eye(self.U, dtype=np.int64)), None)

    @cached_property
    def _edges(self) -> Tuple[List[Tuple[int, int, int]], List[Tuple[int, int, int]]]:
        """The tree edges and the non-tree edges (s index, b, s*b)."""
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
        _invariant(
            len(placed) == G.order, f"S = {S} does not generate G", G.order, self.n, self.M
        )
        return tree, extra

    # the recurrence -------------------------------------------------------

    def _row(self, phi: np.ndarray, si: int, b: int, F: Optional[np.ndarray]) -> np.ndarray:
        """Row s*b of phi from rows b and s, solving d(phi)(s, b, ...) = F(s, b, ...)."""
        s = self.S[si]
        mul = self.G.mul
        ps = phi[s]
        if self.n == 1:
            val = phi[b] + ps
        elif self.n == 2:
            val = phi[b] + ps[mul[b]] - ps[b]
        else:
            val = phi[b] + ps[mul[b]] - ps[b][mul] + ps[b][:, None]
        return val if F is None else val - F[s, b]

    def reconstruct(self, u: np.ndarray, F: Optional[np.ndarray] = None) -> np.ndarray:
        """All rows of phi from the generator rows u (axis 0; later axes are a
        batch), reduced mod M at every step."""
        H, M, slab = self.G.order, self.M, self.slab
        phi = np.zeros((H,) * self.n + u.shape[1:], dtype=np.int64)
        for si, s in enumerate(self.S):
            phi[s] = u[si * slab : (si + 1) * slab].reshape(phi.shape[1:]) % M
        for si, b, g in self._edges[0]:
            phi[g] = self._row(phi, si, b, F) % M
        return phi

    def _residuals(self, phi: np.ndarray, F: Optional[np.ndarray]) -> np.ndarray:
        """Non-tree edge residuals, then the normalization rows, stacked."""
        batch = phi.shape[self.n :]
        parts = [np.zeros((0,) + batch, dtype=np.int64)]
        for si, b, g in self._edges[1]:
            res = phi[g] - self._row(phi, si, b, F)
            parts.append(res.reshape((self.slab,) + batch))
        parts += [phi[s][self._touches_e] for s in self.S]
        return np.concatenate(parts) % self.M

    def _rhs(self, F: np.ndarray) -> np.ndarray:
        """Right-hand side of the consistency system for a given rhs cochain
        table F; axes of F past the first n + 1 are a batch, one column each."""
        u = np.zeros((self.U,) + F.shape[self.n + 1 :], dtype=np.int64)
        return -self._residuals(self.reconstruct(u, F), F) % self.M

    # public ---------------------------------------------------------------

    def solve(self, F: np.ndarray) -> Optional[Cochain]:
        """A normalized n-cochain phi with d(phi) = F, F the value table of an
        (n+1)-cochain at modulus M; None when there is none.  The solution is
        checked against F on the nose before it is returned."""
        G, n, M = self.G, self.n, self.M
        if G.order == 1:
            u = None if (F % M).any() else np.zeros(0, dtype=np.int64)
        else:
            if self._form is None:
                self._form = smith_form_mod(self.A, M)
            u = solve_mod(None, self._rhs(F), M, form=self._form)
        if u is None:
            return None
        phi = Cochain(G, n, M, self.reconstruct(u, F))
        holds = np.array_equal(coboundary(phi).values, F % M)
        _invariant(holds, "d of the solution differs from the right-hand side", G.order, n + 1, M)
        return phi

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

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out


def _coboundary_slice_columns(system: _SliceSystem) -> np.ndarray:
    """Generator-row coordinates of d(chi) for every normalized basis (n-1)-cochain."""
    n, H, U = system.n, system.G.order, system.U
    if n == 1:
        return np.zeros((U, 0), dtype=np.int64)
    count = (H - 1) ** (n - 1)
    unit = np.eye(count, dtype=np.int64).reshape((H - 1,) * (n - 1) + (count,))
    chi = np.zeros((H,) * (n - 1) + (count,), dtype=np.int64)
    chi[(slice(1, None),) * (n - 1)] = unit
    cols = _d_rows(chi, n - 1, system.G.mul, system.S)
    return cols.reshape(U, count) % system.M


def cohomology_mod(G: FiniteGroup, n: int, M: int) -> CohomologyGroup:
    """H^n(G, mu_M) with invariant factors, generator cocycles, and exact lookup."""
    if n not in (1, 2, 3):
        raise DegreeOverflow(f"cohomology degree {n} unsupported")
    if G.order == 1:
        return CohomologyGroup(
            degree=n, invariant_factors=[], generators=[], lookup=lambda f: ()
        )
    system = _SliceSystem(G, n, M)
    K = kernel_mod(system.A, M)
    z = K.shape[1]
    kform = smith_form_mod(K, M)

    brels = solve_mod(K, _coboundary_slice_columns(system), M, form=kform)
    _invariant(brels is not None, "a coboundary is not a cocycle", G.order, n, M)
    rels = np.concatenate([brels, kernel_mod(K, M, form=kform)], axis=1)
    quotient = abelian_quotient(z, rels, M)

    generators = []
    for i in range(len(quotient.invariant_factors)):
        u = (K @ quotient.generator_coords[:, i]) % M
        vals = system.reconstruct(u)
        gen = Cochain(G, n, M, vals)
        _invariant(is_cocycle(gen), "a generator is not a cocycle", G.order, n, M)
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
    phi = _SliceSystem(G, n - 1, target).solve(rhs)
    return phi is not None, phi


def _powers(G: FiniteGroup) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The walk p = x^k, k = 1, 2, ..., for every x of G at once: yields
    (live, p), live marking the x with x^k != e, until no x is live.  So x is
    live for k = 1 .. ord(x) - 1."""
    x = np.arange(G.order)
    p = x.copy()
    live = p != 0
    while live.any():
        yield live, p
        p = G.mul[p, x]
        live = live & (p != 0)


def _sylow_subgroups_cyclic(G: FiniteGroup) -> bool:
    """Is every Sylow subgroup of G cyclic?  The Sylow p-subgroup is cyclic
    exactly when some element has order |G|_p, read off the power walk."""
    orders = np.ones(G.order, dtype=np.int64)
    for live, _ in _powers(G):
        orders += live
    rest, p = G.order, 2
    while rest > 1:
        q = 1
        while rest % p == 0:
            rest //= p
            q *= p
        if q > 1 and not (orders % q == 0).any():
            return False
        p += 1
    return True


def _cyclic_invariants(f: Cochain) -> np.ndarray:
    """For each x of f's group, is the 3-cocycle f nontrivial over C* on <x>?

    On <x> of order m, sum_k f(x, x^k, x) over k = 0..m-1 is a complete
    invariant of H^3(Z_m, C*) = Z_m (Dijkgraaf-Witten), and it telescopes to
    0 on every coboundary.  So a sum that is nonzero mod the modulus shows f
    nontrivial on <x>, hence on every subgroup holding x.  The k = 0 term is
    0 by normalization.  The walk p = x^k (_powers) runs for all x at once
    and stops each x at p = e: summing past ord(x) would add copies of the
    invariant, which can cancel mod the modulus.

    The flag of x reads only f's values along the powers of x, at f's
    modulus, so a restriction of f to a subgroup holding x flags x exactly
    when f does: one walk on an ambient group decides the invariant on every
    subgroup.
    """
    G, v = f.group, f.values
    sums = np.zeros(G.order, dtype=np.int64)
    for live, p in _powers(G):
        xs = live.nonzero()[0]
        sums[xs] += v[xs, p[xs], xs]
    return sums % f.modulus != 0


def _cyclic_obstruction(f: Cochain) -> bool:
    """Is the 3-cocycle f nontrivial over C* on some cyclic subgroup <x>?
    True when _cyclic_invariants flags any element."""
    return bool(_cyclic_invariants(f).any())


def _check_trivialization_input(f: Cochain, order: int, modulus: int) -> None:
    """What solve_trivialization checks of f|_H on a subgroup H of the given
    order: a cocycle, whose modulus and headroom content(f|_H) * |H| divide
    the session modulus.  Passing on an ambient group implies passing on
    each of its subgroups: a restriction of a cocycle is one, at the same
    modulus, and content(f|_H) * |H| divides content(f) * |G|."""
    if not is_cocycle(f):
        raise NotACocycle("restriction is not a cocycle")
    if modulus % f.modulus != 0:
        raise ValueError(
            f"session modulus {modulus} does not contain cochain modulus {f.modulus}"
        )
    needed = f.content_modulus() * order
    if modulus % needed != 0:
        raise ValueError(
            f"session modulus {modulus} lacks the headroom {needed} needed "
            "for an exact C*-triviality decision"
        )


def solve_trivialization(f: Cochain, H: Subgroup, modulus: int) -> Optional[Cochain]:
    """A normalized 2-cochain psi0 on H.as_group with d(psi0) = f|_H at the
    given modulus.

    Returns None exactly when f|_H is nontrivial over C*: the session modulus
    must contain the headroom content(f|_H) * |H| (checked), which makes
    solvability at `modulus` equivalent to C*-triviality.  The slice system
    depends only on H's table and the modulus, so it is taken through _once:
    inside a _shared_work block the subgroups with one table share it and
    its factorization, and outside one every call builds its own.  psi0 is
    returned on H's own group whichever subgroup built the system.

    When f|_H is zero on the nose, psi0 is the zero cochain and no system is
    built or factored: that is what the factored solve returns for a zero
    right-hand side (the replayed solution of 0 is 0).  The restriction of a
    checked cocycle carries its flag, so its cocycle check costs nothing.

    Otherwise f|_H is first read on the cyclic subgroups of H
    (_cyclic_obstruction).  A nonzero invariant sum_k f(x, x^k, x) is a
    product of roots of unity that is not 1, so f|_<x>, and with it f|_H, is
    nontrivial over C*: None is the exact answer, and no system is built or
    factored.  The invariant does not decide every class (a cocycle can be
    trivial on each cyclic subgroup of H and not on H), so when it vanishes
    the factored slice solve decides.
    """
    if f.degree != 3:
        raise DegreeOverflow("trivialization expects a 3-cocycle")
    fH = restrict(f, H)
    _check_trivialization_input(fH, H.order, modulus)
    G = H.as_group
    if fH.is_zero():
        return Cochain.zero(G, 2, modulus)
    if _cyclic_obstruction(fH):
        return None
    system = _once(("slice system", modulus), G, lambda: _SliceSystem(G, 2, modulus))
    phi = system.solve(fH.embed(modulus).values)
    return None if phi is None else Cochain._derived(G, 2, modulus, phi.values, phi._cocycle, True)


def _trivial_cstar(G: FiniteGroup, n: int) -> CohomologyGroup:
    """The trivial H^n(G, C*), whose lookup still checks its argument."""

    def lookup(f: Cochain) -> Tuple[int, ...]:
        if f.degree != n or not _same_group(f.group, G):
            raise NotACocycle("lookup expects a cocycle of the right degree and group")
        if not is_cocycle(f):
            raise NotACocycle("not a cocycle")
        return ()

    return CohomologyGroup(degree=n, invariant_factors=[], generators=[], lookup=lookup)


def cohomology_cstar(G: FiniteGroup, n: int) -> CohomologyGroup:
    """H^n(G, C*) as the mu_{|G|} cohomology modulo C*-trivializable classes.

    With M0 = |G| and M1 = |G|^2, a class of H^n(G, mu_M0) dies in
    H^n(G, C*) exactly when its cocycle, embedded at M1, is d of a normalized
    (n-1)-cochain there: M1 carries the headroom content * |G| that makes the
    finite solve equivalent to C*-triviality (see is_trivial_over_cstar).
    That is a question about the degree-(n-1) slice system at M1: the
    combinations sum c_i g_i of the generators g_i that die are those whose
    right-hand sides lie in the column span of its matrix, so the first k
    coordinates of the kernel of [rhs_1 .. rhs_k | A] generate them.  In
    degree 1 nothing dies, since normalized 0-cochains have zero coboundary.

    Generators are mu_{|G|}-valued; lookup accepts a cocycle f at any modulus
    and returns its coordinates along the invariant factors.  There is one
    lookup path: reduce f to its content, and when the content does not
    divide |G| first lift f to a C*-cohomologous cocycle whose content does;
    then read it in H^n(G, mu_{|G|}) and map those coordinates to the
    quotient.

    The lift: with N = lcm(content, |G|), |G| annihilates H^n(G, mu_N), so
    |G|*f = d(phi) has a solution phi at modulus N (one slice system per N,
    factored once).  At modulus N*|G| the cocycle f - d(phi) lies in the same
    C* class and its values are multiples of N, so its content divides |G|.

    Degree 2 skips all of this when every Sylow subgroup of G is cyclic (some
    element has order |G|_p for each prime p): the Schur multiplier
    H^2(G, C*) of such a group is trivial (Karpilovsky, The Schur Multiplier,
    1987), so no system is built and no Smith form taken.  A trivial group,
    found either way, has a lookup that checks the degree, the group and the
    cocycle condition and returns ().
    """
    if n not in (1, 2, 3):
        raise DegreeOverflow(f"cohomology degree {n} unsupported")
    if n == 2 and _sylow_subgroups_cyclic(G):
        return _trivial_cstar(G, n)
    M0 = G.order
    M1 = G.order * G.order
    A = cohomology_mod(G, n, M0)
    k = len(A.invariant_factors)
    if k == 0:
        return _trivial_cstar(G, n)
    if n == 1:
        trivial_coords = np.zeros((k, 0), dtype=np.int64)
    else:
        lower = _SliceSystem(G, n - 1, M1)
        rhs = lower._rhs(np.stack([g.embed(M1).values for g in A.generators], axis=-1))
        trivial_coords = kernel_mod(np.concatenate([rhs, lower.A], axis=1), M1)[:k]
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
        _invariant(is_cocycle(gen), "a C* generator is not a cocycle", G.order, n, M0)
        generators.append(gen)

    systems: Dict[int, _SliceSystem] = {}

    def lookup(f: Cochain) -> Tuple[int, ...]:
        if f.degree != n or not _same_group(f.group, G):
            raise NotACocycle("lookup expects a cocycle of the right degree and group")
        f = f.reduce_to_content()
        N = f.modulus * M0 // gcd(f.modulus, M0)
        if N != M0:
            if not is_cocycle(f):
                raise NotACocycle("not a cocycle")
            if N not in systems:
                systems[N] = _SliceSystem(G, n - 1, N)
            phi = systems[N].solve(f.embed(N).scale(M0).values)
            _invariant(phi is not None, "|G| does not annihilate H^n(G, mu_N)", G.order, n, N)
            lifted = f.embed(N * M0) - coboundary(Cochain(G, n - 1, N * M0, phi.values))
            f = lifted.reduce_to_content()
        return quotient.lookup(A.lookup(f.embed(M0)))

    return CohomologyGroup(
        degree=n,
        invariant_factors=list(quotient.invariant_factors),
        generators=generators,
        lookup=lookup,
    )
