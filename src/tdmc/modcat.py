"""Classification of module categories over twisted doubles of finite groups.

A context fixes an ambient group G with a 3-cocycle omega, everything written
additively in Z/Lambda at the session modulus Lambda = |G|^2.  Module
categories correspond to pairs (H, psi): a subgroup H on which omega becomes a
coboundary together with a 2-cochain psi with d(psi) = omega|_H, taken up to
conjugation and up to shifting psi by a C*-trivial 2-cocycle.  The rank of the
category attached to a pair is a sum of twisted-group-algebra irreducible
counts over double cosets (general two-sided form) or over orbits of H on the
base group (direct-square form).  The two local-cocycle recipes are coded
independently so the tests can play them against each other.

Conventions: omega(x, y, z) takes its arguments in the order of the bar
complex in `cohomology` (trivial coefficients), and conjugation acts on the
left, n: x -> n x n^{-1} (FiniteGroup.conj), carrying H to n H n^{-1}.  For
a cochain f write f^n(x, ...) = f(n^{-1}xn, ...).  The correction cochain

    theta_n(x, y) = omega(x, y, n) - omega(x, n, n^{-1}yn)
                    + omega(n, n^{-1}xn, n^{-1}yn)

satisfies d(theta_n) = omega^n - omega, so psi^n - theta_n trivializes
omega on n H n^{-1} whenever psi trivializes it on H.

The pairs on a census class are the orbits of its normalizer on the torsor
psi0 + span(gens) of C*-classes of trivializations, gens generating
H^2(H, C*).  As psi -> psi^n is linear, theta_n does not depend on psi and
the C* lookup is additive, n moves torsor coordinates by an affine map,
t -> c_n + t L_n modulo the invariant factors, with
c_n = lookup(psi0^n - theta_n - psi0) and row i of L_n = lookup(gen_i^n).
A lookup whose answer is known on the nose is skipped: c_n = 0 when
psi0^n - theta_n - psi0 is zero (every n on an untwisted double), and row i
of L_n is e_i, as gen_i itself reads back, when gen_i^n = gen_i (every n
that centralizes H).  Each transport and its check still runs, on H itself.

A class's pairs are held as arrays: the torsor is one coordinate array,
each map one index array into it, and the pairs' psi one read-only stack,
coordinates @ generator tables + psi0, each psi a table of it.  No psi is
checked on its own: d is linear, so d(psi) = omega|_H follows from checks
run once per class.  _SliceSystem.solve checks d(psi0) = omega|_H on the
nose (psi0 = 0 when omega|_H is zero on the nose); cohomology_cstar checks
is_cocycle on each generator, and embed keeps that flag.  Only make_pair,
where psi comes from a caller, checks d(psi) in full.

Work that depends only on a subgroup's multiplication table (the slice
system for d(psi) = omega|_H with its factorization, H^2(H, C*), the fold's
check that each generator of H^2(H, C*) reads back as its unit vector, and
the table's generating set) is taken through cohomology._once.  classify_pairs
runs its classes in one _shared_work block, so classes and normalizers with
the same table share it; pair_from_coords opens a block of its own, so the
slice system and H^2(H, C*) share H's generating set; classify_class alone
runs outside one.  A block closes with its call, and nothing outlives it.
The slice system is built and factored only when solve_trivialization
cannot answer without it: omega|_H is not zero, and its invariant on every
cyclic subgroup of H vanishes.  So no system is built on an untwisted
double, and on a twisted one most inadmissible classes are refused by the
cyclic invariant.  That invariant is a flag per element x, read off omega
along the powers of x alone (cohomology._cyclic_invariants), so
classify_pairs reads it once on the ambient and refuses a class whose
representative holds a flagged element with one gather, before any
restriction, subgroup group or solve; solve_trivialization would return
None there, and the ambient's headroom, checked once, implies each class's.

Work that does not depend on psi is done once per class, never handed back
into a public function.  The pairs on one census class share the psi stack
and one list of _orbit_rows: the orbits of H on the base group grouped by
stabilizer, one _OrbitGroup per distinct stabilizer in order of first
appearance, each orbit's stabilizer the orbit decomposition's, checked
against the elements H fixes at its representative.  A group stacks the
index grids and omega terms of _psi_double over its representatives, built
in one broadcast.  Each stabilizer goes through _once, keyed by its
element set, so within classify_pairs the stabilizers with the same
elements are one group, which keeps the commute and conjugation tables
_regular_class_counts reads.

Both rank recipes end in _rank_rows.  It takes batches of local cochains,
each on one stabilizer, checks every table to be a normalized 2-cocycle
before any count, raises what checking item by item, row by row, raises
first, and counts each batch as one stack.  _orbit_breakdowns gives it one
batch per orbit group, read off the psi stack, rows back in orbit order
(module_rank_double a stack of one psi, _psi_double a group of one row);
bimodule_rank one batch per distinct stabilizer of the double cosets.
fiber_functors calls _fiber_flags once per class, is_fiber_functor for its
one pair: B\\G/C is one double coset exactly when |B|·|C| = |G|·|B ∩ C|,
and then B ∩ C is one group, the base cochain is restricted to it once,
and psi - beta is checked and counted for all the pairs as one stack of
the psis read on B ∩ C.  The normalizer fold restricts omega to H once per
class for every transport's check.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Dict, List, Optional, Tuple

import numpy as np

from .cohomology import (
    Cochain,
    CohomologyGroup,
    _check_trivialization_input,
    _cyclic_invariants,
    _d_rows,
    _generating_set,
    _once,
    _shared_work,
    build_tilde_omega,
    coboundary,
    cohomology_cstar,
    is_cocycle,
    restrict,
    solve_trivialization,
)
from .errors import (
    FormulaNotClosed,
    InvariantViolated,
    NotACocycle,
    NotTrivializing,
    WrongAmbient,
)
from .groups import (
    DirectSquare,
    FiniteGroup,
    Subgroup,
    SubgroupClass,
    _same_group,
    direct_square_with_diagonal,
    double_cosets,
    orbit_decomposition,
    subgroups_up_to_conjugacy,
)
from .twisted_algebra import _regular_class_counts

__all__ = [
    "AmbientContext",
    "DoubleContext",
    "PairHPsi",
    "RankRow",
    "RankBreakdown",
    "PairEntry",
    "ClassEntry",
    "ClassificationReport",
    "double_context",
    "make_pair",
    "diagonal_pair",
    "transport_pair",
    "bimodule_rank",
    "module_rank_double",
    "classify_class",
    "classify_pairs",
    "pair_from_coords",
    "is_fiber_functor",
    "fiber_functors",
]


# ---------------------------------------------------------------------------
# contexts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmbientContext:
    """Ambient group + 3-cocycle, both held at the session modulus |G|^2.

    The session modulus gives every subgroup H the headroom
    content(omega|_H) * |H| required for finite solves to decide C*-questions
    exactly (content and |H| both divide |G|).
    """

    ambient: FiniteGroup
    omega: Cochain
    modulus: int


@dataclass(frozen=True)
class DoubleContext(AmbientContext):
    """Ambient = G x G with the difference cocycle of a 3-cocycle on G.

    omega_k records the reduced multiple of the canonical generator used to
    build the base cocycle, or None when an explicit cochain was supplied.
    """

    base: FiniteGroup
    square: DirectSquare
    base_omega: Cochain
    omega_k: Optional[int]


def _check_base_cocycle(G: FiniteGroup, omega: Cochain) -> None:
    if omega.degree != 3:
        raise NotACocycle("context needs a 3-cocycle")
    if not _same_group(omega.group, G):
        raise WrongAmbient("cocycle lives on a different group")
    if G.order % omega.modulus != 0:
        raise ValueError(
            f"cocycle modulus {omega.modulus} must divide the group order {G.order}"
        )
    if not is_cocycle(omega):
        raise NotACocycle("context cocycle fails the 3-cocycle identity")


def double_context(
    base: FiniteGroup, omega_k: int = 0, omega: Optional[Cochain] = None
) -> DoubleContext:
    """Context for the direct square of `base` with the difference cocycle.

    With omega=None the base cocycle is omega_k times the first canonical
    generator of the degree-3 C* cohomology of the base, omega_k reduced modulo
    its order and recorded (zero cocycle and 0 when that group is trivial); an
    explicit cochain overrides this and sets omega_k to None.  omega_k = 0
    needs no degree-3 cohomology: its cocycle is the zero cochain.  A base
    cocycle that is zero on the nose (still checked) gives the zero cochain
    as the difference cocycle on the square, which is what build_tilde_omega
    computes for it, without its pullbacks.
    """
    if omega is None:
        recorded: Optional[int] = 0
        omega = Cochain.zero(base, 3, base.order)
        if omega_k:
            h3 = cohomology_cstar(base, 3)
            if h3.generators:
                recorded = omega_k % h3.invariant_factors[0]
                omega = h3.generators[0].scale(recorded)
    else:
        recorded = None
    _check_base_cocycle(base, omega)
    square = direct_square_with_diagonal(base)
    session = square.group.order**2
    if omega.is_zero():
        tilde = Cochain.zero(square.group, 3, session)
    else:
        tilde = build_tilde_omega(omega, square).embed(session)
    return DoubleContext(
        ambient=square.group,
        omega=tilde,
        modulus=session,
        base=base,
        square=square,
        base_omega=omega.embed(session),
        omega_k=recorded,
    )


# ---------------------------------------------------------------------------
# pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairHPsi:
    """A subgroup of the ambient group plus a 2-cochain trivializing omega on it."""

    subgroup: Subgroup
    psi: Cochain


def make_pair(
    ctx: AmbientContext, subgroup: Subgroup, psi: Optional[Cochain] = None
) -> PairHPsi:
    """Validated pair; with psi=None a trivialization is solved for.

    Raises NotTrivializing when omega does not become a coboundary on the
    subgroup (psi=None) or when the supplied cochain fails d(psi) = omega|_H
    on the nose: the one check of a psi from a caller (module docstring).
    """
    if not _same_group(subgroup.parent, ctx.ambient):
        raise WrongAmbient("pair subgroup must live in the context's ambient group")
    if psi is None:
        solved = solve_trivialization(ctx.omega, subgroup, ctx.modulus)
        if solved is None:
            raise NotTrivializing(
                f"omega stays nontrivial on the subgroup of order {subgroup.order}"
            )
        return PairHPsi(subgroup, solved)
    if psi.degree != 2 or psi.modulus != ctx.omega.modulus:
        raise NotTrivializing("psi must be a 2-cochain at the session modulus")
    if psi.group.order != subgroup.order:
        raise NotTrivializing("psi must live on the pair's subgroup")
    if not coboundary(psi).same_values(restrict(ctx.omega, subgroup)):
        raise NotTrivializing("d(psi) must equal omega restricted to the subgroup")
    return PairHPsi(subgroup, psi)


def diagonal_pair(ctx: DoubleContext) -> PairHPsi:
    """(diagonal subgroup, 0): the difference cocycle vanishes there on the nose."""
    diag = ctx.square.diagonal
    return make_pair(ctx, diag, Cochain.zero(diag.as_group, 2, ctx.modulus))


# ---------------------------------------------------------------------------
# local 2-cocycles at a coset / orbit representative
# ---------------------------------------------------------------------------


def _psi_general(
    ctx: AmbientContext,
    stab: Subgroup,
    reps: np.ndarray,
    conj_back: np.ndarray,
    left: PairHPsi,
    right: PairHPsi,
) -> np.ndarray:
    """Local 2-cochains of double-coset representatives with one stabilizer.

    Each g in reps indexes a double coset left.subgroup \\ G / right.subgroup
    in an arbitrary ambient group, and stab = left.subgroup ∩ g
    right.subgroup g^{-1} for every one of them; row i of conj_back is the map
    x -> g^{-1} x g on all of G for g = reps[i].  Returns the
    (len(reps), |stab|, |stab|) stack of value tables on stab, reduced mod
    the modulus and not yet checked: bimodule_rank checks that each is a
    normalized 2-cocycle.
    """
    G = ctx.ambient
    P = stab.to_parent
    A, B = P[:, None], P[None, :]
    g = reps[:, None, None]
    mul, om = G.mul, ctx.omega.values
    f1 = left.subgroup.from_parent
    f2 = right.subgroup.from_parent
    back = conj_back[:, G.inv[P]]  # g^-1 h^-1 g, lands in the right subgroup
    a2, b2 = back[:, None, :], back[:, :, None]
    vals = (
        left.psi.values[f1[A], f1[B]]
        + right.psi.values[f2[a2], f2[b2]]
        - om[mul[mul[A, B], g], a2, b2]
        + om[A, B, g]
        + om[A, mul[B, g], a2]
    )
    return vals % ctx.modulus


def _psi_double(ctx: DoubleContext, g: int, pair: PairHPsi) -> Tuple[Subgroup, Cochain]:
    """Local 2-cocycle of an orbit representative, with its stabilizer.

    pair.subgroup lies in a direct square and g is an element of the base
    group; the result lives on the first projection of the stabilizer of g
    under (h1, h2)·g = h1 g h2^{-1}.  Coded independently of _psi_general;
    FormulaNotClosed unless the result is a genuine normalized 2-cocycle.
    """
    H, reps = pair.subgroup, np.array([g], dtype=np.int64)
    stab = Subgroup(ctx.base, np.flatnonzero(_stabilized(ctx, H, reps)[0]).tolist())
    group = _orbit_group(ctx, H, [0], reps, stab)
    local = _orbit_breakdowns(ctx, [group], pair.psi.values[None])[0].rows[0]
    return local.stabilizer, local.cocycle


def _first_failure(
    K: FiniteGroup, vals: np.ndarray, modulus: int
) -> Optional[Tuple[int, bool]]:
    """The least index of a (batch, |K|, |K|) stack of reduced value tables
    whose table is not a normalized 2-cocycle on K, with whether it fails
    normalization; None when every table is one.  One _d_rows checks the
    whole stack."""
    unnormalized = vals[:, 0].any(axis=1) | vals[:, :, 0].any(axis=1)
    d = _d_rows(np.moveaxis(vals, 0, -1), 2, K.mul, slice(None))
    failing = unnormalized | (d % modulus).any(axis=(0, 1, 2))
    if not failing.any():
        return None
    j = int(np.flatnonzero(failing)[0])
    return j, bool(unnormalized[j])


def _local_failure(unnormalized: bool, kind: str, representative: int) -> Exception:
    """What checking one local cochain raises: the Cochain constructor's
    ValueError when it is not normalized, else FormulaNotClosed."""
    if unnormalized:
        return ValueError("cochain is not normalized (nonzero on identity slice)")
    return FormulaNotClosed(
        f"{kind} local cochain at representative {representative} is not a cocycle"
    )


@dataclass(frozen=True)
class _OrbitGroup:
    """The psi-independent part of _psi_double at the orbit representatives
    with one stabilizer: their orbit positions, the stabilizer, and per
    representative the index grids that read psi on it and the sum of the
    five omega terms, stacked (len(representatives), |S|, |S|)."""

    positions: List[int]
    representatives: np.ndarray
    stabilizer: Subgroup
    left: np.ndarray
    right: np.ndarray
    omega_terms: np.ndarray
    modulus: int

    def tables(self, psis: np.ndarray) -> np.ndarray:
        """The local cochains of a (batch, |H|, |H|) stack of psi value
        tables, as a (batch, len(representatives), |S|, |S|) stack reduced
        mod the modulus and not yet checked."""
        return (psis[:, self.left, self.right] + self.omega_terms) % self.modulus


def _stabilized(ctx: DoubleContext, H: Subgroup, reps: np.ndarray) -> np.ndarray:
    """inside[i, x]: does (x, g^-1 x g) lie in H, for g = reps[i]?  Row i
    marks the first projection of g's stabilizer under H."""
    Gb = ctx.base
    n = Gb.order
    conj_back = Gb.conj[Gb.inv[reps]]
    return H.from_parent[np.arange(n, dtype=np.int64) * n + conj_back] >= 0


def _orbit_group(
    ctx: DoubleContext, H: Subgroup, positions: List[int], reps: np.ndarray, stab: Subgroup
) -> _OrbitGroup:
    """_psi_double's recipe up to psi, for the subgroup H of the square, at
    the representatives reps, each with the stabilizer stab: one broadcast
    over the representatives."""
    Gb = ctx.base
    n = Gb.order
    P = stab.to_parent
    back = Gb.conj[Gb.inv[reps]][:, P]  # g^-1 h g, per representative g
    ginv = Gb.inv[reps][:, None, None]
    A, B = P[None, :, None], P[None, None, :]
    mul, inv = Gb.mul, Gb.inv
    om = ctx.base_omega.values
    Ai, Bi = inv[A], inv[B]
    ca, cb = back[:, :, None], back[:, None, :]
    omega_terms = (
        om[ginv, Bi, Ai]
        + om[A, B, Bi]
        + om[cb, mul[ginv, Bi], Ai]
        - om[mul[A, B], Bi, Ai]
        - om[ca, cb, mul[mul[ginv, Bi], Ai]]
    )
    fH = H.from_parent
    return _OrbitGroup(
        positions, reps, stab, fH[A * n + ca], fH[B * n + cb], omega_terms, ctx.modulus
    )


def _relabelled(H: Subgroup, moved: Subgroup, n: int, values: np.ndarray) -> np.ndarray:
    """f^n(x, y) = f(n^{-1}xn, n^{-1}yn) on moved = n H n^{-1}, for the
    values of a 2-cochain f on H; leading axes of values are a batch."""
    G = H.parent
    i = H.from_parent[G.conj[G.inverse(n), moved.to_parent]]
    return values[..., i[:, None], i]


def transport_pair(
    ctx: AmbientContext,
    pair: PairHPsi,
    n: int,
    *,
    omega_on_subgroup: Optional[Cochain] = None,
) -> PairHPsi:
    """The conjugated pair (n H n^{-1}, psi^n - theta_n), as in the module
    docstring: theta_n is evaluated at (n a n^{-1}, n b n^{-1}) for a, b in H
    and relabelled with psi.  That the result again trivializes omega is
    checked on the nose, not assumed: d of the result is compared with omega
    restricted to n H n^{-1}.  A caller that holds restrict(ctx.omega, H)
    may pass it as omega_on_subgroup, and the check reads it when n
    normalizes H instead of restricting omega again."""
    G, om, P = ctx.ambient, ctx.omega.values, pair.subgroup.to_parent
    A, B = P[:, None], P[None, :]
    X, Y = G.conj[n, A], G.conj[n, B]
    theta = om[X, Y, n] - om[X, n, B] + om[n, A, B]
    moved = pair.subgroup.conjugate_by(n)
    vals = _relabelled(pair.subgroup, moved, n, pair.psi.values - theta)
    psin = Cochain(moved.as_group, 2, ctx.modulus, vals)
    if omega_on_subgroup is None or moved is not pair.subgroup:
        omega_on_subgroup = restrict(ctx.omega, moved)
    if not coboundary(psin).same_values(omega_on_subgroup):
        raise FormulaNotClosed(
            "transported cochain fails to trivialize omega on the conjugate subgroup"
        )
    return PairHPsi(moved, psin)


# ---------------------------------------------------------------------------
# ranks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankRow:
    """One double coset / orbit: representative, stabilizer, local cocycle, count."""

    representative: int
    stabilizer: Subgroup
    cocycle: Cochain
    count: int


@dataclass(frozen=True)
class RankBreakdown:
    rows: Tuple[RankRow, ...]

    @property
    def total(self) -> int:
        return sum(row.count for row in self.rows)


def _rank_rows(
    kind: str, modulus: int, batches: list, n_items: int, n_rows: int
) -> List[RankBreakdown]:
    """The rank breakdowns of n_items items with n_rows rows each.

    Each batch is (row positions, representatives, stabilizer S, values):
    values is the (n_items, len(positions), |S|, |S|) stack of the local
    cochains at those rows, reduced mod the modulus and not yet checked,
    positions increasing.  Every table is checked to be a normalized
    2-cocycle on S before any is counted, and a failure raises what checking
    item by item, row by row within each item, raises first: the least
    failing item names its least failing row.  Each batch is then counted
    as one stack."""
    failures = []
    for rows, reps, stab, vals in batches:
        n = stab.order
        failed = _first_failure(stab.as_group, vals.reshape(-1, n, n), modulus)
        if failed is not None:
            item, j = divmod(failed[0], len(rows))
            failures.append((item, rows[j], failed[1], int(reps[j])))
    if failures:
        _, _, unnormalized, representative = min(failures)
        raise _local_failure(unnormalized, kind, representative)
    out: List[List[Optional[RankRow]]] = [[None] * n_rows for _ in range(n_items)]
    for rows, reps, stab, vals in batches:
        K, n = stab.as_group, stab.order
        counts = iter(_regular_class_counts(K, vals.reshape(-1, n, n), modulus))
        for item, tables in zip(out, vals):
            for r, g, v in zip(rows, reps, tables):
                coc = Cochain._derived(K, 2, modulus, v, True, True)
                item[r] = RankRow(int(g), stab, coc, next(counts))
    return [RankBreakdown(tuple(rows)) for rows in out]


def bimodule_rank(
    ctx: AmbientContext, left: PairHPsi, right: PairHPsi
) -> RankBreakdown:
    """Simple-object count of the two-sided category, one row per double coset.

    The double cosets with the same stabilizer share one Subgroup and one
    _psi_general stack, checked and counted by _rank_rows (module
    docstring).  Rows come in coset order.
    """
    G, H1 = ctx.ambient, left.subgroup
    reps = np.array(
        [coset[0] for coset in double_cosets(G, H1, right.subgroup)], dtype=np.int64
    )
    conj_back = G.conj[G.inv[reps]]
    inside = right.subgroup.from_parent[conj_back[:, H1.to_parent]] >= 0
    by_stabilizer: Dict[bytes, List[int]] = {}
    for i, row in enumerate(inside):
        by_stabilizer.setdefault(row.tobytes(), []).append(i)
    batches = []
    for idx in by_stabilizer.values():
        stab = Subgroup(G, H1.to_parent[inside[idx[0]]].tolist())
        vals = _psi_general(ctx, stab, reps[idx], conj_back[idx], left, right)
        batches.append((idx, reps[idx], stab, vals[None]))
    return _rank_rows("two-sided", ctx.modulus, batches, 1, len(reps))[0]


def _same_context(a: AmbientContext, b: AmbientContext) -> bool:
    """The same ambient table, modulus and omega values (possibly built apart)."""
    return a is b or (
        _same_group(a.ambient, b.ambient)
        and a.modulus == b.modulus
        and np.array_equal(a.omega.values, b.omega.values)
    )


def _orbit_rows(ctx: DoubleContext, H: Subgroup) -> List[_OrbitGroup]:
    """The orbits of H on the base group as one _OrbitGroup per distinct
    stabilizer, in order of first appearance, on the orbit decomposition's
    stabilizers, each checked against the elements H fixes at its
    representative.  Each stabilizer goes through _once, keyed by its
    element set, so inside a _shared_work block every stabilizer with the
    same elements is one Subgroup, hence one group keeping the commute and
    conjugation tables _regular_class_counts reads."""
    dec = orbit_decomposition(ctx.base, H)
    reps = np.array(dec.representatives, dtype=np.int64)
    by_stabilizer: Dict[Tuple[int, ...], Tuple[Subgroup, List[int]]] = {}
    for r, (g, known, inside) in enumerate(
        zip(dec.representatives, dec.stabilizers, _stabilized(ctx, H, reps))
    ):
        found = np.flatnonzero(inside)
        if not np.array_equal(known.to_parent, found):
            raise InvariantViolated(
                f"orbit representative {g} of the order-{H.order} "
                f"subgroup {list(H.elements)}: stabilizer of order {len(found)} "
                f"differs from the orbit decomposition's ({known.order})"
            )
        stab = _once(("orbit stabilizer", known.elements), ctx.base, lambda: known)
        by_stabilizer.setdefault(stab.elements, (stab, []))[1].append(r)
    return [
        _orbit_group(ctx, H, positions, reps[positions], stab)
        for stab, positions in by_stabilizer.values()
    ]


def _orbit_breakdowns(
    ctx: DoubleContext, groups: List[_OrbitGroup], psis: np.ndarray
) -> List[RankBreakdown]:
    """The rank breakdown of each table of a (batch, |H|, |H|) stack of psi
    values on the subgroup of the groups, rows in orbit order: per group,
    one stack of the local cocycles for _rank_rows."""
    batches = [
        (group.positions, group.representatives, group.stabilizer, group.tables(psis))
        for group in groups
    ]
    n_rows = sum(len(group.positions) for group in groups)
    return _rank_rows("orbit-stabilizer", ctx.modulus, batches, len(psis), n_rows)


def module_rank_double(ctx: DoubleContext, pair: PairHPsi) -> RankBreakdown:
    """Rank of the module category of a pair in a direct square, one row per orbit."""
    rows = _orbit_rows(ctx, pair.subgroup)
    return _orbit_breakdowns(ctx, rows, pair.psi.values[None])[0]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairEntry:
    """One pair up to equivalence: torsor coordinates of psi, how many C*-classes
    the normalizer folded together, the pair itself, and its rank breakdown."""

    coords: Tuple[int, ...]
    folded: int
    pair: PairHPsi
    breakdown: RankBreakdown


@dataclass(frozen=True)
class ClassEntry:
    """All pairs supported on one admissible census class of subgroups."""

    index: int
    subgroup: Subgroup
    h2_factors: Tuple[int, ...]
    pairs: Tuple[PairEntry, ...]


@dataclass(frozen=True)
class ClassificationReport:
    """The classified census classes, with the census they were taken from."""

    context: DoubleContext
    census: Tuple[SubgroupClass, ...]
    entries: Tuple[ClassEntry, ...]

    @property
    def census_size(self) -> int:
        return len(self.census)

    @property
    def total_pairs(self) -> int:
        return sum(len(e.pairs) for e in self.entries)

    @property
    def admissible_indices(self) -> Tuple[int, ...]:
        return tuple(e.index for e in self.entries)


# Cells of the torsor product computed per float64 block (8 MB).
_PRODUCT_CELLS = 1 << 20


def _torsor_pairs(H, psi0, gens, coords) -> Tuple[np.ndarray, List[PairHPsi]]:
    """The read-only stack of the torsor points psi0 + sum t_i gen_i, one per
    row t of coords, and their pairs on H: each psi is a table of the stack,
    a cocycle exactly when psi0 is one, as every generator is.

    The product coords @ generator tables runs in float64, which numpy hands
    to BLAS (it has no BLAS path for int64), in blocks of about
    _PRODUCT_CELLS cells cast back into the int64 stack.  It is exact while
    every sum stays below 2**53: with k generators, coordinates below
    max(t) + 1 (each t_i is below its invariant factor) and values below
    Lambda, k * (max(t) + 1) * Lambda < 2**53 is checked."""
    n, M, k = psi0.group.order, psi0.modulus, len(gens)
    if k * (int(coords.max(initial=0)) + 1) * M >= 2**53:
        raise InvariantViolated(
            f"torsor product of {k} generator(s) at modulus {M} is not exact in float64"
        )
    gen_values = np.array([g.values for g in gens], dtype=np.float64).reshape(k, n * n)
    stack = np.empty((len(coords), n * n), dtype=np.int64)
    step = max(1, _PRODUCT_CELLS // (n * n))
    for r in range(0, len(coords), step):
        stack[r : r + step] = coords[r : r + step] @ gen_values
    stack = stack.reshape(-1, n, n)
    stack += psi0.values
    stack %= M
    stack.setflags(write=False)
    psis = (Cochain._derived(psi0.group, 2, M, v, psi0._cocycle, True) for v in stack)
    return stack, [PairHPsi(H, psi) for psi in psis]


def _h2(H: Subgroup, modulus: int) -> Tuple[CohomologyGroup, List[Cochain]]:
    """H^2(H, C*) and its generators embedded at the session modulus, once
    per table through _once."""

    def make() -> Tuple[CohomologyGroup, List[Cochain]]:
        h2 = cohomology_cstar(H.as_group, 2)
        return h2, [b.embed(modulus) for b in h2.generators]

    return _once(("H^2 over C*", modulus), H.as_group, make)


def classify_class(
    ctx: DoubleContext, cls: SubgroupClass, index: int
) -> Optional[ClassEntry]:
    """All pairs on one census class, or None when omega does not trivialize there.

    Folds the torsor on the class representative by the normalizer; each
    orbit gives one pair, at its least coordinates, which order the pairs.
    The pairs' psi are one stack, which also feeds the orbit rows, and are
    certified once (module docstring).
    """
    H = cls.rep
    psi0 = solve_trivialization(ctx.omega, H, ctx.modulus)
    if psi0 is None:
        return None
    h2, gens = _h2(H, ctx.modulus)
    rows = _orbit_rows(ctx, H)
    box, label = _fold_by_normalizer(ctx, cls, psi0, h2, gens)
    sizes = np.bincount(label)
    least = np.flatnonzero(sizes)
    stack, pairs = _torsor_pairs(H, psi0, gens, box[least])
    breakdowns = _orbit_breakdowns(ctx, rows, stack)
    found = zip(box[least].tolist(), sizes[least].tolist(), pairs, breakdowns)
    pair_entries = tuple(PairEntry(tuple(t), *rest) for t, *rest in found)
    return ClassEntry(index, H, tuple(h2.invariant_factors), pair_entries)


def classify_pairs(ctx: DoubleContext) -> ClassificationReport:
    """All pairs (H, psi) up to conjugacy and C*-coboundary, with ranks.

    Runs classify_class over the subgroup census of the ambient square, in
    census order, keeping the classes where omega trivializes, inside one
    _shared_work block: classes and normalizers with the same table share
    the work that depends on the table alone, and orbit stabilizers with the
    same elements share one Subgroup (module docstring).  The block closes
    with the call, so nothing outlives it.

    The cyclic invariant is read once, on omega over the whole square, after
    checking there what solve_trivialization checks on each class.  A class
    whose representative holds an element it flags is refused without a
    classify_class call: its restriction would read the same flag, and
    solve_trivialization would return None.  The flags live for the call.
    """
    census = tuple(subgroups_up_to_conjugacy(ctx.ambient))
    _check_trivialization_input(ctx.omega, ctx.ambient.order, ctx.modulus)
    flagged = _cyclic_invariants(ctx.omega)
    with _shared_work():
        entries = [
            classify_class(ctx, cls, ci)
            for ci, cls in enumerate(census)
            if not flagged[cls.rep.to_parent].any()
        ]
    return ClassificationReport(ctx, census, tuple(e for e in entries if e is not None))


def _fold_by_normalizer(ctx, cls, psi0, h2, gens):
    """Orbits of the normalizer on the torsor psi0 + span(gens) of C*-classes
    of trivializations, through its affine action on the torsor coordinates
    (module docstring): one checked transport of psi0 per generator n, each
    checked against omega restricted to H once for the class.  Returns box,
    the (points, len(gens)) coordinates in itertools.product order, and
    label, label[i] the index of the least point of i's orbit.

    A C* lookup runs only where its answer is not known on the nose: c_n = 0
    when psi0^n - theta_n - psi0 is zero, and row i of L_n is the unit row e_i
    (gen_i reads back as e_i, checked once per table through _once) when
    gen_i^n = gen_i.  As n normalizes H, gen_i^n is relabelled on H itself.

    The generators n are the normalizer's elements at small_generating_set of
    its table."""
    H = cls.rep
    factors = tuple(h2.invariant_factors)
    box = np.indices(factors, dtype=np.int64).reshape(len(factors), prod(factors)).T
    label = np.arange(len(box))
    if len(box) == 1:
        return box, label
    where = f"subgroup of order {H.order}, representative {list(H.elements)}"
    units = [tuple(int(i == j) for j in range(len(gens))) for i in range(len(gens))]

    def read_back() -> None:
        for i, (got, want) in enumerate(zip(map(h2.lookup, gens), units)):
            if got != want:
                raise InvariantViolated(
                    f"H^2(H, C*) generator {i} reads back as {got}, not {want} ({where})"
                )

    _once(("H^2 read-back", ctx.modulus), H.as_group, read_back)

    norm = cls.normalizer
    gen_values = np.array([g.values for g in gens])
    omega_H = restrict(ctx.omega, H)
    maps = []
    for n in (norm.elements[i] for i in _generating_set(norm.as_group)):
        moved = transport_pair(ctx, PairHPsi(H, psi0), n, omega_on_subgroup=omega_H)
        if moved.subgroup.elements != H.elements:
            raise InvariantViolated(
                f"normalizer element {n} does not normalize the {where}"
            )
        diff = moved.psi - psi0
        shift = (0,) * len(gens) if diff.is_zero() else h2.lookup(diff)
        linear = [
            unit
            if np.array_equal(v, g)
            else h2.lookup(Cochain(H.as_group, 2, ctx.modulus, v))
            for v, g, unit in zip(_relabelled(H, H, n, gen_values), gen_values, units)
        ]
        images = (box @ np.array(linear) + shift) % factors
        image = np.ravel_multi_index(tuple(images.T), factors)
        if not (np.bincount(image, minlength=len(box)) == 1).all():
            raise InvariantViolated(
                f"normalizer element {n} does not permute the {len(box)} "
                f"C*-classes of trivializations ({where})"
            )
        maps.append(image)
    # spread least labels along the generators' maps: orbits of the group
    while True:
        spread = np.minimum.reduce([label] + [label[m] for m in maps])
        if np.array_equal(spread, label):
            return box, label
        label = spread


def pair_from_coords(
    ctx: AmbientContext, subgroup: Subgroup, coords: Tuple[int, ...]
) -> Tuple[PairHPsi, Tuple[int, ...]]:
    """The pair on a subgroup sitting at given torsor coordinates.

    Coordinates index the trivializations of omega on the subgroup relative
    to a base solution, one per invariant factor of its degree-2 C*
    cohomology; they are reduced modulo the factors.  Returns the pair and
    the reduced coordinates.  Raises NotTrivializing when omega does not
    become a coboundary on the subgroup (no coordinates are valid there, and
    H^2 is not computed), else ValueError when the number of coordinates is
    wrong.  The pair is certified as in classify_class (module docstring).
    """
    return _pair_at_coords(ctx, subgroup, coords)[:2]


def _pair_at_coords(
    ctx: AmbientContext, subgroup: Subgroup, coords: Tuple[int, ...]
) -> Tuple[PairHPsi, Tuple[int, ...], Tuple[int, ...]]:
    """pair_from_coords, also returning the invariant factors of H^2(H, C*).
    Runs inside one _shared_work block, so the slice system and H^2 share
    the subgroup's generating set."""
    with _shared_work():
        psi0 = solve_trivialization(ctx.omega, subgroup, ctx.modulus)
        if psi0 is None:
            raise NotTrivializing(
                f"omega does not trivialize on the order-{subgroup.order} subgroup; "
                "no pairs are supported there"
            )
        h2, gens = _h2(subgroup, ctx.modulus)
    factors = tuple(h2.invariant_factors)
    if len(coords) != len(factors):
        raise ValueError(
            f"expected {len(factors)} torsor coordinate(s) "
            f"for invariant factors {list(factors)}, got {len(coords)}"
        )
    reduced = tuple(int(t) % f for t, f in zip(coords, factors))
    _, (pair,) = _torsor_pairs(subgroup, psi0, gens, np.array([reduced], np.int64))
    return pair, reduced, factors


# ---------------------------------------------------------------------------
# fiber functors
# ---------------------------------------------------------------------------


def _fiber_flags(
    ctx: AmbientContext, base: PairHPsi, C: Subgroup, psis: List[Cochain]
) -> List[bool]:
    """is_fiber_functor of each psi on C against the base pair (B, beta).
    When B and C span one double coset, B ∩ C is one subgroup of C, hence
    one group with one pair of the tables _regular_class_counts reads, beta
    is restricted to it once, and every psi - beta on B ∩ C is gathered,
    checked to be a cocycle and counted as one stack."""
    G, B = ctx.ambient, base.subgroup
    if not (_same_group(B.parent, G) and _same_group(C.parent, G)):
        raise WrongAmbient(
            "fiber functor subgroups must live in the context's ambient group"
        )
    meet = B.to_parent[C.from_parent[B.to_parent] >= 0]
    if B.order * C.order != G.order * len(meet):
        return [False] * len(psis)
    inside = Subgroup(C.as_group, C.from_parent[meet].tolist())
    beta = restrict(base.psi, Subgroup(base.psi.group, B.from_parent[meet].tolist()))
    K, M = inside.as_group, beta.modulus
    for psi in psis:
        if not _same_group(psi.group, inside.parent):
            raise WrongAmbient("cochain and subgroup have different ambient groups")
        if psi.degree != 2 or psi.modulus != M:
            raise ValueError("cochain mismatch (group, degree, or modulus differ)")
    i, j = inside.to_parent[:, None], inside.to_parent
    diff = (np.stack([psi.values[i, j] for psi in psis]) - beta.values) % M
    if _first_failure(K, diff, M) is not None:
        raise NotACocycle("psi fails the 2-cocycle identity")
    return [m == 1 for m in _regular_class_counts(K, diff, M)]


def is_fiber_functor(ctx: AmbientContext, base: PairHPsi, candidate: PairHPsi) -> bool:
    """Does the candidate pair give a rank-one module category over the base?

    Three conditions: the candidate is an actual pair (admissibility holds by
    construction), the two subgroups B and C span a single double coset, and
    the difference of the two cochains is nondegenerate on B ∩ C.  B\\G/C is
    one double coset exactly when BC = G, that is when |B|·|C| = |G|·|B ∩ C|.
    WrongAmbient unless both subgroups live in ctx.ambient.
    """
    return _fiber_flags(ctx, base, candidate.subgroup, [candidate.psi])[0]


def _context_name(ctx: DoubleContext) -> str:
    twist = "an explicit omega" if ctx.omega_k is None else f"k={ctx.omega_k}"
    return f"the double of a group of order {ctx.base.order} with {twist}"


def fiber_functors(
    ctx: DoubleContext, report: Optional[ClassificationReport] = None
) -> List[PairEntry]:
    """Classified pairs whose module category over the double has rank one.

    Each pair is also checked both ways: a fiber functor must have rank one
    and a rank-one pair must be a fiber functor.  A report must come from an
    equal context (the same ambient table and omega values), else
    WrongAmbient.
    """
    if report is None:
        report = classify_pairs(ctx)
    theirs = report.context
    if not _same_context(theirs, ctx):
        raise WrongAmbient(
            f"report classified on {_context_name(theirs)} cannot answer "
            f"for {_context_name(ctx)}"
        )
    base = diagonal_pair(ctx)
    out = []
    for entry in report.entries:
        accepted = _fiber_flags(
            ctx, base, entry.subgroup, [pe.pair.psi for pe in entry.pairs]
        )
        for pe, found in zip(entry.pairs, accepted):
            rank = pe.breakdown.total
            if found != (rank == 1):
                where = (
                    f"on census class {entry.index} (order {entry.subgroup.order}, "
                    f"representative {list(entry.subgroup.elements)}), psi {pe.coords}"
                )
                raise InvariantViolated(
                    f"fiber functor {where}, has rank {rank}, not 1"
                    if found
                    else f"rank-one pair {where}, is not a fiber functor"
                )
            if found:
                out.append(pe)
    return out
