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
that centralizes H).  Each transport and its check still runs.

Work that depends only on a subgroup's multiplication table (the slice
system for d(psi) = omega|_H with its factorization, H^2(H, C*), and the
table's generating set) is taken through cohomology._once.  classify_pairs
runs its classes inside one _shared_work block, so census classes whose
representatives have the same table share that work, and so do normalizers
with the same table; the block closes with the call, and nothing outlives
it.  classify_class and pair_from_coords on their own run outside a block
and pay full price every time.  The slice system is built and factored only
for a class that solve_trivialization cannot answer without it: omega|_H is
not zero, and its invariant on every cyclic subgroup of H vanishes.  On an
untwisted double psi0 = 0 on every class, and no system is built at all; on
a twisted one, most inadmissible classes are refused by the cyclic
invariant, so a table's shared system is factored at the first class that
gets past it, or never.

Work that does not depend on psi is kept by the object it is a function
of, never handed back into a public function.  The pairs on one census class
share omega|_H, against which each psi is checked on the nose, and one
_OrbitPlan: the orbits of H on the base group, each stabilizer checked
against the orbit decomposition's, and the index grids and omega terms of
_psi_double.  Each row's stabilizer is one Subgroup, hence one group, and
that group keeps the commute table and conjugacy classes that
projective_irrep_count reads, so every pair reuses them.  fiber_functors
keeps one _FiberPlan per class: B\\G/C is one double coset exactly when
|B|·|C| = |G|·|B ∩ C|, and when it is, B ∩ C is one Subgroup, hence one
group with one class structure, and the base cochain is restricted to it
once; is_fiber_functor builds a plan for its single pair.  The
psi-dependent checks run once per pair, and nothing outlives the call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .cohomology import (
    Cochain,
    CohomologyGroup,
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
from .twisted_algebra import projective_irrep_count

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
    explicit cochain overrides this and sets omega_k to None.
    """
    if omega is None:
        h3 = cohomology_cstar(base, 3)
        if h3.generators:
            recorded: Optional[int] = omega_k % h3.invariant_factors[0]
            omega = h3.generators[0].scale(recorded)
        else:
            recorded = 0
            omega = Cochain.zero(base, 3, base.order)
    else:
        recorded = None
    _check_base_cocycle(base, omega)
    square = direct_square_with_diagonal(base)
    session = square.group.order**2
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
    on the nose.
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
    return _pair_on(subgroup, psi, restrict(ctx.omega, subgroup))


def _pair_on(subgroup: Subgroup, psi: Cochain, omega_H: Cochain) -> PairHPsi:
    """make_pair's checks of a supplied psi, against omega_H = omega|_subgroup
    (at the session modulus) restricted by the caller."""
    if psi.degree != 2 or psi.modulus != omega_H.modulus:
        raise NotTrivializing("psi must be a 2-cochain at the session modulus")
    if psi.group.order != subgroup.order:
        raise NotTrivializing("psi must live on the pair's subgroup")
    if not coboundary(psi).same_values(omega_H):
        raise NotTrivializing("d(psi) must equal omega restricted to the subgroup")
    return PairHPsi(subgroup, psi)


def diagonal_pair(ctx: DoubleContext) -> PairHPsi:
    """(diagonal subgroup, 0): the difference cocycle vanishes there on the nose."""
    diag = ctx.square.diagonal
    return make_pair(ctx, diag, Cochain.zero(diag.as_group, 2, ctx.modulus))


# ---------------------------------------------------------------------------
# local 2-cocycles at a coset / orbit representative
# ---------------------------------------------------------------------------


def _general_stabilizer(
    G: FiniteGroup, g: int, H1: Subgroup, H2: Subgroup
) -> Tuple[Subgroup, np.ndarray]:
    """H1 ∩ g H2 g^{-1} together with the map x -> g^{-1} x g on all of G."""
    conj_back = G.conj[G.inverse(g)]
    inside = H2.from_parent[conj_back[H1.to_parent]] >= 0
    return Subgroup(G, H1.to_parent[inside].tolist()), conj_back


def _psi_general(
    ctx: AmbientContext, g: int, left: PairHPsi, right: PairHPsi
) -> Tuple[Subgroup, Cochain]:
    """Local 2-cocycle of a double-coset representative, with its stabilizer.

    g indexes the double coset left.subgroup \\ G / right.subgroup in an
    arbitrary ambient group; the result lives on
    left.subgroup ∩ g right.subgroup g^{-1}.  FormulaNotClosed unless the
    result is a genuine normalized 2-cocycle.
    """
    G = ctx.ambient
    stab, conj_back = _general_stabilizer(G, g, left.subgroup, right.subgroup)
    P = stab.to_parent
    A, B = np.meshgrid(P, P, indexing="ij")
    mul, inv = G.mul, G.inv
    om = ctx.omega.values
    f1 = left.subgroup.from_parent
    f2 = right.subgroup.from_parent
    a2 = conj_back[inv[B]]  # g^-1 h'^-1 g, lands in the right subgroup
    b2 = conj_back[inv[A]]  # g^-1 h^-1 g
    vals = (
        left.psi.values[f1[A], f1[B]]
        + right.psi.values[f2[a2], f2[b2]]
        - om[mul[mul[A, B], g], a2, b2]
        + om[A, B, g]
        + om[A, mul[B, g], a2]
    )
    coc = Cochain(stab.as_group, 2, ctx.modulus, vals)
    if not is_cocycle(coc):
        raise FormulaNotClosed(
            f"two-sided local cochain at representative {g} is not a cocycle"
        )
    return stab, coc


def _psi_double(ctx: DoubleContext, g: int, pair: PairHPsi) -> Tuple[Subgroup, Cochain]:
    """Local 2-cocycle of an orbit representative, with its stabilizer.

    pair.subgroup lies in a direct square and g is an element of the base
    group; the result lives on the first projection of the stabilizer of g
    under (h1, h2)·g = h1 g h2^{-1}.  Coded independently of _psi_general;
    FormulaNotClosed unless the result is a genuine normalized 2-cocycle.
    """
    row = _orbit_row(ctx, g, pair.subgroup)
    return row.stabilizer, row.cocycle(pair.psi)


@dataclass(frozen=True)
class _OrbitRow:
    """The psi-independent part of _psi_double at one orbit representative:
    the stabilizer, the index grids that read psi on it, and the sum of the
    five omega terms.  cocycle(psi) adds psi's values and checks the result."""

    representative: int
    stabilizer: Subgroup
    left: np.ndarray
    right: np.ndarray
    omega_terms: np.ndarray
    modulus: int

    def cocycle(self, psi: Cochain) -> Cochain:
        vals = psi.values[self.left, self.right] + self.omega_terms
        coc = Cochain(self.stabilizer.as_group, 2, self.modulus, vals)
        if not is_cocycle(coc):
            raise FormulaNotClosed(
                "orbit-stabilizer local cochain at representative "
                f"{self.representative} is not a cocycle"
            )
        return coc


def _orbit_row(ctx: DoubleContext, g: int, H: Subgroup) -> _OrbitRow:
    """_psi_double's recipe up to psi, for the subgroup H of the square."""
    Gb = ctx.base
    n = Gb.order
    ginv = Gb.inverse(g)
    conj_back = Gb.conj[ginv]
    fH = H.from_parent
    pairs = np.arange(n, dtype=np.int64) * n + conj_back  # (x, g^-1 x g)
    stab = Subgroup(Gb, np.flatnonzero(fH[pairs] >= 0).tolist())
    P = stab.to_parent
    A, B = np.meshgrid(P, P, indexing="ij")
    mul, inv = Gb.mul, Gb.inv
    om = ctx.base_omega.values
    Ai, Bi = inv[A], inv[B]
    ca, cb = conj_back[A], conj_back[B]  # g^-1 h g and g^-1 h' g
    omega_terms = (
        om[ginv, Bi, Ai]
        + om[A, B, Bi]
        + om[cb, mul[ginv, Bi], Ai]
        - om[mul[A, B], Bi, Ai]
        - om[ca, cb, mul[mul[ginv, Bi], Ai]]
    )
    return _OrbitRow(g, stab, fH[A * n + ca], fH[B * n + cb], omega_terms, ctx.modulus)


def _relabelled(H: Subgroup, moved: Subgroup, n: int, values: np.ndarray) -> np.ndarray:
    """f^n(x, y) = f(n^{-1}xn, n^{-1}yn) on moved = n H n^{-1}, for the
    values of a 2-cochain f on H; leading axes of values are a batch."""
    G = H.parent
    i = H.from_parent[G.conj[G.inverse(n), moved.to_parent]]
    return values[..., i[:, None], i]


def transport_pair(ctx: AmbientContext, pair: PairHPsi, n: int) -> PairHPsi:
    """The conjugated pair (n H n^{-1}, psi^n - theta_n), as in the module
    docstring: theta_n is evaluated at (n a n^{-1}, n b n^{-1}) for a, b in H
    and relabelled with psi.  That the result again trivializes omega is
    checked on the nose, not assumed."""
    G, om, P = ctx.ambient, ctx.omega.values, pair.subgroup.to_parent
    A, B = np.meshgrid(P, P, indexing="ij")
    X, Y = G.conj[n, A], G.conj[n, B]
    theta = om[X, Y, n] - om[X, n, B] + om[n, A, B]
    moved = pair.subgroup.conjugate_by(n)
    vals = _relabelled(pair.subgroup, moved, n, pair.psi.values - theta)
    psin = Cochain(moved.as_group, 2, ctx.modulus, vals)
    if not coboundary(psin).same_values(restrict(ctx.omega, moved)):
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


def bimodule_rank(
    ctx: AmbientContext, left: PairHPsi, right: PairHPsi
) -> RankBreakdown:
    """Simple-object count of the two-sided category, one row per double coset."""
    rows = []
    for coset in double_cosets(ctx.ambient, left.subgroup, right.subgroup):
        g = coset[0]
        stab, coc = _psi_general(ctx, g, left, right)
        m = projective_irrep_count(coc)
        rows.append(RankRow(g, stab, coc, m))
    return RankBreakdown(tuple(rows))


def _same_context(a: AmbientContext, b: AmbientContext) -> bool:
    """The same ambient table, modulus and omega values (possibly built apart)."""
    return a is b or (
        _same_group(a.ambient, b.ambient)
        and a.modulus == b.modulus
        and np.array_equal(a.omega.values, b.omega.values)
    )


class _OrbitPlan:
    """The psi-independent half of module_rank_double for a subgroup H of
    the square: the orbits of H on the base group, and per representative its
    _OrbitRow, the stabilizer checked against the orbit decomposition's.  The
    pairs on H share one, and through each row's stabilizer one group, which
    keeps the class structure projective_irrep_count reads."""

    def __init__(self, ctx: DoubleContext, H: Subgroup) -> None:
        dec = orbit_decomposition(ctx.base, H)
        self.rows: List[_OrbitRow] = []
        for g, known in zip(dec.representatives, dec.stabilizers):
            row = _orbit_row(ctx, g, H)
            stab = row.stabilizer
            if stab.elements != known.elements:
                raise InvariantViolated(
                    f"orbit representative {g} of the order-{H.order} "
                    f"subgroup {list(H.elements)}: stabilizer of order {stab.order} "
                    f"differs from the orbit decomposition's ({known.order})"
                )
            self.rows.append(row)

    def breakdown(self, psi: Cochain) -> RankBreakdown:
        rows = []
        for row in self.rows:
            coc = row.cocycle(psi)
            m = projective_irrep_count(coc)
            rows.append(RankRow(row.representative, row.stabilizer, coc, m))
        return RankBreakdown(tuple(rows))


def module_rank_double(ctx: DoubleContext, pair: PairHPsi) -> RankBreakdown:
    """Rank of the module category of a pair in a direct square, one row per orbit."""
    return _OrbitPlan(ctx, pair.subgroup).breakdown(pair.psi)


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


def _torsor_cochain(
    psi0: Cochain, gens: List[Cochain], coords: Tuple[int, ...]
) -> Cochain:
    return sum((gen.scale(t) for t, gen in zip(coords, gens) if t), psi0)


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

    Folds the torsor of trivializations on the class representative by the
    normalizer action; pairs come in order of their minimal torsor coordinates.
    Its pairs share omega|_H, against which each psi is checked, and one
    _OrbitPlan.
    """
    H = cls.rep
    psi0 = solve_trivialization(ctx.omega, H, ctx.modulus)
    if psi0 is None:
        return None
    h2, gens = _h2(H, ctx.modulus)
    omega_H = restrict(ctx.omega, H)
    plan = _OrbitPlan(ctx, H)
    pair_entries = []
    for orbit in sorted(_fold_by_normalizer(ctx, cls, psi0, h2, gens), key=min):
        coords = min(orbit)
        pair = _pair_on(H, _torsor_cochain(psi0, gens, coords), omega_H)
        breakdown = plan.breakdown(pair.psi)
        pair_entries.append(PairEntry(coords, len(orbit), pair, breakdown))
    return ClassEntry(index, H, tuple(h2.invariant_factors), tuple(pair_entries))


def classify_pairs(ctx: DoubleContext) -> ClassificationReport:
    """All pairs (H, psi) up to conjugacy and C*-coboundary, with ranks.

    Runs classify_class over the subgroup census of the ambient square, in
    census order, keeping the classes where omega trivializes, inside one
    _shared_work block: classes and normalizers with the same table share
    the work that depends on the table alone (module docstring).  The block
    closes with the call, so nothing outlives it.
    """
    census = tuple(subgroups_up_to_conjugacy(ctx.ambient))
    with _shared_work():
        entries = [classify_class(ctx, cls, ci) for ci, cls in enumerate(census)]
    return ClassificationReport(ctx, census, tuple(e for e in entries if e is not None))


def _fold_by_normalizer(ctx, cls, psi0, h2, gens):
    """Orbits of the normalizer on the torsor psi0 + span(gens) of C*-classes
    of trivializations, through its affine action on the torsor coordinates
    (module docstring): one checked transport of psi0 per generator n.

    A C* lookup runs only where its answer is not known on the nose: c_n = 0
    when psi0^n - theta_n - psi0 is zero, and row i of L_n is the unit row e_i
    (read back from gen_i just before) when gen_i^n = gen_i.  As n normalizes
    H, gen_i^n is relabelled on H itself.

    The generators n are the normalizer's elements at small_generating_set of
    its table."""
    H = cls.rep
    box = list(itertools.product(*(range(f) for f in h2.invariant_factors)))
    if len(box) == 1:
        return [box]
    where = f"subgroup of order {H.order}, representative {list(H.elements)}"
    units = [tuple(int(i == j) for j in range(len(gens))) for i in range(len(gens))]
    for i, (got, want) in enumerate(zip(map(h2.lookup, gens), units)):
        if got != want:
            raise InvariantViolated(
                f"H^2(H, C*) generator {i} reads back as {got}, not {want} ({where})"
            )

    norm = cls.normalizer
    gen_values = np.array([g.values for g in gens])
    maps = []
    for n in (norm.elements[i] for i in _generating_set(norm.as_group)):
        moved = transport_pair(ctx, PairHPsi(H, psi0), n)
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
        images = (np.array(box) @ np.array(linear) + shift) % h2.invariant_factors
        image = dict(zip(box, map(tuple, images.tolist())))
        if len(set(image.values())) != len(box):
            raise InvariantViolated(
                f"normalizer element {n} does not permute the {len(box)} "
                f"C*-classes of trivializations ({where})"
            )
        maps.append(image)
    # components under permutation generators = orbits of the generated group
    orbits: List[List[Tuple[int, ...]]] = []
    seen = set()
    for start in box:
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        for t in orbit:  # the orbit grows while it is walked
            for image in maps:
                if image[t] not in seen:
                    seen.add(image[t])
                    orbit.append(image[t])
        orbits.append(orbit)
    return orbits


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
    wrong.
    """
    pair, reduced, _ = _pair_at_coords(ctx, subgroup, coords)
    return pair, reduced


def _pair_at_coords(
    ctx: AmbientContext, subgroup: Subgroup, coords: Tuple[int, ...]
) -> Tuple[PairHPsi, Tuple[int, ...], Tuple[int, ...]]:
    """pair_from_coords, also returning the invariant factors of H^2(H, C*)."""
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
    pair = make_pair(ctx, subgroup, _torsor_cochain(psi0, gens, reduced))
    return pair, reduced, factors


# ---------------------------------------------------------------------------
# fiber functors
# ---------------------------------------------------------------------------


class _FiberPlan:
    """The psi-independent half of is_fiber_functor for a subgroup C against
    the base pair (B, beta): whether B and C span one double coset, and if so
    B ∩ C as one subgroup of C with beta restricted to it.  The pairs on C
    share one, and through B ∩ C one group, which keeps the class structure
    projective_irrep_count reads.  The checks are is_fiber_functor's."""

    def __init__(self, ctx: AmbientContext, base: PairHPsi, C: Subgroup) -> None:
        G, B = ctx.ambient, base.subgroup
        if not (_same_group(B.parent, G) and _same_group(C.parent, G)):
            raise WrongAmbient(
                "fiber functor subgroups must live in the context's ambient group"
            )
        meet = B.to_parent[C.from_parent[B.to_parent] >= 0]
        self.inside: Optional[Subgroup] = None
        if B.order * C.order == G.order * len(meet):
            self.inside = Subgroup(C.as_group, C.from_parent[meet].tolist())
            inside_base = Subgroup(base.psi.group, B.from_parent[meet].tolist())
            self.base_psi = restrict(base.psi, inside_base)

    def accepts(self, psi: Cochain) -> bool:
        """Is psi - beta nondegenerate on B ∩ C, for psi on C (and BC = G)?"""
        if self.inside is None:
            return False
        diff = restrict(psi, self.inside) - self.base_psi
        return projective_irrep_count(diff) == 1


def is_fiber_functor(ctx: AmbientContext, base: PairHPsi, candidate: PairHPsi) -> bool:
    """Does the candidate pair give a rank-one module category over the base?

    Three conditions: the candidate is an actual pair (admissibility holds by
    construction), the two subgroups B and C span a single double coset, and
    the difference of the two cochains is nondegenerate on B ∩ C.  B\\G/C is
    one double coset exactly when BC = G, that is when |B|·|C| = |G|·|B ∩ C|.
    WrongAmbient unless both subgroups live in ctx.ambient.
    """
    return _FiberPlan(ctx, base, candidate.subgroup).accepts(candidate.psi)


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
        plan = _FiberPlan(ctx, base, entry.subgroup)
        for pe in entry.pairs:
            found = plan.accepts(pe.pair.psi)
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
