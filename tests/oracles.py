"""Independent test-only oracles for the rank machinery.

None is part of the production path, and the two oracles are bounded to
test-scale inputs:

* center_dimension_from_structure / center_dimension_oracle: the center
  dimension of a twisted group algebra built literally from its structure
  constants, by a complex singular-value decomposition with a documented
  tolerance.  It equals the number of irreducible projective
  representations, so it checks projective_irrep_count.
* oracle_simple_bimodules: the simple bimodules on one double coset, from a
  symbolic rewrite system on the stabilizer operator algebra.  It shares no
  formula with _psi_general or _psi_double.

ambient_context puts the pair machinery on an arbitrary ambient group with a
3-cocycle, outside the direct squares the package classifies; klein_context
is the double of Z2xZ2 at one of its 8 cocycles.  stored_context holds a
double's difference cocycle as a table (build_tilde_omega), which a
DoubleContext never keeps: the oracles that read omega take it, and the
pair functions run on it give the reference for the projections' reader.

centralizer is the literal commuting set, used by the untwisted rank
identities.  conjugacy_classes (the element classes, each the orbit of
G.conj) and normalizer (the literal N_G(H)) serve the census and rank tests;
the package itself reads neither.

One-at-a-time references for the batched rank rows and fiber checks:

* regular_class_count_by_classes: the psi-regular class count read class
  by class off conjugacy_classes, each class checked to be constant;
* bimodule_rank_per_coset: bimodule_rank one double coset at a time, each
  with its own stabilizer, local cochain, cocycle check and class count;
* orbit_breakdown_per_pair: module_rank_double for one pair, one orbit at a
  time, the same way;
* fiber_functors_per_pair: fiber_functors' pairs, one pair at a time, with
  the single double coset read off double_cosets;
* torsor_sum: one pair's psi0 + sum t_i gen_i as a chain of Cochain scale
  and + calls, each + checking that its operands match;
* double_cosets_by_sweep: double_cosets one coset at a time, each started
  by the least element not yet covered;
* orbit_decomposition_by_sweep: orbit_decomposition the same way, one
  orbit at a time, with its orbit-stabilizer and covering checks.

Literal references for exact routines, each the simplest form of the
production rule it checks:

* census_by_closures: the subgroup census that joins every subgroup found
  with every cyclic subgroup, each join a breadth-first closure from the
  identity;
* small_generating_set_all_pairs: small_generating_set's rule, with the
  pair step trying every pair x < y in order;
* smith_form_full_block: smith_form_mod with the pivot search taking
  np.gcd over the whole unfinished block at every step;
* fancy_index_op: linalg._run with every recorded operation written as one
  fancy-index read and write of whole rows, out of place
  (smith_form_fancy_index runs the elimination and the replays on it);
* PerEdgeSliceSystem: the slice system built one tree edge at a time, with
  cohomology_mod_per_generator and cohomology_cstar_per_generator, the H^n
  computations with each generator reconstructed, checked and summed on its
  own and no shortcut (no Sylow or universal-coefficient answer);
* cyclic_invariants: the invariant sum_k f(x, x^k, x) of
  cohomology._cyclic_obstruction, element by element;
* perm_closure: a perm spec's permutations in the order its group numbers
  them, from a breadth-first closure on one-line tuples.

untwisted_abelian_double_counts is a closed form, not a literal reference:
for abelian A the untwisted double has the pairs (L <= A x A, psi in
H^2(L, C*)), of rank [A^2 : L], with |H^2(L, C*)| = prod_{i<j} gcd(d_i, d_j)
over L's invariant factors, and |H^2(A^2, C*)| fiber functors.  It reads
only a Cayley table and uses nothing from tdmc.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import cached_property
from itertools import combinations
from math import gcd, prod
from typing import Dict, List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np

from tdmc import linalg
from tdmc.cohomology import (
    Cochain,
    CohomologyGroup,
    _coboundary_slice_columns,
    _SliceSystem,
    coboundary,
    cohomology_cstar,
    is_cocycle,
)
from tdmc.errors import (
    ElementOutOfRange,
    FormulaNotClosed,
    InvariantViolated,
    NotACocycle,
    SizeBound,
)
from tdmc.errors import WrongAmbient
from tdmc.groups import (
    FiniteGroup,
    OrbitDecomposition,
    Subgroup,
    _conjugates,
    _distinct,
    _same_group,
    double_cosets,
    group_from_spec,
    orbit_decomposition,
)
from tdmc.modcat import (
    AmbientContext,
    ClassificationReport,
    DoubleContext,
    PairEntry,
    PairHPsi,
    RankBreakdown,
    RankRow,
    _check_base_cocycle,
    diagonal_pair,
    double_context,
)
from tdmc.linalg import abelian_quotient, kernel_mod, smith_form_mod, solve_mod

_ORACLE_MAX = 64
_ORACLE_TOL = 1e-9
_ORACLE_COSET_MAX = 16


def ambient_context(G: FiniteGroup, omega: Cochain) -> AmbientContext:
    """Context on G itself, with omega held at the session modulus |G|^2."""
    _check_base_cocycle(G, omega)
    session = G.order**2
    return AmbientContext(ambient=G, omega=omega.embed(session), modulus=session)


def stored_context(ctx: DoubleContext) -> AmbientContext:
    """ctx with its difference cocycle stored as a table, built once."""
    return AmbientContext(ambient=ctx.ambient, omega=ctx.omega, modulus=ctx.modulus)


def klein_context(bits: Tuple[int, int, int]) -> DoubleContext:
    """The double of Z2xZ2 at the sum of the C* generators of H^3 picked by bits."""
    K4 = group_from_spec("Z2xZ2")
    gens = cohomology_cstar(K4, 3).generators
    omega = Cochain.zero(K4, 3, gens[0].modulus)
    for bit, gen in zip(bits, gens):
        if bit:
            omega = omega + gen
    return double_context(K4, omega=omega)


def cyclic_invariants(f: Cochain) -> List[int]:
    """For each element x, sum_k f(x, x^k, x) over k = 1..ord(x)-1 mod the
    modulus, walking the powers of x one at a time."""
    mul, out = f.group.mul, []
    for x in range(f.group.order):
        total, p = 0, x
        while p != 0:
            total += int(f.values[x, p, x])
            p = int(mul[p, x])
        out.append(total % f.modulus)
    return out


def center_dimension_from_structure(
    table: np.ndarray, coeffs: np.ndarray
) -> int:
    """Dimension of the center of the algebra with e_h e_k = coeffs[h,k] e_{table[h,k]}.

    Test-scale oracle in complex floating arithmetic (documented tolerance);
    not part of the production path.
    """
    n = table.shape[0]
    if n > _ORACLE_MAX:
        raise SizeBound(f"center oracle limited to dimension {_ORACLE_MAX}")
    hh = np.repeat(np.arange(n), n)
    kk = np.tile(np.arange(n), n)
    left = np.zeros((n, n, n), dtype=np.complex128)
    left[hh, kk, table[hh, kk]] = coeffs[hh, kk]
    right = left.transpose(1, 0, 2)
    constraint = (left - right).transpose(1, 2, 0).reshape(n * n, n)
    s = np.linalg.svd(constraint, compute_uv=False)
    smax = s[0] if len(s) else 0.0
    tol = _ORACLE_TOL * max(1.0, smax)
    return int((s < tol).sum()) + (n - len(s) if constraint.shape[0] < n else 0)


def center_dimension_oracle(psi: Cochain) -> int:
    """Center dimension of C_psi[psi.group] = number of irreducible summands."""
    G = psi.group
    if G.order > _ORACLE_MAX:
        raise SizeBound(f"center oracle limited to order {_ORACLE_MAX}")
    zeta = np.exp(2j * np.pi / psi.modulus)
    coeffs = zeta ** psi.values.astype(np.float64)
    return center_dimension_from_structure(G.mul, coeffs)


def _general_stabilizer(
    G: FiniteGroup, g: int, H1: Subgroup, H2: Subgroup
) -> Tuple[Subgroup, np.ndarray]:
    """H1 ∩ g H2 g^{-1} together with the map x -> g^{-1} x g on all of G."""
    conj_back = G.conj[G.inverse(g)]
    inside = H2.from_parent[conj_back[H1.to_parent]] >= 0
    return Subgroup(G, H1.to_parent[inside].tolist()), conj_back


def oracle_simple_bimodules(
    ctx: AmbientContext, left: PairHPsi, right: PairHPsi, g: int
) -> int:
    """Count simple bimodules supported on the double coset of g, from scratch.

    Builds the stabilizer operator algebra j_h = i1_{h,g} ∘ i2_{hg, g^-1 h^-1 g}
    symbolically, normalizing words with the three compatibility rewrite rules
    of the two module structures, and returns the center dimension of the
    resulting structure constants.  Shares no formula with _psi_general or
    _psi_double.
    """
    G = ctx.ambient
    stab, conj_back = _general_stabilizer(G, g, left.subgroup, right.subgroup)
    if stab.order > _ORACLE_COSET_MAX:
        raise SizeBound(
            f"bimodule oracle limited to stabilizers of order {_ORACLE_COSET_MAX}"
        )
    mul, inv = G.mul, G.inv
    om = ctx.omega.values
    f1 = left.subgroup.from_parent
    f2 = right.subgroup.from_parent
    psi1, psi2 = left.psi.values, right.psi.values

    def rewrite(word: List[Tuple[str, int, int]]) -> Tuple[List[Tuple[str, int, int]], int]:
        word = list(word)
        scalar = 0
        while True:
            for i in range(len(word) - 1):
                a, b = word[i], word[i + 1]
                if a[0] == "i2" and b[0] == "i1":
                    _, x, k = a
                    _, h, src = b
                    assert src == mul[x, k]
                    word[i] = ("i1", int(h), int(x))
                    word[i + 1] = ("i2", int(mul[h, x]), int(k))
                    scalar -= om[h, x, k]
                    break
                if a[0] == "i1" and b[0] == "i1":
                    _, hp, g0 = a
                    _, h, src = b
                    assert src == mul[hp, g0]
                    word[i : i + 2] = [("i1", int(mul[h, hp]), int(g0))]
                    scalar -= om[h, hp, g0] + psi1[f1[h], f1[hp]]
                    break
                if a[0] == "i2" and b[0] == "i2":
                    _, x, k1 = a
                    _, src, k2 = b
                    assert src == mul[x, k1]
                    word[i : i + 2] = [("i2", int(x), int(mul[k1, k2]))]
                    scalar += om[x, k1, k2] - psi2[f2[k1], f2[k2]]
                    break
            else:
                return word, int(scalar % ctx.modulus)

    j_word = {
        h: [("i1", h, g), ("i2", int(mul[h, g]), int(conj_back[inv[h]]))]
        for h in stab.elements
    }
    k = stab.order
    local = {h: i for i, h in enumerate(stab.elements)}
    table = np.zeros((k, k), dtype=np.int64)
    coeffs = np.zeros((k, k), dtype=np.complex128)
    zeta = np.exp(2j * np.pi / ctx.modulus)
    for a in stab.elements:
        for b in stab.elements:
            word, scalar = rewrite(j_word[a] + j_word[b])
            assert len(word) == 2 and word[0][0] == "i1" and word[1][0] == "i2"
            c = word[0][1]
            assert word == j_word[c]  # the product is again one of the j's
            table[local[a], local[b]] = local[c]
            coeffs[local[a], local[b]] = zeta**scalar
    return center_dimension_from_structure(table, coeffs)


def regular_class_count_by_classes(psi: Cochain) -> int:
    """projective_irrep_count's answer class by class: the conjugacy classes
    on which the psi-regular flag holds, each checked to be constant."""
    G, v, M = psi.group, psi.values, psi.modulus
    regular = ~(G.commute & ((v - v.T) % M != 0)).any(axis=1)
    count = 0
    for cls in conjugacy_classes(G):
        flags = regular[cls]
        if flags.any() and not flags.all():
            raise InvariantViolated(
                f"psi-regularity is not constant on the conjugacy class of {cls[0]} "
                f"(group of order {G.order}); psi is not a cocycle"
            )
        count += bool(flags[0])
    return count


def bimodule_rank_per_coset(
    ctx: AmbientContext, left: PairHPsi, right: PairHPsi
) -> RankBreakdown:
    """bimodule_rank one double coset at a time: per representative its own
    stabilizer Subgroup, the two-sided local cochain through the public
    Cochain constructor and is_cocycle, and regular_class_count_by_classes."""
    G = ctx.ambient
    mul, inv, om = G.mul, G.inv, ctx.omega.values
    f1 = left.subgroup.from_parent
    f2 = right.subgroup.from_parent
    rows = []
    for coset in double_cosets(G, left.subgroup, right.subgroup):
        g = coset[0]
        stab, conj_back = _general_stabilizer(G, g, left.subgroup, right.subgroup)
        P = stab.to_parent
        A, B = np.meshgrid(P, P, indexing="ij")
        a2 = conj_back[inv[B]]
        b2 = conj_back[inv[A]]
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
        rows.append(RankRow(g, stab, coc, regular_class_count_by_classes(coc)))
    return RankBreakdown(tuple(rows))


def orbit_breakdown_per_pair(ctx: DoubleContext, pair: PairHPsi) -> RankBreakdown:
    """module_rank_double one orbit at a time: per representative its own
    stabilizer Subgroup, checked against orbit_decomposition's, the
    orbit-stabilizer local cochain through the public Cochain constructor
    and is_cocycle, and regular_class_count_by_classes."""
    Gb, H = ctx.base, pair.subgroup
    n = Gb.order
    mul, inv, om = Gb.mul, Gb.inv, ctx.base_omega.values
    fH = H.from_parent
    dec = orbit_decomposition(Gb, H)
    rows = []
    for g, known in zip(dec.representatives, dec.stabilizers):
        ginv = int(inv[g])
        conj_back = Gb.conj[ginv]
        stab = Subgroup(Gb, [x for x in range(n) if fH[x * n + conj_back[x]] >= 0])
        if stab.elements != known.elements:
            raise InvariantViolated(
                f"orbit representative {g} of the order-{H.order} "
                f"subgroup {list(H.elements)}: stabilizer of order {stab.order} "
                f"differs from the orbit decomposition's ({known.order})"
            )
        P = stab.to_parent
        A, B = np.meshgrid(P, P, indexing="ij")
        Ai, Bi = inv[A], inv[B]
        ca, cb = conj_back[A], conj_back[B]
        vals = (
            pair.psi.values[fH[A * n + ca], fH[B * n + cb]]
            + om[ginv, Bi, Ai]
            + om[A, B, Bi]
            + om[cb, mul[ginv, Bi], Ai]
            - om[mul[A, B], Bi, Ai]
            - om[ca, cb, mul[mul[ginv, Bi], Ai]]
        )
        coc = Cochain(stab.as_group, 2, ctx.modulus, vals)
        if not is_cocycle(coc):
            raise FormulaNotClosed(
                f"orbit-stabilizer local cochain at representative {g} is not a cocycle"
            )
        rows.append(RankRow(g, stab, coc, regular_class_count_by_classes(coc)))
    return RankBreakdown(tuple(rows))


def fiber_functors_per_pair(
    ctx: DoubleContext, report: ClassificationReport
) -> List[PairEntry]:
    """The classified pairs (C, psi) that fiber_functors keeps, one at a
    time: the diagonal pair (B, beta) and C span a single double coset, and
    psi - beta restricted to B ∩ C, a public Cochain checked by is_cocycle,
    has exactly one regular class (regular_class_count_by_classes)."""
    G, base = ctx.ambient, diagonal_pair(ctx)
    B = base.subgroup
    out = []
    for entry in report.entries:
        C = entry.subgroup
        if len(double_cosets(G, B, C)) != 1:
            continue
        meet = [x for x in B.elements if x in C]
        in_b = [int(B.from_parent[x]) for x in meet]
        in_c = [int(C.from_parent[x]) for x in meet]
        inside = Subgroup(C.as_group, in_c)
        beta = base.psi.values[np.ix_(in_b, in_b)]
        for pe in entry.pairs:
            vals = pe.pair.psi.values[np.ix_(in_c, in_c)] - beta
            diff = Cochain(inside.as_group, 2, ctx.modulus, vals)
            if not is_cocycle(diff):
                raise FormulaNotClosed("psi - beta is not a cocycle on B ∩ C")
            if regular_class_count_by_classes(diff) == 1:
                out.append(pe)
    return out


def torsor_sum(psi0: Cochain, gens: Sequence[Cochain], coords: Sequence[int]) -> Cochain:
    """The torsor point psi0 + sum t_i gen_i at one point, one Cochain at a
    time: the per-pair sum that classify_class's stack of pairs replaces."""
    return sum((gen.scale(t) for t, gen in zip(coords, gens) if t), psi0)


def double_cosets_by_sweep(
    G: FiniteGroup, left: Subgroup, right: Subgroup
) -> List[List[int]]:
    """left\\G/right by a sweep over G: each g not yet covered starts the
    next coset, left g right, listed ascending."""
    L, Rinv = left.to_parent, G.inv[right.to_parent]
    seen = np.zeros(G.order, dtype=bool)
    out: List[List[int]] = []
    for g in range(G.order):
        if not seen[g]:
            coset = _distinct(G.order, G.mul[G.mul[L, g][:, None], Rinv])
            seen[coset] = True
            out.append(coset.tolist())
    return out


def orbit_decomposition_by_sweep(G: FiniteGroup, H: Subgroup) -> OrbitDecomposition:
    """The orbits of H <= G×G on G by a sweep over G: each g not yet
    covered starts the next orbit, h1 g h2^{-1} over H, listed ascending,
    with g's stabilizer checked to project faithfully and to satisfy the
    orbit-stabilizer count, and the orbits checked to cover G.  Stabilizers
    with the same projection are one Subgroup."""
    n = G.order
    pairs = np.array(H.elements, dtype=np.int64)
    h1, h2 = pairs // n, pairs % n
    act = G.mul[G.mul[h1], G.inv[h2][:, None]]
    orbits: List[List[int]] = []
    representatives: List[int] = []
    stabilizers: List[Subgroup] = []
    by_projection: Dict[Tuple[int, ...], Subgroup] = {}
    seen = np.zeros(n, dtype=bool)
    for g in range(n):
        if seen[g]:
            continue
        orbit = _distinct(n, act[:, g])
        seen[orbit] = True
        fixed = np.nonzero(act[:, g] == g)[0]
        proj = tuple(sorted({int(x) for x in h1[fixed]}))
        if len(proj) != len(fixed) or len(orbit) * len(fixed) != len(pairs):
            raise InvariantViolated(f"orbit of {g}: orbit-stabilizer count fails")
        orbits.append([int(x) for x in orbit])
        representatives.append(g)
        if proj not in by_projection:
            by_projection[proj] = Subgroup(G, proj)
        stabilizers.append(by_projection[proj])
    if sum(len(o) for o in orbits) != n:
        raise InvariantViolated("orbits do not cover the group")
    return OrbitDecomposition(orbits, representatives, stabilizers)


def conjugacy_classes(G: FiniteGroup) -> List[List[int]]:
    """Conjugacy classes as sorted lists, ordered by their minimal element."""
    seen = np.zeros(G.order, dtype=bool)
    classes = []
    for x in range(G.order):
        if seen[x]:
            continue
        cls = _distinct(G.order, G.conj[:, x])
        seen[cls] = True
        classes.append([int(c) for c in cls])
    return classes


def normalizer(G: FiniteGroup, H: Subgroup) -> Subgroup:
    """N_G(H), the g with g H g^-1 = H."""
    if not _same_group(H.parent, G):
        raise WrongAmbient("subgroup does not live in the given group")
    arr = H.to_parent
    # row g: g H g^{-1} sorted; conjugation is injective, so it is H iff equal
    moved = np.sort(_conjugates(G, arr), axis=1)
    return Subgroup(G, np.flatnonzero((moved == arr).all(axis=1)).tolist())


def centralizer(G: FiniteGroup, x: int) -> Subgroup:
    """The elements of G that commute with x."""
    if not 0 <= x < G.order:
        raise ElementOutOfRange(f"element {x} outside 0..{G.order - 1}")
    mask = G.mul[:, x] == G.mul[x, :]
    return Subgroup(G, np.nonzero(mask)[0].tolist())


def bfs_closure(G: FiniteGroup, generators: Sequence[int]) -> List[int]:
    """Subgroup generated by the given elements, breadth-first from the identity."""
    right = [G.mul[:, int(g)].tolist() for g in generators]
    seen = [False] * G.order
    seen[0] = True
    out = [0]
    for w in out:
        for col in right:
            p = col[w]
            if not seen[p]:
                seen[p] = True
                out.append(p)
    return out


def perm_closure(degree: int, generators: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
    """A perm spec's elements in the order its group numbers them: breadth
    first from the identity, w followed by w * g for each generator g in
    list order, where (w * g)(i) = w(g(i))."""
    order = [tuple(range(1, degree + 1))]
    seen = set(order)
    for w in order:
        for g in generators:
            q = tuple(w[g[i] - 1] for i in range(degree))
            if q not in seen:
                seen.add(q)
                order.append(q)
    return order


def small_generating_set_all_pairs(G: FiniteGroup) -> List[int]:
    """A deterministic generating set, preferring 1 or 2 generators when they exist."""
    n = G.order
    if n == 1:
        return []
    for x in range(1, n):
        if len(bfs_closure(G, [x])) == n:
            return [x]
    for x in range(1, n):
        for y in range(x + 1, n):
            if len(bfs_closure(G, [x, y])) == n:
                return [x, y]
    gens: List[int] = []
    have = {0}
    for x in range(1, n):
        if x not in have:
            gens.append(x)
            have = set(bfs_closure(G, gens))
            if len(have) == n:
                break
    return gens


def census_by_closures(G: FiniteGroup) -> List[Tuple[Tuple[int, ...], int, Tuple[int, ...]]]:
    """(representative, class size, normalizer) per subgroup class, sorted by
    (order, elements), each representative the least conjugate.

    Every subgroup found is joined with every cyclic subgroup until nothing
    new appears; only then are the subgroups split into conjugacy classes.
    """
    cyclics: List[Tuple[frozenset, int]] = []
    seen_cyclic = set()
    for x in range(G.order):
        key = frozenset(bfs_closure(G, [x]))
        if key not in seen_cyclic:
            seen_cyclic.add(key)
            cyclics.append((key, x))
    subs: Dict[frozenset, Tuple[int, ...]] = {frozenset({0}): ()}
    for key, gen in cyclics:
        subs.setdefault(key, (gen,))
    queue = deque(subs)
    while queue:
        key = queue.popleft()
        gens = subs[key]
        for ckey, cgen in cyclics:
            if ckey <= key:
                continue
            joined = frozenset(bfs_closure(G, list(gens) + [cgen]))
            if joined not in subs:
                subs[joined] = gens + (cgen,)
                queue.append(joined)
    remaining = set(subs)
    rows = []
    for key in sorted(subs, key=lambda s: (len(s), sorted(s))):
        if key not in remaining:
            continue
        orbit = {frozenset(row) for row in _conjugates(G, np.array(sorted(key))).tolist()}
        remaining -= orbit
        rep = Subgroup(G, min(sorted(o) for o in orbit))
        rows.append((rep.elements, len(orbit), normalizer(G, rep).elements))
    rows.sort(key=lambda r: (len(r[0]), r[0]))
    return rows


def _full_block_move_pivot(self: linalg._Worker, t: int, bound: int) -> bool:
    """Swap the entry of A[t:, t:] with the smallest gcd with M to (t, t),
    first in row-major order; the bound is not used."""
    g = np.gcd(self.A[t:, t:], self.M)
    i, j = divmod(int(np.argmin(g)), g.shape[1])
    if g[i, j] == self.M:
        return False
    if i:
        self.row_op(t, (linalg._SWAP, t, t + i))
    if j:
        self.col_op(t, (linalg._SWAP, t, t + j))
    return True


def smith_form_full_block(A: np.ndarray, M: int) -> linalg.SmithForm:
    """smith_form_mod with the pivot searched over the whole block at every step."""
    with mock.patch.object(linalg._Worker, "move_pivot", _full_block_move_pivot):
        return linalg.smith_form_mod(A, M)


def fancy_index_op(op: tuple, out: np.ndarray, M: int) -> None:
    """Run the one row operation ``op`` on the rows of ``out``: it reads its
    rows by fancy indexing, over the full width, and writes the new rows
    back."""
    tag = op[0]
    if tag == linalg._CLEAR:
        _, t, rows, q = op
        out[rows] = (out[rows] - q * out[t]) % M
    elif tag == linalg._SWAP:
        _, i, j = op
        out[[i, j]] = out[[j, i]]
    elif tag == linalg._SCALE:
        _, i, u = op
        out[i] = (out[i] * u) % M
    elif tag == linalg._ADDMUL:
        _, i, j, q = op
        out[i] = (out[i] + q * out[j]) % M
    else:
        _, i, j, x, y, p, q = op
        out[[i, j]] = (np.array([[x, y], [-q, p]], dtype=np.int64) @ out[[i, j]]) % M


def smith_form_fancy_index(A: np.ndarray, M: int, b: np.ndarray):
    """(form, U, Uinv, apply_rows(b)) of smith_form_mod(A, M), with every
    operation, in the elimination and in the replays, run by fancy_index_op
    (linalg._run, and linalg._clear, which the column clear calls directly)."""

    def clear(out, t, rows, q, M):
        fancy_index_op((linalg._CLEAR, t, rows, q), out, M)

    with mock.patch.object(linalg, "_run", fancy_index_op), mock.patch.object(
        linalg, "_clear", clear
    ):
        form = linalg.smith_form_mod(A, M)
        return form, form.U, form.Uinv, form.apply_rows(b)


class PerEdgeSliceSystem(_SliceSystem):
    """_SliceSystem with the tree recurrence run one edge at a time, in BFS
    queue order, each row from its own _row call and reduced on its own; the
    residuals are concatenated edge by edge and reduced once."""

    @cached_property
    def _edge_list(self) -> Tuple[List[Tuple[int, int, int]], List[Tuple[int, int, int]]]:
        """The tree edges and the non-tree edges (s index, b, s*b)."""
        G, S = self.G, self.S
        placed = {0}
        queue: List[int] = [0]
        for s in S:
            if s not in placed:
                placed.add(s)
                queue.append(s)
        tree: List[Tuple[int, int, int]] = []
        extra: List[Tuple[int, int, int]] = []
        qi = 0
        while qi < len(queue):
            b = queue[qi]
            qi += 1
            for si, s in enumerate(S):
                g = int(G.mul[s, b])
                if g in placed:
                    extra.append((si, b, g))
                else:
                    placed.add(g)
                    tree.append((si, b, g))
                    queue.append(g)
        if len(placed) != G.order:
            raise InvariantViolated(f"S = {S} does not generate G")
        return tree, extra

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
        H, M, slab = self.G.order, self.M, self.slab
        phi = np.zeros((H,) * self.n + u.shape[1:], dtype=np.int64)
        for si, s in enumerate(self.S):
            phi[s] = u[si * slab : (si + 1) * slab].reshape(phi.shape[1:]) % M
        for si, b, g in self._edge_list[0]:
            phi[g] = self._row(phi, si, b, F) % M
        return phi

    def _residuals(self, phi: np.ndarray, F: Optional[np.ndarray]) -> np.ndarray:
        batch = phi.shape[self.n :]
        parts = [np.zeros((0,) + batch, dtype=np.int64)]
        for si, b, g in self._edge_list[1]:
            res = phi[g] - self._row(phi, si, b, F)
            parts.append(res.reshape((self.slab,) + batch))
        parts += [phi[s][self._touches_e] for s in self.S]
        return np.concatenate(parts) % self.M


def _lookup_checks(f: Cochain, G: FiniteGroup, n: int, M: Optional[int]) -> None:
    if f.degree != n or not _same_group(f.group, G):
        raise NotACocycle("lookup expects a cocycle of the right degree and group")
    if M is not None and f.modulus != M:
        raise ValueError(f"lookup expects modulus {M}, got {f.modulus}")
    if not is_cocycle(f):
        raise NotACocycle("not a cocycle")


def cohomology_mod_per_generator(G: FiniteGroup, n: int, M: int) -> CohomologyGroup:
    """cohomology_mod on PerEdgeSliceSystem, each generator reconstructed and
    checked on its own."""
    if G.order == 1:

        def trivial(f: Cochain) -> Tuple[int, ...]:
            _lookup_checks(f, G, n, M)
            return ()

        return CohomologyGroup(n, [], [], trivial)
    system = PerEdgeSliceSystem(G, n, M)
    K = kernel_mod(system.A, M)
    kform = smith_form_mod(K, M)
    brels = solve_mod(K, _coboundary_slice_columns(system), M, form=kform)
    if brels is None:
        raise InvariantViolated("a coboundary is not a cocycle")
    rels = np.concatenate([brels, kernel_mod(K, M, form=kform)], axis=1)
    quotient = abelian_quotient(K.shape[1], rels, M)
    generators = []
    for i in range(len(quotient.invariant_factors)):
        u = (K @ quotient.generator_coords[:, i]) % M
        gen = Cochain(G, n, M, system.reconstruct(u))
        if not is_cocycle(gen):
            raise InvariantViolated(f"generator {i} is not a cocycle")
        generators.append(gen)

    def lookup(f: Cochain) -> Tuple[int, ...]:
        _lookup_checks(f, G, n, M)
        c = solve_mod(K, system.read_u(f.values), M, form=kform)
        if c is None:
            raise NotACocycle("cocycle is outside the computed kernel")
        return quotient.lookup(c)

    return CohomologyGroup(n, list(quotient.invariant_factors), generators, lookup)


def cohomology_cstar_per_generator(G: FiniteGroup, n: int) -> CohomologyGroup:
    """cohomology_cstar with no shortcut, on cohomology_mod_per_generator and
    PerEdgeSliceSystem: each C* generator is a chain of Cochain scale and +
    calls, and every answer runs the lower system and the quotient."""
    M0, M1 = G.order, G.order**2
    A = cohomology_mod_per_generator(G, n, M0)
    k = len(A.invariant_factors)
    if k == 0:

        def trivial(f: Cochain) -> Tuple[int, ...]:
            _lookup_checks(f, G, n, None)
            return ()

        return CohomologyGroup(n, [], [], trivial)
    if n == 1:
        trivial_coords = np.zeros((k, 0), dtype=np.int64)
    else:
        lower = PerEdgeSliceSystem(G, n - 1, M1)
        rhs = lower._rhs(np.stack([g.embed(M1).values for g in A.generators], axis=-1))
        trivial_coords = kernel_mod(np.concatenate([rhs, lower.A], axis=1), M1)[:k]
    LA = 1
    for d in A.invariant_factors:
        LA = LA * d // gcd(LA, d)
    rels = [trivial_coords % LA, np.diag(np.array(A.invariant_factors, dtype=np.int64))]
    quotient = abelian_quotient(k, np.concatenate(rels, axis=1), LA)
    generators = []
    for i in range(len(quotient.invariant_factors)):
        gen = Cochain.zero(G, n, M0)
        for c, basis in zip(quotient.generator_coords[:, i], A.generators):
            gen = gen + basis.scale(int(c))
        generators.append(gen)
    systems: Dict[int, PerEdgeSliceSystem] = {}

    def lookup(f: Cochain) -> Tuple[int, ...]:
        _lookup_checks(f, G, n, None)
        f = f.reduce_to_content()
        N = f.modulus * M0 // gcd(f.modulus, M0)
        if N != M0:
            if N not in systems:
                systems[N] = PerEdgeSliceSystem(G, n - 1, N)
            phi = systems[N].solve(f.embed(N).scale(M0).values)
            lifted = f.embed(N * M0) - coboundary(Cochain(G, n - 1, N * M0, phi.values))
            f = lifted.reduce_to_content()
        return quotient.lookup(A.lookup(f.embed(M0)))

    return CohomologyGroup(n, list(quotient.invariant_factors), generators, lookup)


def _invariant_factors(orders: Sequence[int]) -> List[int]:
    """Invariant factors d_0, d_1, ... (d_{i+1} | d_i) of a finite abelian
    group from its element orders.

    For each prime p, the elements killed by p^k number p^(sum_i min(k, e_i))
    over the exponents e_i of the p-primary cyclic factors, so the step from
    k - 1 to k counts the factors with e_i >= k."""
    n = len(orders)
    factors: List[int] = []
    for p in (q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))):
        at_least: List[int] = []  # at_least[k - 1] = #{i : e_i >= k}
        killed = 1
        while True:
            now = sum(1 for o in orders if p ** (len(at_least) + 1) % o == 0)
            if now == killed:
                break
            step, count = now // killed, 0
            while step > 1:
                step, count = step // p, count + 1
            at_least.append(count)
            killed = now
        for i in range(at_least[0] if at_least else 0):
            if i == len(factors):
                factors.append(1)
            factors[i] *= p ** sum(1 for c in at_least if c > i)
    return factors


def untwisted_abelian_double_counts(
    table: Sequence[Sequence[int]],
) -> Tuple[int, int, int, Dict[int, int]]:
    """(subgroups of A^2, pairs, fiber functors, rank multiset) for the
    untwisted double of the abelian group with the given Cayley table.

    Subgroups of A^2 are found by joining every subgroup found with every
    element, each join a closure; every subgroup L carries
    prod_{i<j} gcd(d_i, d_j) pairs of rank [A^2 : L]."""
    n = len(table)
    if any(table[a][b] != table[b][a] for a in range(n) for b in range(n)):
        raise ValueError("the closed form needs an abelian group")
    e = next(x for x in range(n) if all(table[x][y] == y for y in range(n)))
    N = n * n

    def mul(x: int, y: int) -> int:
        return table[x // n][y // n] * n + table[x % n][y % n]

    unit = e * n + e

    def join(sub: frozenset, x: int) -> frozenset:
        out, power = set(sub), x
        while power not in sub:  # A^2 is abelian: <sub, x> is the union of sub x^k
            out.update(mul(s, power) for s in sub)
            power = mul(power, x)
        return frozenset(out)

    def order(x: int) -> int:
        k, power = 1, x
        while power != unit:
            power, k = mul(power, x), k + 1
        return k

    orders = [order(x) for x in range(N)]
    found = {frozenset({unit})}
    queue = deque(found)
    while queue:
        sub = queue.popleft()
        for x in range(N):
            if x not in sub:
                bigger = join(sub, x)
                if bigger not in found:
                    found.add(bigger)
                    queue.append(bigger)

    def h2_order(sub: frozenset) -> int:
        d = _invariant_factors([orders[x] for x in sub])
        return prod(gcd(a, b) for a, b in combinations(d, 2))

    ranks: Counter = Counter()
    for sub in found:
        ranks[N // len(sub)] += h2_order(sub)
    whole = frozenset(range(N))
    return len(found), sum(ranks.values()), h2_order(whole), dict(ranks)
