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
is the double of Z2xZ2 at one of its 8 cocycles.

centralizer is the literal commuting set, used by the untwisted rank
identities.

Three literal references for exact routines, each the simplest form of the
production rule it checks:

* census_by_closures: the subgroup census that joins every subgroup found
  with every cyclic subgroup, each join a breadth-first closure from the
  identity;
* small_generating_set_all_pairs: small_generating_set's rule, with the
  pair step trying every pair x < y in order;
* smith_form_full_block: smith_form_mod with the pivot search taking
  np.gcd over the whole unfinished block at every step;
* cyclic_invariants: the invariant sum_k f(x, x^k, x) of
  cohomology._cyclic_obstruction, element by element.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Sequence, Tuple
from unittest import mock

import numpy as np

from tdmc import linalg
from tdmc.cohomology import Cochain, cohomology_cstar
from tdmc.errors import ElementOutOfRange, SizeBound
from tdmc.groups import FiniteGroup, Subgroup, _conjugates, group_from_spec, normalizer
from tdmc.modcat import (
    AmbientContext,
    DoubleContext,
    PairHPsi,
    _check_base_cocycle,
    _general_stabilizer,
    double_context,
)

_ORACLE_MAX = 64
_ORACLE_TOL = 1e-9
_ORACLE_COSET_MAX = 16


def ambient_context(G: FiniteGroup, omega: Cochain) -> AmbientContext:
    """Context on G itself, with omega held at the session modulus |G|^2."""
    _check_base_cocycle(G, omega)
    session = G.order**2
    return AmbientContext(ambient=G, omega=omega.embed(session), modulus=session)


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
