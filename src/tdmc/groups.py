"""Finite groups as explicit Cayley tables, plus the subgroup combinatorics.

Conventions fixed for reproducibility:

* element 0 is always the identity;
* the direct square of G encodes the pair (a, b) as index a*|G| + b;
* permutations compose right-to-left, (p*q)(i) = p(q(i));
* builtin element orders are frozen (see README) so cochain tables and
  reports are byte-for-byte reproducible.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BadGroupSpec,
    ElementOutOfRange,
    InvariantViolated,
    NonAssociative,
    NotAGroup,
    NotASubgroup,
    SizeBound,
    UnknownBuiltin,
    WrongAmbient,
)

__all__ = [
    "FiniteGroup",
    "Subgroup",
    "SubgroupClass",
    "DirectSquare",
    "OrbitDecomposition",
    "max_group_order",
    "group_from_spec",
    "builtin_names",
    "direct_square_with_diagonal",
    "conjugacy_classes",
    "centralizer",
    "normalizer",
    "subgroups_up_to_conjugacy",
    "orbit_decomposition",
    "double_cosets",
]


def max_group_order() -> int:
    """Ambient-order ceiling; override with the TDMC_MAX_ORDER environment variable."""
    return int(os.environ.get("TDMC_MAX_ORDER", "100"))


class FiniteGroup:
    """A group on indices 0..order-1 given by its full multiplication table.

    Construction validates the group laws exhaustively (associativity over all
    triples, two-sided identity at index 0, two-sided inverses), so downstream
    code never re-checks them.
    """

    def __init__(
        self,
        mul: Sequence[Sequence[int]] | np.ndarray,
        element_names: Optional[List[str]] = None,
        square_of: Optional["FiniteGroup"] = None,
    ) -> None:
        mul = np.asarray(mul, dtype=np.int64)
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1] or mul.shape[0] == 0:
            raise NotAGroup("multiplication table must be a nonempty square matrix")
        n = int(mul.shape[0])
        bound = max_group_order()
        if n > bound:
            raise SizeBound(f"group order {n} exceeds the configured bound {bound}")
        if int(mul.min()) < 0 or int(mul.max()) >= n:
            raise NotAGroup("multiplication table entries out of range")
        idx = np.arange(n, dtype=np.int64)
        if not (np.array_equal(mul[0], idx) and np.array_equal(mul[:, 0], idx)):
            raise NotAGroup("element 0 is not a two-sided identity")
        if not np.array_equal(mul[mul, :], mul[:, mul]):
            raise NonAssociative("multiplication table fails associativity")
        has_right = (mul == 0).any(axis=1)
        has_left = (mul == 0).any(axis=0)
        if not (bool(has_right.all()) and bool(has_left.all())):
            raise NotAGroup("some element has no inverse")
        inv = np.argmax(mul == 0, axis=1).astype(np.int64)
        self.order = n
        self.mul = mul
        self.inv = inv
        self.element_names = list(element_names) if element_names else None
        self.square_of = square_of
        self.mul.setflags(write=False)
        self.inv.setflags(write=False)

    # -- small conveniences used all over the engine --

    def times(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def conj(self, g: int, x: int) -> int:
        """g x g^{-1}."""
        return int(self.mul[self.mul[g, x], self.inv[g]])

    def element_order(self, x: int) -> int:
        k, y = 1, x
        while y != 0:
            y = int(self.mul[y, x])
            k += 1
        return k

    def name_of(self, x: int) -> str:
        if self.element_names is not None:
            return self.element_names[x]
        return str(x)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def _same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    return a is b or (a.order == b.order and np.array_equal(a.mul, b.mul))


class Subgroup:
    """A validated subgroup of a FiniteGroup, kept as a sorted element tuple."""

    def __init__(self, parent: FiniteGroup, elements: Iterable[int]) -> None:
        els = sorted({int(x) for x in elements})
        for x in els:
            if not 0 <= x < parent.order:
                raise ElementOutOfRange(f"element {x} outside 0..{parent.order - 1}")
        if not els or els[0] != 0:
            raise NotASubgroup("subgroup must contain the identity")
        arr = np.array(els, dtype=np.int64)
        member = np.zeros(parent.order, dtype=bool)
        member[arr] = True
        if not bool(member[parent.inv[arr]].all()):
            raise NotASubgroup("element set not closed under inverse")
        if not bool(member[parent.mul[np.ix_(arr, arr)]].all()):
            raise NotASubgroup("element set not closed under multiplication")
        if parent.order % len(els):
            raise InvariantViolated(
                f"subgroup order {len(els)} does not divide group order {parent.order}"
            )
        self.parent = parent
        self.elements = tuple(els)
        self._member = frozenset(els)
        self._local: Optional[Tuple[FiniteGroup, np.ndarray, Dict[int, int]]] = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return int(x) in self._member

    def _ensure_local(self) -> Tuple[FiniteGroup, np.ndarray, Dict[int, int]]:
        if self._local is None:
            to_parent = np.array(self.elements, dtype=np.int64)
            rank = np.full(self.parent.order, -1, dtype=np.int64)
            rank[to_parent] = np.arange(len(self.elements), dtype=np.int64)
            table = rank[self.parent.mul[np.ix_(to_parent, to_parent)]]
            names = [self.parent.name_of(g) for g in self.elements]
            local = FiniteGroup(table, element_names=names)
            from_parent = {int(g): i for i, g in enumerate(self.elements)}
            self._local = (local, to_parent, from_parent)
        return self._local

    @property
    def as_group(self) -> FiniteGroup:
        """The subgroup as a standalone FiniteGroup (element i = self.elements[i])."""
        return self._ensure_local()[0]

    @property
    def to_parent(self) -> np.ndarray:
        return self._ensure_local()[1]

    @property
    def from_parent(self) -> Dict[int, int]:
        return self._ensure_local()[2]

    def conjugate_by(self, g: int) -> "Subgroup":
        G = self.parent
        arr = np.array(self.elements, dtype=np.int64)
        moved = G.mul[G.mul[g, arr], G.inv[g]]
        return Subgroup(G, moved.tolist())

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, elements={self.elements})"


def closure(G: FiniteGroup, generators: Sequence[int]) -> List[int]:
    """Subgroup generated by the given elements, in breadth-first discovery order."""
    right = [G.mul[:, int(g)].tolist() for g in generators]  # right[i][w] = w * g_i
    seen = [False] * G.order
    seen[0] = True
    out = [0]
    for w in out:  # out doubles as the breadth-first queue
        for col in right:
            p = col[w]
            if not seen[p]:
                seen[p] = True
                out.append(p)
    return out


# ---------------------------------------------------------------------------
# builtin groups
# ---------------------------------------------------------------------------


def _cyclic_table(k: int) -> Tuple[np.ndarray, List[str]]:
    idx = np.arange(k, dtype=np.int64)
    return (idx[:, None] + idx[None, :]) % k, [str(i) for i in range(k)]


def _klein_table() -> Tuple[np.ndarray, List[str]]:
    # (a, b) with a, b in Z/2, encoded 2a + b; xor is exactly componentwise addition
    idx = np.arange(4, dtype=np.int64)
    table = idx[:, None] ^ idx[None, :]
    names = ["(0,0)", "(0,1)", "(1,0)", "(1,1)"]
    return table.astype(np.int64), names


def _compose(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
    """(p*q)(i) = p(q(i)) on one-based images."""
    return tuple(p[q[i] - 1] for i in range(len(q)))


def _perm_group(perms: List[Tuple[int, ...]], names: List[str]) -> FiniteGroup:
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = np.zeros((n, n), dtype=np.int64)
    for a, pa in enumerate(perms):
        for b, pb in enumerate(perms):
            table[a, b] = index[_compose(pa, pb)]
    return FiniteGroup(table, element_names=names)


def _s3() -> FiniteGroup:
    # all of Sym(3) in lexicographic one-line order; identity (1,2,3) lands at 0
    perms = [
        (1, 2, 3),
        (1, 3, 2),
        (2, 1, 3),
        (2, 3, 1),
        (3, 1, 2),
        (3, 2, 1),
    ]
    names = ["".join(map(str, p)) for p in perms]
    return _perm_group(perms, names)


def _d4() -> FiniteGroup:
    # r^i s^j with i mod 4, j mod 2, encoded i + 4j; s r = r^{-1} s
    def mul(x: int, y: int) -> int:
        i, j = x % 4, x // 4
        k, l = y % 4, y // 4
        sign = -1 if j else 1
        return (i + sign * k) % 4 + 4 * ((j + l) % 2)

    table = np.array([[mul(x, y) for y in range(8)] for x in range(8)], dtype=np.int64)
    names = [f"r{i}" if j == 0 else f"r{i}s" for j in range(2) for i in range(4)]
    return FiniteGroup(table, element_names=names)


def _q8() -> FiniteGroup:
    # units {±1, ±i, ±j, ±k}; index 2*axis + (0 if positive else 1)
    def mul(x: int, y: int) -> int:
        ax, sx = x // 2, 1 - 2 * (x % 2)
        ay, sy = y // 2, 1 - 2 * (y % 2)
        if ax == 0:
            axis, sign = ay, sx * sy
        elif ay == 0:
            axis, sign = ax, sx * sy
        elif ax == ay:
            axis, sign = 0, -sx * sy
        else:
            axis = 6 - ax - ay
            cyclic = (ax, ay) in ((1, 2), (2, 3), (3, 1))
            sign = sx * sy * (1 if cyclic else -1)
        return 2 * axis + (0 if sign == 1 else 1)

    table = np.array([[mul(x, y) for y in range(8)] for x in range(8)], dtype=np.int64)
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return FiniteGroup(table, element_names=names)


_BUILTINS = {
    "Z2": lambda: FiniteGroup(*_cyclic_table(2)),
    "Z3": lambda: FiniteGroup(*_cyclic_table(3)),
    "Z4": lambda: FiniteGroup(*_cyclic_table(4)),
    "Z2xZ2": lambda: FiniteGroup(*_klein_table()),
    "S3": _s3,
    "D4": _d4,
    "Q8": _q8,
    "S3xS3": lambda: direct_square_with_diagonal(_s3()).group,
}


def builtin_names() -> List[str]:
    return sorted(_BUILTINS)


def _group_from_perm_spec(spec: dict) -> FiniteGroup:
    degree = spec.get("degree")
    gens = spec.get("generators")
    if not isinstance(degree, int) or degree < 1 or not isinstance(gens, list):
        raise BadGroupSpec("perm spec needs integer 'degree' and list 'generators'")
    perms: List[Tuple[int, ...]] = []
    for g in gens:
        if (
            not isinstance(g, list)
            or len(g) != degree
            or sorted(g) != list(range(1, degree + 1))
        ):
            raise BadGroupSpec(f"not a permutation of 1..{degree}: {g!r}")
        perms.append(tuple(int(i) for i in g))
    identity = tuple(range(1, degree + 1))
    bound = max_group_order()
    seen = {identity}
    order_list = [identity]
    frontier = deque([identity])
    while frontier:
        w = frontier.popleft()
        for p in perms:
            q = _compose(w, p)
            if q not in seen:
                if len(seen) >= bound:
                    raise SizeBound(
                        f"permutation closure exceeds the configured bound {bound}"
                    )
                seen.add(q)
                order_list.append(q)
                frontier.append(q)
    sep = "" if degree <= 9 else ","
    names = [sep.join(map(str, p)) for p in order_list]
    return _perm_group(order_list, names)


def _group_from_cayley_spec(spec: dict) -> FiniteGroup:
    table = spec.get("table")
    if not isinstance(table, list) or not table:
        raise BadGroupSpec("cayley spec needs a nonempty 'table'")
    for row in table:
        if not isinstance(row, list) or len(row) != len(table):
            raise BadGroupSpec("cayley table must be square")
        for v in row:
            if not isinstance(v, int):
                raise BadGroupSpec("cayley table entries must be integers")
    return FiniteGroup(np.array(table, dtype=np.int64))


def group_from_spec(spec: str | dict) -> FiniteGroup:
    """Build a validated group from a builtin name or a JSON-style description.

    Accepted forms: a bare builtin name, {"type":"builtin","name":...},
    {"type":"perm","degree":n,"generators":[[one-based images],...]}, or
    {"type":"cayley","table":[[...]]}.
    """
    if isinstance(spec, str):
        if spec not in _BUILTINS:
            raise UnknownBuiltin(
                f"unknown builtin {spec!r}; available: {', '.join(builtin_names())}"
            )
        return _BUILTINS[spec]()
    if not isinstance(spec, dict):
        raise BadGroupSpec(f"group spec must be a name or an object, got {type(spec).__name__}")
    kind = spec.get("type")
    if kind == "builtin":
        name = spec.get("name")
        if not isinstance(name, str):
            raise BadGroupSpec("builtin spec needs a string 'name'")
        return group_from_spec(name)
    if kind == "perm":
        return _group_from_perm_spec(spec)
    if kind == "cayley":
        return _group_from_cayley_spec(spec)
    raise BadGroupSpec(f"unknown group spec type {kind!r}")


# ---------------------------------------------------------------------------
# direct squares
# ---------------------------------------------------------------------------


@dataclass
class DirectSquare:
    """G×G with its diagonal subgroup and the two projection maps (as index arrays)."""

    base: FiniteGroup
    group: FiniteGroup
    diagonal: Subgroup
    p1: np.ndarray
    p2: np.ndarray

    def pair(self, a: int, b: int) -> int:
        return a * self.base.order + b


def direct_square_with_diagonal(G: FiniteGroup) -> DirectSquare:
    n = G.order
    idx = np.arange(n * n, dtype=np.int64)
    a, b = idx // n, idx % n
    mul2 = G.mul[np.ix_(a, a)] * n + G.mul[np.ix_(b, b)]
    if G.element_names is not None:
        names = [f"({G.name_of(x)},{G.name_of(y)})" for x, y in zip(a, b)]
    else:
        names = [f"({x},{y})" for x, y in zip(a, b)]
    GG = FiniteGroup(mul2, element_names=names, square_of=G)
    # projections are homomorphisms, checked on every pair of elements
    if not (
        np.array_equal(a[mul2], G.mul[np.ix_(a, a)])
        and np.array_equal(b[mul2], G.mul[np.ix_(b, b)])
    ):
        raise InvariantViolated(
            f"a projection of the square (order {n * n}) of a group of order {n} "
            "is not a homomorphism"
        )
    diag = Subgroup(GG, [x * n + x for x in range(n)])
    return DirectSquare(base=G, group=GG, diagonal=diag, p1=a, p2=b)


# ---------------------------------------------------------------------------
# conjugacy, centralizers, normalizers
# ---------------------------------------------------------------------------


def conjugacy_classes(G: FiniteGroup) -> List[List[int]]:
    """Conjugacy classes as sorted lists, ordered by their minimal element."""
    all_g = np.arange(G.order, dtype=np.int64)
    seen = np.zeros(G.order, dtype=bool)
    classes = []
    for x in range(G.order):
        if seen[x]:
            continue
        cls = np.unique(G.mul[G.mul[all_g, x], G.inv[all_g]])
        seen[cls] = True
        classes.append([int(c) for c in cls])
    return classes


def centralizer(G: FiniteGroup, x: int) -> Subgroup:
    if not 0 <= x < G.order:
        raise ElementOutOfRange(f"element {x} outside 0..{G.order - 1}")
    mask = G.mul[:, x] == G.mul[x, :]
    return Subgroup(G, np.nonzero(mask)[0].tolist())


def _conjugates(G: FiniteGroup, arr: np.ndarray) -> np.ndarray:
    """(|G|, len(arr)) array whose row g is g * arr * g^{-1}, elementwise."""
    return G.mul[G.mul[:, arr], G.inv[:, None]]


def normalizer(G: FiniteGroup, H: Subgroup) -> Subgroup:
    if not _same_group(H.parent, G):
        raise WrongAmbient("subgroup does not live in the given group")
    arr = np.array(H.elements, dtype=np.int64)
    # row g: g H g^{-1} sorted; conjugation is injective, so it is H iff equal
    moved = np.sort(_conjugates(G, arr), axis=1)
    return Subgroup(G, np.flatnonzero((moved == arr).all(axis=1)).tolist())


# ---------------------------------------------------------------------------
# subgroup census
# ---------------------------------------------------------------------------


@dataclass
class SubgroupClass:
    """One conjugacy class of subgroups: canonical representative, size, normalizer."""

    rep: Subgroup
    class_size: int
    normalizer: Subgroup


def subgroups_up_to_conjugacy(G: FiniteGroup) -> List[SubgroupClass]:
    """All subgroups of G up to conjugacy, sorted by (order, element tuple).

    Enumeration: seed with cyclic subgroups, then close under joins with
    cyclic subgroups until nothing new appears.  Complete for any finite
    group; entirely adequate at the configured order bound.
    """
    bound = max_group_order()
    if G.order > bound:
        raise SizeBound(f"group order {G.order} exceeds the configured bound {bound}")
    cyclics: List[Tuple[frozenset, int]] = []
    seen_cyclic = set()
    for x in range(G.order):
        key = frozenset(closure(G, [x]))
        if key not in seen_cyclic:
            seen_cyclic.add(key)
            cyclics.append((key, x))

    subs: Dict[frozenset, Tuple[int, ...]] = {frozenset({0}): ()}
    for key, gen in cyclics:
        subs.setdefault(key, (gen,))
    queue = deque(sorted(subs, key=lambda s: (len(s), sorted(s))))
    while queue:
        key = queue.popleft()
        gens = subs[key]
        for ckey, cgen in cyclics:
            if ckey <= key:
                continue
            joined = frozenset(closure(G, list(gens) + [cgen]))
            if joined not in subs:
                subs[joined] = gens + (cgen,)
                queue.append(joined)

    remaining = set(subs)
    classes: List[SubgroupClass] = []
    total = 0
    for key in sorted(subs, key=lambda s: (len(s), sorted(s))):
        if key not in remaining:
            continue
        arr = np.array(sorted(key), dtype=np.int64)
        orbit = {frozenset(row) for row in _conjugates(G, arr).tolist()}
        remaining -= orbit
        rep_key = min(orbit, key=lambda s: sorted(s))
        rep = Subgroup(G, sorted(rep_key))
        classes.append(
            SubgroupClass(rep=rep, class_size=len(orbit), normalizer=normalizer(G, rep))
        )
        total += len(orbit)
    if total != len(subs):
        raise InvariantViolated(
            f"group of order {G.order}: conjugacy classes cover {total} of "
            f"{len(subs)} subgroups"
        )
    classes.sort(key=lambda c: (c.rep.order, c.rep.elements))
    return classes


# ---------------------------------------------------------------------------
# orbits of H <= G×G on G, double cosets, exact factorizations
# ---------------------------------------------------------------------------


@dataclass
class OrbitDecomposition:
    """Orbits of H ≤ G×G acting on G by (h1,h2)·g = h1 g h2^{-1}.

    stab_pairs[i] lists the full stabilizer of representative i as elements of
    G×G; stabilizers[i] is its (faithful) first projection as a Subgroup of G.
    """

    acting: Subgroup
    orbits: List[List[int]]
    representatives: List[int]
    stab_pairs: List[List[int]]
    stabilizers: List[Subgroup]


def orbit_decomposition(G: FiniteGroup, H: Subgroup) -> OrbitDecomposition:
    parent = H.parent
    if parent.square_of is None or not _same_group(parent.square_of, G):
        raise WrongAmbient("acting subgroup must live in the direct square of G")
    n = G.order
    pairs = np.array(H.elements, dtype=np.int64)
    h1, h2 = pairs // n, pairs % n
    # act[j, g] = h1_j * g * h2_j^{-1}
    act = G.mul[G.mul[np.ix_(h1, np.arange(n))], G.inv[h2][:, None]]
    orbits: List[List[int]] = []
    representatives: List[int] = []
    stab_pairs: List[List[int]] = []
    stabilizers: List[Subgroup] = []
    seen = np.zeros(n, dtype=bool)
    for g in range(n):
        if seen[g]:
            continue
        orbit = np.unique(act[:, g])
        seen[orbit] = True
        fixed = np.nonzero(act[:, g] == g)[0]
        stab = [int(p) for p in pairs[fixed]]
        proj = sorted({int(x) for x in h1[fixed]})
        # h2 is determined by h1 on a stabilizer; orbit-stabilizer
        if len(proj) != len(stab) or len(orbit) * len(stab) != len(pairs):
            raise InvariantViolated(
                f"acting subgroup of order {len(pairs)} on a group of order {n}: "
                f"orbit of {g} has {len(orbit)} points, stabilizer {len(stab)} "
                f"pairs with {len(proj)} first projections"
            )
        orbits.append([int(x) for x in orbit])
        representatives.append(g)
        stab_pairs.append(stab)
        stabilizers.append(Subgroup(G, proj))
    covered = sum(len(o) for o in orbits)
    if covered != n:
        raise InvariantViolated(
            f"acting subgroup of order {len(pairs)}: orbits cover {covered} of "
            f"the {n} elements of the group"
        )
    return OrbitDecomposition(
        acting=H,
        orbits=orbits,
        representatives=representatives,
        stab_pairs=stab_pairs,
        stabilizers=stabilizers,
    )


def double_cosets(G: FiniteGroup, left: Subgroup, right: Subgroup) -> List[List[int]]:
    """Partition of G into double cosets left\\G/right, ordered by minimal element."""
    if not _same_group(left.parent, G) or not _same_group(right.parent, G):
        raise WrongAmbient("double cosets need subgroups of the same group")
    L = np.array(left.elements, dtype=np.int64)
    Rinv = G.inv[np.array(right.elements, dtype=np.int64)]
    seen = np.zeros(G.order, dtype=bool)
    out: List[List[int]] = []
    for g in range(G.order):
        if seen[g]:
            continue
        coset = np.unique(G.mul[np.ix_(G.mul[L, g], Rinv)])
        seen[coset] = True
        out.append([int(x) for x in coset])
    return out

