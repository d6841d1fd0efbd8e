"""Finite groups as explicit Cayley tables, plus the subgroup combinatorics.

Conventions fixed for reproducibility:

* element 0 is always the identity;
* conjugation acts on the left: FiniteGroup.conj[g, x] = g x g^{-1};
* a Subgroup's elements are numbered 0..|H|-1 in increasing order:
  to_parent[i] is the element of G numbered i, and from_parent[x] is the
  number of x, -1 when x is not in H; a Subgroup is read-only once
  validated, its arrays included;
* the direct square of G encodes the pair (a, b) as index a*|G| + b;
* permutations compose right-to-left, (p*q)(i) = p(q(i)), and a perm
  spec numbers its elements breadth first from the identity, each element
  w followed by the new products w*g, g in generator order;
* builtin element orders are frozen (see README) so cochain tables and
  reports are byte-for-byte reproducible.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
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
    UsageError,
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
    "subgroups_up_to_conjugacy",
    "orbit_decomposition",
    "double_cosets",
    "small_generating_set",
]


def max_group_order() -> int:
    """Ambient-order ceiling; override with the TDMC_MAX_ORDER environment variable."""
    text = os.environ.get("TDMC_MAX_ORDER", "100")
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"TDMC_MAX_ORDER must be an integer, got {text!r}") from None


class FiniteGroup:
    """A group on indices 0..order-1 given by its full multiplication table.

    Construction validates the group laws exhaustively (associativity over all
    triples, two-sided identity at index 0, two-sided inverses), so downstream
    code never re-checks them.  The one exception is the private _trusted
    path, which Subgroup.as_group takes: a subgroup table of a validated
    group, closed under the product and the inverse, satisfies every law
    already.
    """

    def __init__(
        self,
        mul: Sequence[Sequence[int]] | np.ndarray,
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
        if not _associative(mul):
            raise NonAssociative("multiplication table fails associativity")
        has_right = (mul == 0).any(axis=1)
        has_left = (mul == 0).any(axis=0)
        if not (bool(has_right.all()) and bool(has_left.all())):
            raise NotAGroup("some element has no inverse")
        self._set(mul, square_of)

    @classmethod
    def _trusted(cls, mul: np.ndarray) -> "FiniteGroup":
        """A group whose table is known to satisfy the group laws, unchecked."""
        group = cls.__new__(cls)
        group._set(mul, None)
        return group

    def _set(self, mul: np.ndarray, square_of: Optional["FiniteGroup"]) -> None:
        self.order = int(mul.shape[0])
        self.mul = mul
        self.inv = np.argmax(mul == 0, axis=1).astype(np.int64)
        self.square_of = square_of
        self.mul.setflags(write=False)
        self.inv.setflags(write=False)

    @cached_property
    def conj(self) -> np.ndarray:
        """Read-only table of conjugates, conj[g, x] = g x g^{-1}."""
        table = self.mul[self.mul, self.inv[:, None]]
        table.setflags(write=False)
        return table

    @cached_property
    def commute(self) -> np.ndarray:
        """Read-only table commute[h, x] = (h x == x h); row h is the
        centralizer of h."""
        table = self.mul == self.mul.T
        table.setflags(write=False)
        return table

    # -- small conveniences used all over the engine --

    def times(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def element_order(self, x: int) -> int:
        return len(closure(self, [x]))

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


# Cells (a, b, c) of the associativity check compared per block.
_ASSOCIATIVITY_CELLS = 1 << 16


def _associative(mul: np.ndarray) -> bool:
    """(ab)c == a(bc) for every triple, compared for a block of pairs (a, b)
    at a time against every c, at most _ASSOCIATIVITY_CELLS cells a block:
    the temporaries stay small where the whole |G|^3 table would not."""
    n = mul.shape[0]
    step = max(1, _ASSOCIATIVITY_CELLS // n)
    ab = mul.reshape(-1)  # ab[a * n + b] = a b
    for lo in range(0, n * n, step):
        pairs = np.arange(lo, min(lo + step, n * n))
        a, b = pairs // n, pairs % n
        # a(bc) first, so its temporary mul[b] is freed before (ab)c is built
        if not np.array_equal(mul[a[:, None], mul[b]], mul[ab[pairs]]):
            return False
    return True


def _same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    return a is b or (a.order == b.order and np.array_equal(a.mul, b.mul))


class Subgroup:
    """A validated subgroup of a FiniteGroup, kept as a sorted element tuple
    and as the index arrays to_parent and from_parent (module docstring).
    Read-only: no attribute can be set or deleted after validation, so every
    reader sees the validated set."""

    def __init__(self, parent: FiniteGroup, elements: Iterable[int]) -> None:
        els = sorted({int(x) for x in elements})
        for x in els:
            if not 0 <= x < parent.order:
                raise ElementOutOfRange(f"element {x} outside 0..{parent.order - 1}")
        if not els or els[0] != 0:
            raise NotASubgroup("subgroup must contain the identity")
        arr = np.array(els, dtype=np.int64)
        from_parent = np.full(parent.order, -1, dtype=np.int64)
        from_parent[arr] = np.arange(len(els), dtype=np.int64)
        member = from_parent >= 0
        if not bool(member[parent.inv[arr]].all()):
            raise NotASubgroup("element set not closed under inverse")
        if not bool(member[parent.mul[arr[:, None], arr]].all()):
            raise NotASubgroup("element set not closed under multiplication")
        if parent.order % len(els):
            raise InvariantViolated(
                f"subgroup order {len(els)} does not divide group order {parent.order}"
            )
        arr.setflags(write=False)
        from_parent.setflags(write=False)
        self.__dict__.update(
            parent=parent, elements=tuple(els), to_parent=arr, from_parent=from_parent
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Subgroup is read-only; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Subgroup is read-only; cannot delete {name!r}")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        x = int(x)
        return 0 <= x < self.parent.order and bool(self.from_parent[x] >= 0)

    @cached_property
    def as_group(self) -> FiniteGroup:
        """The subgroup as a standalone FiniteGroup (element i = self.elements[i]).

        Built unchecked: the parent is validated and the constructor checked
        closure, so the local table inherits associativity, the identity at
        0 and inverses."""
        P = self.to_parent
        return FiniteGroup._trusted(self.from_parent[self.parent.mul[P[:, None], P]])

    def conjugate_by(self, g: int) -> "Subgroup":
        """g H g^{-1}; H itself when g normalizes H (a Subgroup is read-only,
        so sharing it is safe), else a newly validated subgroup."""
        image = self.parent.conj[g, self.to_parent]
        if bool((self.from_parent[image] >= 0).all()):
            return self
        return Subgroup(self.parent, image.tolist())

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, elements={self.elements})"


def _join(order: int, K: List[int], right: Sequence[List[int]]) -> List[int]:
    """The subgroup generated by a subgroup K and the elements s_i given by
    their right-multiplication columns, right[i][w] = w * s_i.

    Dimino's coset step: the join is a union of right cosets K r.  Each listed
    coset K r times each s_i is the coset K (r s_i), which is either listed
    already or is appended whole.  The union is then closed under right
    multiplication by every s_i, so it is the subgroup generated, provided
    the s_i include generators of K.  The result lists K, then each new coset
    in discovery order.
    """
    k = len(K)
    inside = bytearray(order)
    for x in K:
        inside[x] = 1
    out = list(K)
    start = 0
    while start < len(out):  # out grows while it is read, one coset at a time
        coset = out[start : start + k]
        for col in right:
            if not inside[col[coset[0]]]:
                for x in coset:
                    y = col[x]
                    inside[y] = 1
                    out.append(y)
        start += k
    return out


def closure(G: FiniteGroup, generators: Sequence[int]) -> List[int]:
    """Subgroup generated by the given elements: _join from the trivial
    subgroup, which lists it in breadth-first discovery order."""
    return _join(G.order, [0], [G.mul[:, int(g)].tolist() for g in generators])


def small_generating_set(G: FiniteGroup) -> List[int]:
    """A generating set by a rule frozen because psi0, the slice systems and
    the printed psi coordinates depend on it: (1) [x] for the first x with
    <x> = G; (2) else [x, y] for the lexicographically first x < y with
    <x, y> = G; (3) else, ascending, each x not yet generated by those picked.
    The scan skips z in <z'> for a z' < z (<z, w> lies in <z', w>, met first)
    and y in a proper subgroup generated already that contains x."""
    n = G.order
    leaders: List[int] = []  # the x outside <x'> for every x' < x
    generated: set = set()  # the proper subgroups generated so far
    covered: set = set()  # the union of the cyclic ones
    for x in range(1, n):
        if x not in covered:
            cyclic = closure(G, [x])
            if len(cyclic) == n:
                return [x]
            leaders.append(x)
            generated.add(frozenset(cyclic))
            covered.update(cyclic)
    for i, x in enumerate(leaders):
        ruled_out = set().union(*(S for S in generated if x in S))
        for y in leaders[i + 1 :]:
            if y not in ruled_out:
                joined = closure(G, [x, y])
                if len(joined) == n:
                    return [x, y]
                ruled_out.update(joined)
                generated.add(frozenset(joined))
    gens: List[int] = []
    have = {0}
    for x in range(1, n):
        if x not in have:
            gens.append(x)
            have = set(closure(G, gens))
    return gens


# ---------------------------------------------------------------------------
# builtin groups
# ---------------------------------------------------------------------------


def _cyclic_table(k: int) -> np.ndarray:
    idx = np.arange(k, dtype=np.int64)
    return (idx[:, None] + idx[None, :]) % k


def _klein_table() -> np.ndarray:
    # (a, b) with a, b in Z/2, encoded 2a + b; xor is exactly componentwise addition
    idx = np.arange(4, dtype=np.int64)
    return idx[:, None] ^ idx[None, :]


def _compose(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
    """(p*q)(i) = p(q(i)) on one-based images."""
    return tuple(p[q[i] - 1] for i in range(len(q)))


def _perm_table(perms: List[Tuple[int, ...]]) -> np.ndarray:
    """The table of a list of permutations closed under _compose, in list order."""
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[_compose(p, q)] for q in perms] for p in perms], dtype=np.int64)


def _s3_table() -> np.ndarray:
    # all of Sym(3) in lexicographic one-line order; identity (1,2,3) lands at 0
    return _perm_table(list(permutations((1, 2, 3))))


def _d4_table() -> np.ndarray:
    # r^i s^j with i mod 4, j mod 2, encoded i + 4j; s r = r^{-1} s
    def mul(x: int, y: int) -> int:
        i, j = x % 4, x // 4
        k, l = y % 4, y // 4
        sign = -1 if j else 1
        return (i + sign * k) % 4 + 4 * ((j + l) % 2)

    return np.array([[mul(x, y) for y in range(8)] for x in range(8)], dtype=np.int64)


def _q8_table() -> np.ndarray:
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

    return np.array([[mul(x, y) for y in range(8)] for x in range(8)], dtype=np.int64)


_BUILTINS = {
    "Z2": lambda: FiniteGroup(_cyclic_table(2)),
    "Z3": lambda: FiniteGroup(_cyclic_table(3)),
    "Z4": lambda: FiniteGroup(_cyclic_table(4)),
    "Z2xZ2": lambda: FiniteGroup(_klein_table()),
    "S3": lambda: FiniteGroup(_s3_table()),
    "D4": lambda: FiniteGroup(_d4_table()),
    "Q8": lambda: FiniteGroup(_q8_table()),
    "S3xS3": lambda: direct_square_with_diagonal(FiniteGroup(_s3_table())).group,
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
    for w in order_list:  # order_list doubles as the breadth-first queue
        for p in perms:
            q = _compose(w, p)
            if q not in seen:
                if len(seen) >= bound:
                    raise SizeBound(
                        f"permutation closure exceeds the configured bound {bound}"
                    )
                seen.add(q)
                order_list.append(q)
    return FiniteGroup(_perm_table(order_list))


def _group_from_cayley_spec(spec: dict) -> FiniteGroup:
    table = spec.get("table")
    if not isinstance(table, list) or not table:
        raise BadGroupSpec("cayley spec needs a nonempty 'table'")
    for row in table:
        if not isinstance(row, list) or len(row) != len(table):
            raise BadGroupSpec("cayley table must be square")
        for v in row:
            if not isinstance(v, int) or not 0 <= v < len(table):
                raise BadGroupSpec(f"cayley entry {v!r} is not in 0..{len(table) - 1}")
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
    GG = FiniteGroup(mul2, square_of=G)
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
# conjugacy, normalizers
# ---------------------------------------------------------------------------


def _distinct(order: int, elements: np.ndarray) -> np.ndarray:
    """The distinct entries of an array of group elements, ascending: a
    membership mask, so no sort (np.unique's first call imports numpy.ma)."""
    member = np.zeros(order, dtype=bool)
    member[elements] = True
    return np.flatnonzero(member)


def _conjugates(G: FiniteGroup, arr: np.ndarray) -> np.ndarray:
    """(|G|, len(arr)) array whose row g is g * arr * g^{-1}, elementwise."""
    return G.conj[:, arr]


def _sorted_conjugates(G: FiniteGroup, elements: Sequence[int]) -> List[List[int]]:
    """Row g is g K g^{-1} as a sorted list, for g < |G|."""
    return np.sort(_conjugates(G, np.asarray(elements, dtype=np.int64)), axis=1).tolist()


def _least_conjugate(G: FiniteGroup, rows: List[List[int]]) -> Tuple[Tuple[int, ...], int]:
    """The least sorted conjugate, which represents K's class, and the least
    g carrying K onto it; reads only the first |G| rows."""
    rows = rows[: G.order]
    least = min(rows)
    return tuple(least), rows.index(least)


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

    Each class is represented by its least conjugate as a sorted element
    tuple.  Enumeration: start from the trivial subgroup.  When a subgroup K
    first appears, one table of its sorted conjugates gives its whole
    conjugation orbit, which is recorded; its normalizer N(K); its least
    conjugate g K g^-1; and that conjugate's normalizer g N(K) g^-1.  K is
    queued as its class's one representative, and joined (by cosets, see
    _join) with one element per N(K)-orbit of the right cosets K x other
    than K: the least element of the union of the cosets K (n x n^-1), n in
    N(K), which labels the orbit.  Normalizers with equal element sets are
    one Subgroup, the representative itself when it is its own normalizer.

    Completeness: every nontrivial subgroup L is <L', c> for a maximal
    subgroup L' < L and any c in L outside L'.  Conjugating by some g puts
    L' on its class's queued representative K = g L' g^-1, and g L g^-1 =
    <K, y> with y = g c g^-1 outside K.  <K, y> = <K, k y> for k in K, so it
    depends only on the coset K y; and for n in N(K), n <K, y> n^-1 =
    <K, n y n^-1>, whose coset n (K y) n^-1 lies in the orbit of K y.  The
    element x joined for that orbit has K x = K (n y n^-1) for some such n,
    so <K, x> is conjugate to L.  By induction on the order every class is
    found, and with it, through the recorded orbit, every subgroup.
    """
    bound = max_group_order()
    if G.order > bound:
        raise SizeBound(f"group order {G.order} exceeds the configured bound {bound}")
    n = G.order
    right = G.mul.T.tolist()  # right[s][w] = w * s

    found: set = set()  # every subgroup found, as a frozenset
    picks: List[Tuple[Tuple[int, ...], int, Tuple[int, ...]]] = []  # (rep, size, normalizer)
    queue: List[Tuple[List[int], Tuple[int, ...], List[int]]] = []  # (elements, generators, N)

    def record(elements: List[int], gens: Tuple[int, ...]) -> None:
        if frozenset(elements) in found:
            return
        rows = _sorted_conjugates(G, elements)
        orbit = set(map(tuple, rows))
        found.update(map(frozenset, orbit))
        normalizing = [g for g in range(n) if rows[g] == rows[0]]  # N(K); row 0 is K
        rep, g = _least_conjugate(G, rows)
        picks.append((rep, len(orbit), tuple(np.sort(G.conj[g, normalizing]).tolist())))
        queue.append((elements, gens, normalizing))

    record([0], ())
    for elements, gens, normalizing in queue:  # the queue grows while it is read
        coset_min = G.mul[elements].min(axis=0)  # coset_min[y] = min K y
        labels = coset_min[G.conj[normalizing]].min(axis=0)  # 0 exactly on K
        cols = [right[s] for s in gens]
        for x in sorted(set(labels.tolist()) - {0}):
            record(_join(n, elements, cols + [right[x]]), gens + (x,))

    total = sum(size for _, size, _ in picks)
    if total != len(found):
        raise InvariantViolated(
            f"group of order {G.order}: conjugacy classes cover {total} of "
            f"{len(found)} subgroups"
        )
    shared: Dict[Tuple[int, ...], Subgroup] = {}

    def subgroup(elements: Tuple[int, ...]) -> Subgroup:
        if elements not in shared:
            shared[elements] = Subgroup(G, elements)
        return shared[elements]

    classes = [
        SubgroupClass(rep=subgroup(rep), class_size=size, normalizer=subgroup(normal))
        for rep, size, normal in picks
    ]
    classes.sort(key=lambda c: (c.rep.order, c.rep.elements))
    return classes


# ---------------------------------------------------------------------------
# orbits of H <= G×G on G, double cosets, exact factorizations
# ---------------------------------------------------------------------------


@dataclass
class OrbitDecomposition:
    """Orbits of H ≤ G×G acting on G by (h1,h2)·g = h1 g h2^{-1}.

    stabilizers[i] is the (faithful) first projection of the stabilizer of
    representative i as a Subgroup of G, one Subgroup per distinct
    projection.
    """

    orbits: List[List[int]]
    representatives: List[int]
    stabilizers: List[Subgroup]


def _parts(label: np.ndarray) -> List[np.ndarray]:
    """The indices of label grouped by their value, groups in increasing
    label order, each ascending: a stable sort split where the label
    changes."""
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def orbit_decomposition(G: FiniteGroup, H: Subgroup) -> OrbitDecomposition:
    """The orbits of H on G, ordered by least element, each ascending, with
    that least element as representative.  Labelled the way double_cosets
    labels its cosets: each g by the least point of its orbit, min over
    (h1, h2) in H of h1 g h2^{-1}, read off _parts.  Each representative's
    stabilizer is checked to project faithfully to G and to satisfy the
    orbit-stabilizer count."""
    parent = H.parent
    if parent.square_of is None or not _same_group(parent.square_of, G):
        raise WrongAmbient("acting subgroup must live in the direct square of G")
    n = G.order
    pairs = np.array(H.elements, dtype=np.int64)
    h1, h2 = pairs // n, pairs % n
    # act[j, g] = h1_j * g * h2_j^{-1}
    act = G.mul[G.mul[h1], G.inv[h2][:, None]]
    orbits = [part.tolist() for part in _parts(act.min(axis=0))]
    stabilizers: List[Subgroup] = []
    by_projection: Dict[Tuple[int, ...], Subgroup] = {}
    for orbit in orbits:
        g = orbit[0]
        fixed = np.nonzero(act[:, g] == g)[0]
        proj = tuple(sorted({int(x) for x in h1[fixed]}))
        # h2 is determined by h1 on a stabilizer; orbit-stabilizer
        if len(proj) != len(fixed) or len(orbit) * len(fixed) != len(pairs):
            raise InvariantViolated(
                f"acting subgroup of order {len(pairs)} on a group of order {n}: "
                f"orbit of {g} has {len(orbit)} points, stabilizer {len(fixed)} "
                f"pairs with {len(proj)} first projections"
            )
        if proj not in by_projection:
            by_projection[proj] = Subgroup(G, proj)
        stabilizers.append(by_projection[proj])
    return OrbitDecomposition(
        orbits=orbits,
        representatives=[orbit[0] for orbit in orbits],
        stabilizers=stabilizers,
    )


def double_cosets(G: FiniteGroup, left: Subgroup, right: Subgroup) -> List[List[int]]:
    """Partition of G into double cosets left\\G/right, ordered by minimal
    element, each ascending.  Each g is labelled with the least element of
    its double coset, min over l in left of min(l g right), and _parts
    lists the cosets in turn."""
    if not _same_group(left.parent, G) or not _same_group(right.parent, G):
        raise WrongAmbient("double cosets need subgroups of the same group")
    least_right = G.mul[:, right.to_parent].min(axis=1)  # min(x right), per x
    label = least_right[G.mul[left.to_parent]].min(axis=0)
    return [part.tolist() for part in _parts(label)]
