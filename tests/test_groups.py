"""Group core: builtins, census, orbits, and the fixed element encodings."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import tdmc

from oracles import (
    bfs_closure,
    census_by_closures,
    centralizer,
    double_cosets_by_sweep,
    orbit_decomposition_by_sweep,
    conjugacy_classes,
    normalizer,
    perm_closure,
    small_generating_set_all_pairs,
)
from tdmc.errors import (
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
from tdmc.groups import (
    FiniteGroup,
    Subgroup,
    _conjugates,
    builtin_names,
    closure,
    max_group_order,
    direct_square_with_diagonal,
    double_cosets,
    group_from_spec,
    orbit_decomposition,
    small_generating_set,
    subgroups_up_to_conjugacy,
)


def test_builtin_orders():
    for name, order in [
        ("Z2", 2),
        ("Z3", 3),
        ("Z4", 4),
        ("Z2xZ2", 4),
        ("S3", 6),
        ("D4", 8),
        ("Q8", 8),
        ("S3xS3", 36),
    ]:
        assert group_from_spec(name).order == order


def _cayley(elements, product):
    """The table of a list of elements closed under ``product``, in list order."""
    index = {x: i for i, x in enumerate(elements)}
    return np.array([[index[product(x, y)] for y in elements] for x in elements])


def _matmul(a, b):
    return tuple(map(tuple, np.array(a) @ np.array(b)))


def _perm_matrix(one_line):
    """The matrix P with P e_i = e_p(i), so that P_p P_q = P_{p*q} for
    (p*q)(i) = p(q(i))."""
    n = len(one_line)
    return tuple(tuple(int(one_line[c] == r + 1) for c in range(n)) for r in range(n))


def test_s3_fixed_encoding():
    """The S3 element order is frozen (README): 0=123, 1=132, 2=213, 3=231,
    4=312, 5=321 in one-line notation, with (p*q)(i) = p(q(i)); the table is
    that of the permutation matrices in this order."""
    S3 = group_from_spec("S3")
    order = [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    assert np.array_equal(S3.mul, _cayley([_perm_matrix(p) for p in order], _matmul))
    # (132) then (213): first swap 1,2 then swap 2,3 - lands on 312
    assert S3.times(1, 2) == 4
    assert S3.times(2, 1) == 3
    assert sorted(S3.element_order(x) for x in range(6)) == [1, 2, 2, 2, 3, 3]
    # A3 is {identity, the two 3-cycles}
    assert {x for x in range(6) if S3.element_order(x) == 3} == {3, 4}


def test_d4_fixed_encoding():
    """D4 element j + 4k is r^j s^k, with s r = r^-1 s: r the quarter turn
    and s a reflection of the plane, as 2 x 2 integer matrices."""
    r, s = ((0, -1), (1, 0)), ((1, 0), (0, -1))
    power = [((1, 0), (0, 1))]
    for _ in range(3):
        power.append(_matmul(power[-1], r))
    assert _matmul(s, r) == _matmul(power[3], s)
    elements = [_matmul(power[j], s if k else power[0]) for k in (0, 1) for j in range(4)]
    assert np.array_equal(group_from_spec("D4").mul, _cayley(elements, _matmul))


def _hamilton(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def test_q8_fixed_encoding():
    """Q8 element 2 * axis + sign is +-1, +-i, +-j, +-k (axis 0..3, sign 0
    for +), multiplied as Hamilton quaternions."""
    elements = [
        tuple((-1) ** sign * int(a == axis) for a in range(4))
        for axis in range(4)
        for sign in (0, 1)
    ]
    assert np.array_equal(group_from_spec("Q8").mul, _cayley(elements, _hamilton))


ABELIAN_FACTORS = {"Z2": (2,), "Z3": (3,), "Z4": (4,), "Z2xZ2": (2, 2)}


@pytest.mark.parametrize("name", sorted(ABELIAN_FACTORS))
def test_abelian_fixed_encoding(name):
    """Z/n is addition mod n; Z2xZ2 encodes (a, b) as 2a + b."""
    factors = ABELIAN_FACTORS[name]
    elements = list(itertools.product(*(range(f) for f in factors)))

    def add(x, y):
        return tuple((a + b) % f for a, b, f in zip(x, y, factors))

    assert np.array_equal(group_from_spec(name).mul, _cayley(elements, add))


def test_perm_spec_fixed_encoding():
    """A perm spec numbers its elements breadth first from the identity
    (README); the table is that of their permutation matrices."""
    gens = [[2, 1, 3, 4, 5, 6], [1, 2, 4, 3, 5, 6], [1, 2, 3, 4, 6, 5], [3, 4, 5, 6, 1, 2]]
    G = group_from_spec({"type": "perm", "degree": 6, "generators": gens})
    order = perm_closure(6, gens)
    assert G.order == len(order) == 24
    assert np.array_equal(G.mul, _cayley([_perm_matrix(p) for p in order], _matmul))


def test_element_order_profiles():
    D4 = group_from_spec("D4")
    assert sorted(D4.element_order(x) for x in range(8)) == [1, 2, 2, 2, 2, 2, 4, 4]
    Q8 = group_from_spec("Q8")
    assert sorted(Q8.element_order(x) for x in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]
    # Q8 has a unique element of order 2 (namely -1)
    assert [x for x in range(8) if Q8.element_order(x) == 2] == [1]


def test_perm_spec_matches_builtin_s3():
    G = group_from_spec(
        {"type": "perm", "degree": 3, "generators": [[2, 1, 3], [2, 3, 1]]}
    )
    assert G.order == 6
    assert sorted(G.element_order(x) for x in range(6)) == [1, 2, 2, 2, 3, 3]
    # nonabelian of order 6 is S3 up to isomorphism
    assert not np.array_equal(G.mul, G.mul.T)


def test_cayley_round_trip():
    S3 = group_from_spec("S3")
    again = group_from_spec({"type": "cayley", "table": S3.mul.tolist()})
    assert np.array_equal(again.mul, S3.mul)


def test_builtin_spec_object():
    spec = {"type": "builtin", "name": "S3"}
    assert np.array_equal(group_from_spec(spec).mul, group_from_spec("S3").mul)


def test_bad_specs():
    with pytest.raises(UnknownBuiltin):
        group_from_spec("nope")
    with pytest.raises(BadGroupSpec):
        group_from_spec(42)  # type: ignore[arg-type]
    with pytest.raises(BadGroupSpec):
        group_from_spec({"type": "mystery"})
    with pytest.raises(BadGroupSpec):
        group_from_spec({"type": "perm", "degree": 3, "generators": [[1, 1, 2]]})
    with pytest.raises(BadGroupSpec):
        group_from_spec({"type": "cayley", "table": [[0, 1], [1]]})
    with pytest.raises(BadGroupSpec):
        group_from_spec({"type": "cayley", "table": [[0, 10**20], [1, 0]]})
    with pytest.raises(BadGroupSpec):
        group_from_spec({"type": "cayley", "table": [[0, -1], [1, 0]]})


def test_invalid_tables():
    # associative monoid with absorbing element, but no inverses
    with pytest.raises(NotAGroup):
        group_from_spec({"type": "cayley", "table": [[0, 1], [1, 1]]})
    # identity ok, inverses ok, but fails associativity (order-5 loop)
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NonAssociative):
        group_from_spec({"type": "cayley", "table": loop})
    # identity not at index 0
    with pytest.raises(NotAGroup):
        group_from_spec({"type": "cayley", "table": [[1, 0], [0, 1]]})


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda S3: FiniteGroup([[0, 1]]), NotAGroup, "nonempty square matrix"),
        (lambda S3: FiniteGroup([[0, 1], [1, 2]]), NotAGroup, "entries out of range"),
        (lambda S3: Subgroup(S3, [0, 1, 2]), NotASubgroup, "not closed under multiplication"),
    ],
    ids=["not-square", "out-of-range", "not-closed"],
)
def test_refusals(build, error, message):
    with pytest.raises(error, match=f"{message}$"):
        build(group_from_spec("S3"))


def test_size_bound_env(monkeypatch):
    monkeypatch.setenv("TDMC_MAX_ORDER", "10")
    with pytest.raises(SizeBound):
        group_from_spec("S3xS3")
    monkeypatch.delenv("TDMC_MAX_ORDER")
    assert group_from_spec("S3xS3").order == 36


def test_subgroup_validation():
    S3 = group_from_spec("S3")
    A3 = Subgroup(S3, [0, 3, 4])
    assert A3.order == 3
    assert 3 in A3 and 1 not in A3
    # off the ends of the parent, also for the whole group: a bare lookup in
    # from_parent would read -1 as the last element
    for H in (A3, Subgroup(S3, range(6))):
        assert -1 not in H and S3.order not in H
    with pytest.raises(NotASubgroup):
        Subgroup(S3, [0, 1, 3])  # not closed
    with pytest.raises(NotASubgroup):
        Subgroup(S3, [1, 2])  # no identity
    with pytest.raises(ElementOutOfRange):
        Subgroup(S3, [0, 17])


def test_subgroup_as_group():
    S3 = group_from_spec("S3")
    A3 = Subgroup(S3, [0, 3, 4])
    local = A3.as_group
    assert local.order == 3
    # local indices follow the sorted parent elements (0, 3, 4)
    assert A3.from_parent[4] == 2
    assert local.times(1, 1) == 2  # (231)^2 = 312
    assert A3.as_group is local
    assert A3.to_parent.tolist() == [0, 3, 4]
    assert A3.from_parent.tolist() == [0, -1, -1, 1, 2, -1]
    for arr in (A3.to_parent, A3.from_parent):
        with pytest.raises(ValueError):
            arr[0] = 1
    # no field can be rebound or deleted after validation
    for name, value in (
        ("elements", (0, 1)),
        ("to_parent", np.array([0, 1])),
        ("from_parent", np.full(6, -1)),
        ("parent", S3),
        ("as_group", local),
    ):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(A3, name, value)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(A3, name)
    assert A3.elements == (0, 3, 4) and A3.as_group is local


def test_conjugacy_classes_s3():
    S3 = group_from_spec("S3")
    classes = conjugacy_classes(S3)
    # ordered by minimal element: identity, transpositions, 3-cycles
    assert [len(c) for c in classes] == [1, 3, 2]
    assert classes[1] == [1, 2, 5]
    assert classes[2] == [3, 4]
    cz = centralizer(S3, 3)  # the literal oracle, kept for the rank identities
    assert cz.elements == (0, 3, 4)
    with pytest.raises(ElementOutOfRange):
        centralizer(S3, 6)
    # the table of conjugates, conj[g, x] = g x g^{-1}, on every builtin and
    # on its square where that fits the order bound: each row is a
    # permutation fixing the identity, and the table cannot be written
    for name in builtin_names():
        G = group_from_spec(name)
        groups = [G]
        if G.order**2 <= max_group_order():
            groups.append(direct_square_with_diagonal(G).group)
        for K in groups:
            for g in range(K.order):
                for x in range(K.order):
                    assert K.conj[g, x] == K.mul[K.mul[g, x], K.inv[g]]
            assert (K.conj[:, 0] == 0).all()
            assert (np.sort(K.conj, axis=1) == np.arange(K.order)).all()
            with pytest.raises(ValueError):
                K.conj[0, 0] = 1


def test_normalizer():
    S3 = group_from_spec("S3")
    Z2 = Subgroup(S3, [0, 1])
    assert normalizer(S3, Z2).elements == (0, 1)
    A3 = Subgroup(S3, [0, 3, 4])
    assert normalizer(S3, A3).order == 6


def test_census_small_groups():
    S3 = group_from_spec("S3")
    classes = subgroups_up_to_conjugacy(S3)
    assert [c.rep.order for c in classes] == [1, 2, 3, 6]
    assert [c.class_size for c in classes] == [1, 3, 1, 1]
    # conjugation orbit-stabilizer: |class| * |normalizer| = |G|
    for c in classes:
        assert c.class_size * c.normalizer.order == S3.order

    Z2 = group_from_spec("Z2")
    assert [c.rep.order for c in subgroups_up_to_conjugacy(Z2)] == [1, 2]

    K4 = group_from_spec("Z2xZ2")
    classes = subgroups_up_to_conjugacy(K4)
    assert [c.rep.order for c in classes] == [1, 2, 2, 2, 4]
    assert all(c.class_size == 1 for c in classes)


def test_census_s3xs3_orders():
    GG = group_from_spec("S3xS3")
    classes = subgroups_up_to_conjugacy(GG)
    assert len(classes) == 22
    orders = sorted(c.rep.order for c in classes)
    assert orders == [1, 2, 2, 2, 3, 3, 3, 4, 6, 6, 6, 6, 6, 6, 6, 9, 12, 12, 18, 18, 18, 36]
    for c in classes:
        assert c.class_size * c.normalizer.order == GG.order


def test_census_classes_are_disjoint_and_complete():
    """Every conjugate of every representative matches exactly one listed class.
    Each representative's to_parent and from_parent are inverse on it, and
    from_parent is -1 off it."""
    D4 = group_from_spec("D4")
    classes = subgroups_up_to_conjugacy(D4)
    assert [c.rep.order for c in classes] == [1, 2, 2, 2, 4, 4, 4, 8]
    keysets = [frozenset(c.rep.elements) for c in classes]
    for c in classes:
        H = c.rep
        assert H.to_parent.tolist() == list(H.elements)
        assert H.from_parent[H.to_parent].tolist() == list(range(H.order))
        off = np.setdiff1d(np.arange(D4.order), H.to_parent)
        assert (H.from_parent[off] == -1).all()
        orbit = {frozenset(c.rep.conjugate_by(g).elements) for g in range(D4.order)}
        assert len(orbit) == c.class_size
        hits = [k for k in keysets if k in orbit]
        assert hits == [frozenset(c.rep.elements)]


def test_conjugate_by_returns_the_subgroup_itself_exactly_when_g_normalizes_it():
    """On the D4 square census, rep.conjugate_by(g) is rep itself exactly
    when g is in the normalizer; otherwise it holds the sorted conjugates."""
    G = direct_square_with_diagonal(group_from_spec("D4")).group
    for c in subgroups_up_to_conjugacy(G):
        rep = c.rep
        inside = set(normalizer(G, rep).elements)
        for g in range(G.order):
            moved = rep.conjugate_by(g)
            assert (moved is rep) == (g in inside)
            if g not in inside:
                want = sorted(int(G.mul[G.mul[g, x], G.inv[g]]) for x in rep.elements)
                assert list(moved.elements) == want


# Permutation groups beyond the builtins, with their orders.
CENSUS_PERM_GROUPS = {
    "S4": (24, [[2, 1, 3, 4], [2, 3, 4, 1]]),
    "A4": (12, [[2, 3, 1, 4], [2, 1, 4, 3]]),
    "D6": (12, [[2, 3, 4, 5, 6, 1], [1, 6, 5, 4, 3, 2]]),
    "F20": (20, [[2, 3, 4, 5, 1], [1, 3, 5, 2, 4]]),
    "Z2^3": (8, [[2, 1, 3, 4, 5, 6], [1, 2, 4, 3, 5, 6], [1, 2, 3, 4, 6, 5]]),
    "Z3^3": (
        27,
        [
            [2, 3, 1, 4, 5, 6, 7, 8, 9],
            [1, 2, 3, 5, 6, 4, 7, 8, 9],
            [1, 2, 3, 4, 5, 6, 8, 9, 7],
        ],
    ),
    "D4xZ2": (16, [[2, 3, 4, 1, 5, 6], [4, 3, 2, 1, 5, 6], [1, 2, 3, 4, 6, 5]]),
}


def _census_groups():
    for name in builtin_names():
        yield name, group_from_spec(name)
    for name in builtin_names():
        base = group_from_spec(name)
        if base.order**2 <= 64:
            yield name + "^2", direct_square_with_diagonal(base).group
    for name, (order, gens) in CENSUS_PERM_GROUPS.items():
        G = group_from_spec({"type": "perm", "degree": len(gens[0]), "generators": gens})
        assert G.order == order, name
        yield name, G


def test_census_matches_closure_reference():
    """Expanding one representative per class, joined by cosets, finds the
    classes, sizes and normalizers that joining every subgroup finds."""
    names = []
    for name, G in _census_groups():
        got = [
            (c.rep.elements, c.class_size, c.normalizer.elements)
            for c in subgroups_up_to_conjugacy(G)
        ]
        assert got == census_by_closures(G), name
        names.append(name)
    assert len(names) == 8 + 7 + len(CENSUS_PERM_GROUPS)


SQUARE_BASES = ("Z2", "Z3", "Z4", "Z2xZ2", "S3", "D4", "Q8")


def _square_tables():
    """Every census representative and normalizer of the squares of
    SQUARE_BASES, each as a standalone group."""
    for name in SQUARE_BASES:
        square = direct_square_with_diagonal(group_from_spec(name)).group
        for cls in subgroups_up_to_conjugacy(square):
            yield cls.rep.as_group
            yield cls.normalizer.as_group


def test_small_generating_set_matches_all_pairs_reference():
    """Skipping ruled-out candidates returns the set the all-pairs scan
    returns, on every census-representative and normalizer table of the
    squares; all three steps of the rule (one generator, a pair, the greedy
    pick) are reached."""
    sizes = []
    for T in _square_tables():
        gens = small_generating_set(T)
        assert gens == small_generating_set_all_pairs(T), T.mul.tolist()
        sizes.append(len(gens))
    assert len(sizes) == 870
    assert {min(k, 3) for k in sizes} == {0, 1, 2, 3}


def test_subgroup_tables_built_unchecked_are_groups():
    """Subgroup.as_group skips the group-law scans; on every census
    representative of the squares the validating constructor accepts the
    same table and finds the same inverses.  (test_invalid_tables keeps a
    non-associative Cayley spec failing the public constructor.)"""
    count = 0
    for name in SQUARE_BASES:
        square = direct_square_with_diagonal(group_from_spec(name)).group
        for cls in subgroups_up_to_conjugacy(square):
            local = cls.rep.as_group
            checked = FiniteGroup(local.mul.copy())
            assert np.array_equal(local.mul, checked.mul), name
            assert np.array_equal(local.inv, checked.inv), name
            count += 1
    assert count == 435


def test_closure_matches_breadth_first_reference():
    """closure lists the subgroup generated in breadth-first discovery order
    from the identity, whatever the generator list."""
    rng = np.random.default_rng(13)
    for name in SQUARE_BASES:
        base = group_from_spec(name)
        for G in (base, direct_square_with_diagonal(base).group):
            for _ in range(40):
                gens = rng.integers(0, G.order, size=int(rng.integers(0, 4))).tolist()
                assert closure(G, gens) == bfs_closure(G, gens), (name, G.order, gens)


def test_census_cover_check(monkeypatch):
    """Orbits that overlap are caught: a conjugation that also moves every
    nontrivial subgroup onto {0, 1} puts {0, 1} in several orbits."""
    def broken(G, arr):
        return np.vstack([_conjugates(G, arr), np.minimum(arr, 1)])

    monkeypatch.setattr("tdmc.groups._conjugates", broken)
    with pytest.raises(InvariantViolated, match=r"conjugacy classes cover \d+ of \d+ subgroups"):
        subgroups_up_to_conjugacy(group_from_spec("S3"))


def _class_orbits(G, census, back=None):
    """Each class as the set of its (member, member's normalizer) pairs under
    conjugation, element sets mapped through `back` when given, with its size."""
    def mapped(xs):
        return frozenset(xs if back is None else back[np.asarray(xs)].tolist())

    out = set()
    for c in census:
        pairs = frozenset(
            (mapped(G.conj[g, c.rep.to_parent]), mapped(G.conj[g, c.normalizer.to_parent]))
            for g in range(G.order)
        )
        out.add((pairs, c.class_size))
    return out


def test_census_is_invariant_under_relabelling():
    """Relabelling the elements by a random bijection fixing 0 permutes the
    census: every class orbit, size and normalizer maps back onto the
    original's.  Normalizers with one element set are one object, the
    representative itself when it is its own normalizer."""
    S4 = group_from_spec({"type": "perm", "degree": 4, "generators": [[2, 1, 3, 4], [2, 3, 4, 1]]})
    squares = [direct_square_with_diagonal(group_from_spec(n)).group for n in ("D4", "Q8", "Z2xZ2")]
    rng = np.random.default_rng(22)
    for G in [S4] + squares:
        p = np.concatenate([[0], 1 + rng.permutation(G.order - 1)])
        relabelled = np.empty_like(G.mul)
        relabelled[np.ix_(p, p)] = p[G.mul]
        H = FiniteGroup(relabelled)
        census = subgroups_up_to_conjugacy(G)
        moved = subgroups_up_to_conjugacy(H)
        assert len(moved) == len(census), G.order
        assert _class_orbits(H, moved, back=np.argsort(p)) == _class_orbits(G, census)
        for cs in (census, moved):
            by_set = {}
            for c in cs:
                assert by_set.setdefault(c.normalizer.elements, c.normalizer) is c.normalizer
                assert (c.normalizer is c.rep) == (c.normalizer.elements == c.rep.elements)


def test_direct_square():
    S3 = group_from_spec("S3")
    sq = direct_square_with_diagonal(S3)
    assert sq.group.order == 36
    assert sq.diagonal.order == 6
    assert sq.pair(2, 5) == 17
    assert sq.p1[17] == 2 and sq.p2[17] == 5
    # S3xS3 builtin is exactly this construction
    assert np.array_equal(group_from_spec("S3xS3").mul, sq.group.mul)

    Z2 = group_from_spec("Z2")
    k = direct_square_with_diagonal(Z2)
    assert k.group.order == 4
    assert sorted(k.group.element_order(x) for x in range(4)) == [1, 2, 2, 2]


def test_orbit_decomposition_diagonal_gives_conjugacy_classes():
    S3 = group_from_spec("S3")
    sq = direct_square_with_diagonal(S3)
    dec = orbit_decomposition(S3, sq.diagonal)
    assert [sorted(o) for o in dec.orbits] == conjugacy_classes(S3)
    # stabilizer of a representative under the diagonal action is its centralizer
    for rep, stab in zip(dec.representatives, dec.stabilizers):
        assert stab.elements == centralizer(S3, rep).elements


def test_orbit_decomposition_extremes():
    S3 = group_from_spec("S3")
    sq = direct_square_with_diagonal(S3)
    trivial = Subgroup(sq.group, [0])
    dec = orbit_decomposition(S3, trivial)
    assert len(dec.orbits) == 6

    whole = Subgroup(sq.group, range(36))
    dec = orbit_decomposition(S3, whole)
    assert len(dec.orbits) == 1
    assert dec.stabilizers[0].order == 6
    for orbit, stab in zip(dec.orbits, dec.stabilizers):
        assert len(orbit) * stab.order == 36


def test_orbit_decomposition_wrong_ambient():
    S3 = group_from_spec("S3")
    A3 = Subgroup(S3, [0, 3, 4])
    with pytest.raises(WrongAmbient):
        orbit_decomposition(S3, A3)


def test_orbits_match_double_cosets():
    """H-orbits on G agree in number with the double cosets Δ(G)\\(G×G)/H."""
    S3 = group_from_spec("S3")
    sq = direct_square_with_diagonal(S3)
    for cls in subgroups_up_to_conjugacy(sq.group):
        dec = orbit_decomposition(S3, cls.rep)
        cosets = double_cosets(sq.group, sq.diagonal, cls.rep)
        assert len(dec.orbits) == len(cosets)


def test_double_cosets_equal_the_sweep_reference():
    """The labelled partition lists the same cosets in the same order as
    the sweep, on every pair of census representatives of the S3 square and
    on the D4 square's representatives of order <= 8, against every fifth."""
    for name, max_order, stride in (("S3", 36, 1), ("D4", 8, 5)):
        G = direct_square_with_diagonal(group_from_spec(name)).group
        reps = [c.rep for c in subgroups_up_to_conjugacy(G) if c.rep.order <= max_order]
        for left in reps:
            for right in reps[::stride]:
                got = double_cosets(G, left, right)
                assert got == double_cosets_by_sweep(G, left, right)
                assert all(type(x) is int for coset in got for x in coset)


def test_orbit_decomposition_equals_the_sweep_reference():
    """The labelled orbits equal the per-element sweep's on every census
    representative of the S3, Z2xZ2, D4 and Q8 squares: the same orbits,
    representatives and stabilizer element sets, and the representatives
    whose stabilizers have the same projection share one Subgroup."""
    for name in ("S3", "Z2xZ2", "D4", "Q8"):
        square = direct_square_with_diagonal(group_from_spec(name))
        for cls in subgroups_up_to_conjugacy(square.group):
            got = orbit_decomposition(square.base, cls.rep)
            want = orbit_decomposition_by_sweep(square.base, cls.rep)
            assert got.orbits == want.orbits
            assert got.representatives == want.representatives
            assert [s.elements for s in got.stabilizers] == [
                s.elements for s in want.stabilizers
            ]
            shared = {}
            for stab in got.stabilizers:
                assert shared.setdefault(stab.elements, stab) is stab


def test_blocked_associativity_check_equals_the_whole_table():
    """_associative compares (ab)c with a(bc) a block of pairs (a, b) at a
    time: on the D4 square (4 blocks) and the S3 square (1 block) it agrees
    with the one-table comparison, on the group and on tables with two
    entries of one row swapped, in the first, a middle and the last row."""
    for name in ("S3", "D4"):
        mul = direct_square_with_diagonal(group_from_spec(name)).group.mul
        n = len(mul)
        assert tdmc.groups._associative(mul)
        for x in (1, n // 2, n - 1):
            bad = mul.copy()
            bad[x, [1, 2]] = bad[x, [2, 1]]
            assert not np.array_equal(bad[bad, :], bad[:, bad])
            assert not tdmc.groups._associative(bad)
            with pytest.raises(NonAssociative):
                FiniteGroup(bad)


def test_invariant_errors_survive_optimize():
    """The checks are not asserts: python -O keeps them.  The S3 diagonal gets
    its elements forged after validation, past the read-only guard, by a set
    that is not a subgroup: (1,1) fixes the identity and (1,0) moves it, so
    the orbit-stabilizer count 2 * 2 != 3 fails."""
    code = textwrap.dedent(
        """
        import sys
        if __debug__:
            sys.exit("asserts are still on")
        from tdmc.errors import InvariantViolated
        from tdmc.groups import (
            direct_square_with_diagonal, group_from_spec, orbit_decomposition,
        )
        square = direct_square_with_diagonal(group_from_spec("S3"))
        H = square.diagonal
        object.__setattr__(H, "elements", (0, square.pair(1, 1), square.pair(1, 0)))
        try:
            orbit_decomposition(square.base, H)
        except InvariantViolated as exc:
            print(exc)
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(tdmc.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert "order 3 on a group of order 6" in proc.stdout


def test_rank_work_leaves_numpy_ma_unimported():
    """The first np.unique of a process imports numpy.ma (tens of ms);
    double cosets, orbits and conjugacy classes take distinct elements by a
    membership mask instead.  A fresh process that classifies S3 at k = 1
    and reads its fiber functors, census labels and a dual rank never
    imports numpy.ma."""
    code = textwrap.dedent(
        """
        import sys
        import tdmc
        ctx = tdmc.double_context(tdmc.group_from_spec("S3"), 1)
        report = tdmc.classify_pairs(ctx)
        tdmc.fiber_functors(ctx, report)
        tdmc.census_labels(ctx)
        pair = report.entries[-1].pairs[0].pair
        tdmc.bimodule_rank(ctx, pair, pair)
        print("numpy.ma" in sys.modules)
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(tdmc.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
