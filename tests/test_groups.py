"""Group core: builtins, census, orbits, and the fixed element encodings."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import tdmc

from tdmc.errors import (
    BadGroupSpec,
    ElementOutOfRange,
    NonAssociative,
    NotAGroup,
    NotASubgroup,
    SizeBound,
    UnknownBuiltin,
    WrongAmbient,
)
from tdmc.groups import (
    Subgroup,
    centralizer,
    conjugacy_classes,
    direct_square_with_diagonal,
    double_cosets,
    group_from_spec,
    normalizer,
    orbit_decomposition,
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


def test_s3_fixed_encoding():
    """The S3 element order is frozen: one-line permutations in lex order."""
    S3 = group_from_spec("S3")
    assert S3.element_names == ["123", "132", "213", "231", "312", "321"]
    # (132) then (213): first swap 1,2 then swap 2,3 - lands on 312
    assert S3.times(1, 2) == 4
    assert S3.times(2, 1) == 3
    assert sorted(S3.element_order(x) for x in range(6)) == [1, 2, 2, 2, 3, 3]
    # A3 is {identity, the two 3-cycles}
    assert {x for x in range(6) if S3.element_order(x) == 3} == {3, 4}


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


def test_conjugacy_classes_s3():
    S3 = group_from_spec("S3")
    classes = conjugacy_classes(S3)
    # ordered by minimal element: identity, transpositions, 3-cycles
    assert [len(c) for c in classes] == [1, 3, 2]
    assert classes[1] == [1, 2, 5]
    assert classes[2] == [3, 4]
    cz = centralizer(S3, 3)
    assert cz.elements == (0, 3, 4)
    with pytest.raises(ElementOutOfRange):
        centralizer(S3, 6)


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
    """Every conjugate of every representative matches exactly one listed class."""
    D4 = group_from_spec("D4")
    classes = subgroups_up_to_conjugacy(D4)
    assert [c.rep.order for c in classes] == [1, 2, 2, 2, 4, 4, 4, 8]
    keysets = [frozenset(c.rep.elements) for c in classes]
    for c in classes:
        orbit = {frozenset(c.rep.conjugate_by(g).elements) for g in range(D4.order)}
        assert len(orbit) == c.class_size
        hits = [k for k in keysets if k in orbit]
        assert hits == [frozenset(c.rep.elements)]


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
    for orbit, pairs in zip(dec.orbits, dec.stab_pairs):
        assert len(orbit) * len(pairs) == 36


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


def test_invariant_errors_survive_optimize():
    """The checks are not asserts: python -O keeps them.  The S3 diagonal gets
    its elements overwritten after validation by a set that is not a
    subgroup: (1,1) fixes the identity and (1,0) moves it, so the
    orbit-stabilizer count 2 * 2 != 3 fails."""
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
        H.elements = (0, square.pair(1, 1), square.pair(1, 0))
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
