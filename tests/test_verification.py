"""Reference-table verification: label matching and the check harness."""

from __future__ import annotations

import copy

import pytest

from tdmc import verification
from tdmc.errors import BadGroupSpec, InvariantViolated, WrongAmbient
from tdmc.groups import group_from_spec, subgroups_up_to_conjugacy
from tdmc.modcat import double_context
from tdmc.verification import (
    census_labels,
    find_isomorphism,
    load_reference,
    verify_reference_tables,
)


@pytest.fixture(scope="module")
def ctx_s3():
    return double_context(group_from_spec("S3"), 0)


def test_find_isomorphism_identity_and_relabeling():
    A = group_from_spec("S3")
    phi = find_isomorphism(A, A)
    assert phi is not None
    import numpy as np

    p = np.array(phi)
    assert np.array_equal(p[A.mul], A.mul[np.ix_(p, p)])

    # S3 given by other generators: same group up to relabeling
    B = group_from_spec(
        {"type": "perm", "degree": 3, "generators": [[2, 3, 1], [2, 1, 3]]}
    )
    phi = find_isomorphism(A, B)
    assert phi is not None
    p = np.array(phi)
    assert np.array_equal(p[A.mul], B.mul[np.ix_(p, p)])


def test_find_isomorphism_rejects_non_isomorphic():
    assert find_isomorphism(group_from_spec("Z4"), group_from_spec("Z2xZ2")) is None
    assert find_isomorphism(group_from_spec("S3"), group_from_spec("Z4")) is None
    # same order, different groups
    assert find_isomorphism(group_from_spec("D4"), group_from_spec("Q8")) is None


def test_census_labels_bijection(ctx_s3):
    labels = census_labels(ctx_s3)
    assert labels is not None
    assert sorted(labels) == list(range(22))
    assert sorted(labels.values()) == sorted(f"H{i}" for i in range(1, 23))


def test_census_labels_spot_checks(ctx_s3):
    """Pin the structural assignment, including the pairs of classes that are
    numerically identical and only distinguishable by their generators."""
    labels = census_labels(ctx_s3)
    n = ctx_s3.base.order
    by_label = {v: k for k, v in labels.items()}
    from tdmc.groups import subgroups_up_to_conjugacy

    census = subgroups_up_to_conjugacy(ctx_s3.ambient)

    def factors(label):
        els = census[by_label[label]].rep.elements
        return sorted({x // n for x in els}), sorted({x % n for x in els})

    # left/right factor element sets identify the direct-product classes
    assert factors("H9") == ([0, 1, 2, 3, 4, 5], [0])  # full x trivial
    assert factors("H10") == ([0], [0, 1, 2, 3, 4, 5])  # trivial x full
    # order 12: full x 2-element vs 2-element x full
    assert factors("H15")[0] == [0, 1, 2, 3, 4, 5] and len(factors("H15")[1]) == 2
    assert len(factors("H16")[0]) == 2 and factors("H16")[1] == [0, 1, 2, 3, 4, 5]
    # order 18: full x rotations vs rotations x full
    assert factors("H17") == ([0, 1, 2, 3, 4, 5], [0, 3, 4])
    assert factors("H18") == ([0, 3, 4], [0, 1, 2, 3, 4, 5])
    # the same-parity subgroup projects onto both factors in full
    assert factors("H19") == ([0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5])
    assert census[by_label["H19"]].rep.order == 18
    # the two order-6 mixed classes with nontrivial projections both ways
    for lab in ("H21", "H22"):
        assert census[by_label[lab]].rep.order == 6
        assert factors(lab)[0] != [0] and factors(lab)[1] != [0]
    assert census[by_label["H14"]].rep.order == 9


def test_census_labels_rejects_shared_generators(ctx_s3, monkeypatch):
    """Two reference labels on one generator set cannot both be matched; this
    raises a typed error that survives python -O, naming both labels and the
    census index."""
    data = copy.deepcopy(load_reference())
    data["classes"]["H3"]["generators"] = data["classes"]["H2"]["generators"]
    monkeypatch.setattr(verification, "load_reference", lambda: data)
    with pytest.raises(InvariantViolated, match=r"labels H2 and H3 match census class \d+"):
        census_labels(ctx_s3)


def test_census_labels_none_for_other_groups():
    assert census_labels(double_context(group_from_spec("Z4"), 0)) is None
    assert census_labels(double_context(group_from_spec("Z2xZ2"), 0)) is None


Z6_TABLE = [[(i + j) % 6 for j in range(6)] for i in range(6)]


@pytest.mark.parametrize("other", ["Z2xZ2", {"type": "cayley", "table": Z6_TABLE}])
def test_census_labels_rejects_the_census_of_another_group(ctx_s3, other):
    """A census of another square, of another order (Z2xZ2) or of the same
    order 36 (Z6), is refused for the group it lives on, not reported as a
    reference class missing from it; the context's own census is labelled
    as when census_labels computes it."""
    census = subgroups_up_to_conjugacy(double_context(group_from_spec(other), 0).ambient)
    with pytest.raises(WrongAmbient, match="census classes must be subgroups"):
        census_labels(ctx_s3, census)
    own = subgroups_up_to_conjugacy(ctx_s3.ambient)
    assert census_labels(ctx_s3, own) == census_labels(ctx_s3)


def test_verify_all_pass_on_builtin():
    sections = verify_reference_tables()
    assert [s.name for s in sections] == [
        "subgroup census",
        "orbit and rank table",
        "admissibility and pair counts",
        "dual ranks",
        "fiber functors",
    ]
    assert all(s.passed for s in sections)
    assert sum(len(s.items) for s in sections) == 86


def test_verify_passes_on_relabeled_group():
    other = group_from_spec(
        {"type": "perm", "degree": 3, "generators": [[1, 3, 2], [3, 2, 1]]}
    )
    sections = verify_reference_tables(other)
    assert all(s.passed for s in sections)


def test_verify_rejects_wrong_group():
    with pytest.raises(BadGroupSpec):
        verify_reference_tables(group_from_spec("Z4"))


def test_perturbed_table_fails_with_named_diff(monkeypatch):
    data = copy.deepcopy(load_reference())
    data["classes"]["H7"]["rank"] = 9
    monkeypatch.setattr(verification, "load_reference", lambda: data)
    sections = verify_reference_tables()
    bad = [i for s in sections for i in s.items if not i.passed]
    assert len(bad) == 1
    assert bad[0].label == "H7 orbits/rank"
    assert "expected" in bad[0].detail and "got" in bad[0].detail


def test_reference_data_shape():
    data = load_reference()
    assert len(data["classes"]) == 22
    assert sum(1 for c in data["classes"].values() if c["h2"]) == 6
    assert data["pair_counts"] == {"0": 28, "1": 4, "2": 8, "3": 12}
    assert sorted(data["fiber_functors"]["0"]) == ["H10", "H12", "H13", "H9"]
    assert data["fiber_functors"]["twisted"] == 0
    # each class carries one dual rank per classified pair
    total_duals = sum(len(c["dual_ranks"]) for c in data["classes"].values())
    assert total_duals == 28
