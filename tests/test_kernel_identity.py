"""Output identity of the exact kernels, pinned as sha256 digests.

The Smith elimination's pivot choices fix the transforms U and V, and through
them the generator cocycles of H^3(G, C*) (which `--omega K`, the pinned Klein
counts and the D4 admissibility table of the benchmark refer to) and every
particular solution psi0.  The subgroup census fixes class indices and
representatives.  A kernel change that moves any of these must fail here,
even when every mathematical property test still passes.

Each digest is the sha256 of compact JSON (separators "," and ":") of plain
integer lists, so it does not depend on dtypes or array layout.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from tdmc.cohomology import cohomology_cstar, solve_trivialization
from tdmc.groups import (
    direct_square_with_diagonal,
    group_from_spec,
    subgroups_up_to_conjugacy,
)
from tdmc.modcat import double_context

CSTAR3_GENERATORS = {
    "S3": "27c81481a24db1ee037c34138508bd323b5cd6f9572ac3f1300c5f54f1306040",
    "Z2xZ2": "b0890e73dd4fd2c98580cf1502cef2991e424cea80b89651c393dd95912108e7",
    "D4": "e19bf833980692eca8b1113aea496d2a0a8230af26c806a99e0f342eee302c67",
    "Q8": "c96ad266db1d7c507cfa651084e9958fbb9242b044cbb755ba26f3d881f068cc",
}

# k -> (admissible census classes of the S3 double, digest of their psi0)
S3_PSI0 = {
    1: (4, "cf11318b2e9f9ff9def5fbc84c58df4f1d67329a5e00667174a9c92606e2617a"),
    3: (10, "c41766da4891afc50985938a1b7c49159f7a2caac212a050ad9be047a80c53e5"),
}

SQUARE_CENSUS = {
    "S3": "11ce14b6895e171f807a882297211b10d8c00d5fae30a05344e03ec748a4abe5",
    "D4": "4426e0de586f3ecf9c65fff95ac173d9209760918edc1c7397692df9016e6418",
    "Q8": "522850c2cae8afd87b408fce1fd7a163e86f4cc99e128dd90eee77a261e5e763",
}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CSTAR3_GENERATORS))
def test_cstar_generators_pinned(name):
    gens = cohomology_cstar(group_from_spec(name), 3).generators
    got = _digest([[g.modulus, g.values.ravel().tolist()] for g in gens])
    assert got == CSTAR3_GENERATORS[name]


@pytest.mark.parametrize("k", sorted(S3_PSI0))
def test_s3_trivializations_pinned(k):
    ctx = double_context(group_from_spec("S3"), k)
    rows = []
    for ci, cls in enumerate(subgroups_up_to_conjugacy(ctx.ambient)):
        psi0 = solve_trivialization(ctx.omega, cls.rep, ctx.modulus)
        if psi0 is not None:
            rows.append([ci, psi0.modulus, psi0.values.ravel().tolist()])
    assert (len(rows), _digest(rows)) == S3_PSI0[k]


@pytest.mark.parametrize("name", sorted(SQUARE_CENSUS))
def test_square_census_pinned(name):
    square = direct_square_with_diagonal(group_from_spec(name))
    census = subgroups_up_to_conjugacy(square.group)
    got = _digest(
        [
            [list(c.rep.elements), c.class_size, list(c.normalizer.elements)]
            for c in census
        ]
    )
    assert got == SQUARE_CENSUS[name]
