"""Output identity of the exact kernels, pinned as sha256 digests.

The Smith elimination's pivot choices fix the transforms U and V, and through
them the generator cocycles of H^3(G, C*) (which `--omega K`, the pinned Klein
counts and the D4 admissibility table of the benchmark refer to) and every
particular solution psi0.  The H^2(H, C*) generators of the census classes
fix the printed psi coordinates.  The subgroup census fixes class indices and
representatives.  The slice system's matrix, right-hand side and coboundary
columns are the inputs of those eliminations.  A kernel change that moves any
of these must fail here, even when every mathematical property test still
passes.

Each digest is the sha256 of compact JSON (separators "," and ":") of plain
integer lists, so it does not depend on dtypes or array layout.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from tdmc.cohomology import (
    _coboundary_slice_columns,
    _SliceSystem,
    cohomology_cstar,
    solve_trivialization,
)
from tdmc.groups import (
    direct_square_with_diagonal,
    group_from_spec,
    subgroups_up_to_conjugacy,
)
from tdmc.linalg import smith_form_mod
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

# (group, unknown degree, modulus) -> digests of the slice system's matrix A,
# of its right-hand side for a fixed random F, and of its coboundary columns.
# "S3xS3/36" is the order-36 census class of the S3 square, as its own group.
SLICE_SYSTEMS = {
    ("S3", 1, 36): (
        "f468b2551e8c416b0f48cd111f507487994253a7c896a603afd9a30f0b530d3d",
        "0493d622394cfed3140a8549be51765cc7466f7f4ce04a6b5bf4d34667142765",
        "643d5437104296e21d906ecb15b2c96ad278f20cfc4af53b12bb6069bd853726",
    ),
    ("S3", 2, 36): (
        "d898259cb9287f9d2c6f3fc924be6a35662439c00066f254fdf37bf675783260",
        "eadd9079210925b1d6414bebe9cb607d44bd6cf0befb51d4f9bd345f5ad44da3",
        "82cf6d0af8f47128a8cc3276e921e6271e200f7d9d4af57d9100fb14e15c315b",
    ),
    ("D4", 2, 64): (
        "b0db29035a4a61d51966a674ebe66b36c5f3be1cbe415182819edb4a8fb251db",
        "ddab3f06d195a06e1473b8ba9295f537d34b8ea6c2dbb6ca47e35931f2884be2",
        "df60f010040a4fc616e6785866628c363308f624e36ce3abfae51ba2ce7bb0cb",
    ),
    ("Q8", 2, 64): (
        "5562f0706fa8b31bc63a1228fa080d52e92729270ff25d6e567042b2ad44d517",
        "c3865be2d65a688632a94c9029ce9823b167bdb7d91501c46c32bf1c1919d7ea",
        "d028d16f27bb5e500b3f36d14b1862b5c5940c0560f355155b8f25993fabbc3f",
    ),
    ("S3", 3, 6): (
        "dc48f63fbce5ca2305b53e8e0e85ee38300a5cd2436addc34dceba2eeaf05cb8",
        "8075747e353fccf7dfe47ce10a4a6dee0d8e084bbe728ccb0321b8d44cd52692",
        "1fd579b1444113650558f2f10024936228546c625394b937b07da1ab7447e1ff",
    ),
    ("Z2xZ2", 3, 16): (
        "80fb7b6fe124359323da838f2060f2c172a7965acb96499232464075552de031",
        "2fff8982e39433b8c5f7400fdb22843d66dea0d0189a36a855a3a684e94443cf",
        "afc5485068d2bd557091796c31d8ab8e7e5a136d387aebf9a6971964cfdbd851",
    ),
    ("D4", 3, 8): (
        "4542f1652dd9edf8ec258c5bd925c5860a7a9779249f5314c07c0881e633681f",
        "b6f6d63efae383a1f11cb79c65df9fd62da066bdf500ed902c27fb88f250d153",
        "5e170384fcd24af1afd065be087ec2013ede958f6cd2f41619e00fa393760991",
    ),
    ("S3xS3/36", 2, 1296): (
        "8f6fac8ef8daec5aadb361bcda2be8d1dc9da0aa188d333a51a95e8d098109de",
        "acd0e57982e289926209fc5d4ff9dd0bb226ca860cf3e4e13ccf2f1d0e7af039",
        "1aa42b425eedbf11781f89eb407c2413082d1d4e21ed33ba74540083fbb8eb5d",
    ),
}

# Same keys: digest of U @ rhs for that right-hand side, as the elimination
# returned it when it carried the right-hand side along.  The recorded row
# operations replayed on it must give the same vector.
SLICE_REPLAY = {
    ("D4", 2, 64): "1d13bf2d27ce87865318e5f48fd23b0d1f02759a82463ba091b8357bdaf7067f",
    ("D4", 3, 8): "6333f3952308a236dcfbabd22e44801cf077a2597802e5425957996e7fc50726",
    ("Q8", 2, 64): "d3d6bc40fd06b6a70f5084959a9ca8b72bdbe4bce3355cdbfda0b0ed435e395c",
    ("S3", 1, 36): "33823e425536f5e4927877fd18f039f140d1d6f88010981f74dcb470788ea175",
    ("S3", 2, 36): "80289eca73e274426420580afd179e6ee35576c9cc6d15b911a83819934f10f5",
    ("S3", 3, 6): "27a18c70fc89a00be8dd71229540a17345c3e6becf3ff9ec08ec78530c1c5660",
    ("S3xS3/36", 2, 1296): "4e2e45e2bea3a860425dd254704ae0edd57a9a711fcdaa85042b85dca2be835d",
    ("Z2xZ2", 3, 16): "bb1df29014c0744efcc57f073ff2e3735b0d6084438cedcabfe675279fa812be",
}

# base -> (distinct local multiplication tables in the census of its square,
# digest of the H^2(H, C*) generators on the first class with each table)
CSTAR2_GENERATORS = {
    "S3": (15, "7aae3f0957328effa9e00cabef30299a92a428f2e84b8d6d4bc1155126a2d260"),
    "Z2xZ2": (5, "d77692a2eb8fe0d03fb4aa513254eec4c12b4e39f8c4cb36b3aa25ef5bf3927d"),
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


@pytest.mark.parametrize("name", sorted(CSTAR2_GENERATORS))
def test_local_h2_generators_pinned(name):
    square = direct_square_with_diagonal(group_from_spec(name))
    rows, seen = [], set()
    for ci, cls in enumerate(subgroups_up_to_conjugacy(square.group)):
        H = cls.rep.as_group
        if H.mul.tobytes() in seen:
            continue
        seen.add(H.mul.tobytes())
        gens = cohomology_cstar(H, 2).generators
        rows.append([ci, [[g.modulus, g.values.ravel().tolist()] for g in gens]])
    assert (len(rows), _digest(rows)) == CSTAR2_GENERATORS[name]


@pytest.mark.parametrize("k", sorted(S3_PSI0))
def test_s3_trivializations_pinned(k):
    ctx = double_context(group_from_spec("S3"), k)
    rows = []
    for ci, cls in enumerate(subgroups_up_to_conjugacy(ctx.ambient)):
        psi0 = solve_trivialization(ctx.omega, cls.rep, ctx.modulus)
        if psi0 is not None:
            rows.append([ci, psi0.modulus, psi0.values.ravel().tolist()])
    assert (len(rows), _digest(rows)) == S3_PSI0[k]


def _slice_group(name):
    if name != "S3xS3/36":
        return group_from_spec(name)
    square = direct_square_with_diagonal(group_from_spec("S3"))
    census = subgroups_up_to_conjugacy(square.group)
    return next(c.rep for c in census if c.rep.order == 36).as_group


@pytest.mark.parametrize("name,n,M", sorted(SLICE_SYSTEMS))
def test_slice_system_pinned(name, n, M):
    system = _SliceSystem(_slice_group(name), n, M)
    H = system.G.order
    F = np.random.default_rng(0).integers(0, M, size=(H,) * (n + 1))
    got = tuple(
        _digest(x.tolist())
        for x in (system.A, system._rhs(F), _coboundary_slice_columns(system))
    )
    assert got == SLICE_SYSTEMS[(name, n, M)]


@pytest.mark.parametrize("name,n,M", sorted(SLICE_REPLAY))
def test_slice_replay_pinned(name, n, M):
    system = _SliceSystem(_slice_group(name), n, M)
    H = system.G.order
    F = np.random.default_rng(0).integers(0, M, size=(H,) * (n + 1))
    got = smith_form_mod(system.A, M).apply_rows(system._rhs(F))
    assert _digest(got.ravel().tolist()) == SLICE_REPLAY[(name, n, M)]


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
