"""Output identity of the exact kernels, pinned as sha256 digests.

The Smith elimination's pivot choices fix the transforms U and V, and through
them the generator cocycles of H^3(G, C*) (which `--omega K`, the pinned Klein
counts and the D4 admissibility table of the benchmark refer to) and every
particular solution psi0.  The H^2(H, C*) generators of the census classes
fix the printed psi coordinates.  The subgroup census fixes class indices and
representatives.  The slice system's matrix, right-hand side and coboundary
columns are the inputs of those eliminations.  A kernel change that moves any
of these must fail here, even when every mathematical property test still
passes.  The last section pins what the package prints or returns end to end:
the S3 CLI tables, the Klein per-pair rows and a few D4 rank breakdowns.

Each digest is the sha256 of compact JSON (separators "," and ":") of plain
integer lists, so it does not depend on dtypes or array layout.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from tdmc.cli import main
from tdmc.cohomology import (
    Cochain,
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
from tdmc.modcat import (
    bimodule_rank,
    classify_pairs,
    double_context,
    fiber_functors,
    module_rank_double,
    pair_from_coords,
)

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
        psi0 = solve_trivialization(ctx.cocycle, cls.rep, ctx.modulus)
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


# ---------------------------------------------------------------------------
# end-to-end outputs of the classification
# ---------------------------------------------------------------------------

# The layers above the kernels (conjugation, subgroup index maps, the fold,
# the rank recipes) must leave every printed answer as it is.  Each digest
# below is of the parsed JSON output or of plain integer rows, as above.

# k -> digests of `classify --format json` and `fiber-functors --format json`
S3_CLI = {
    0: (
        "ac930edf0466ce1c8fe4a5ac4d15f9768d0901d02a843cde60d66e71d3d7f787",
        "0aa1c22f6d8bdbd604734a20a04ef146b33d1f95affd37499bcd282eb36c83e8",
    ),
    1: (
        "1d1e5bf31356fd6ea3b44d95c72df20d2182ad2959020da037bb6e92a3357d18",
        "c8fd0774d94a04f2839494af19d60901ea7ad1c80eac953a90e776bd690f6278",
    ),
    2: (
        "da58fb4e79a97501297dfc97d3298b5677a6a7e49c0fd633b7536264c7e2364e",
        "0df48aef7903fd582a008242d028499f2120ccf7d652e49c5d8a3780a915c954",
    ),
    3: (
        "3232a1f94e0ae32519550f52e8b30e3b00a6d1c93bd2f5417eb01f34c379431d",
        "15aa40797f8f116b71e03a42543a9b2320c00d0242c1b3c7fb39bc5ba40c6985",
    ),
    4: (
        "131d6cbff35c8ca4dcd35bfa528a8444d4949ad807ce0debbe79532f2d33b868",
        "e6bdcae7ab292c95ee8eb4f5f2fa1a1ae39f7a674d5a8d00f11bd0958c77bbca",
    ),
    5: (
        "cc90c5630c50a06486c867df5c7f4c1b6c34716b888155fede11e567f927bc66",
        "763324f4f43efdf46eeb08f96112909b9ca20286277b437af150460de5c37c78",
    ),
}

# omega coordinates along cohomology_cstar(Z2xZ2, 3).generators -> digest of
# the per-pair rows [class index, coords, folded, breakdown rows as
# (rep, stabilizer order, count), is a fiber functor]
KLEIN_ROWS = {
    (0, 0, 0): "302193f9c27ecb7eccc8855586bd60b5c5a5ccb6fe7b63b8b0b131d6578178e2",
    (0, 0, 1): "488b3e44a358b83938643f2cd349f67b7725a484d5b618e0466c172f46ca9ba4",
    (0, 1, 0): "de78fe1b4fabc654e39598abe3993035d9ca3a0fc568b63596897c35e9881ddf",
    (0, 1, 1): "e182ecf802768f29657e87e3f82fa3554f4c41d7bb6706bfa8f02c0b777b5986",
    (1, 0, 0): "0ee3c65595abed8a9e156d6240ab428e943c3c827b9eb26060a4d74f6a36bd95",
    (1, 0, 1): "bc3c2c10c946e0db7d73da994cb9a045b852ecc51c16ee885b590824e0778100",
    (1, 1, 0): "7ef4a1d04bd3649f28aa0c747a0b916fbf0dac79b50f5397d72b954700da4b35",
    (1, 1, 1): "ae9caa7327ba23ad51bdc1b27f0a17775261fe51554b3f8fc3382390d264680b",
}

# (k, census class of the D4 square, torsor coordinates) -> digest of the
# module_rank_double rows and the bimodule_rank rows of the pair with itself,
# each row (rep, stabilizer elements, local cocycle values, count).  The
# classes 95, 150, 160 and 188 are among those that raised FormulaNotClosed
# at k = 1 before the two rank recipes were corrected.
D4_RANK_ROWS = {
    (0, 71, (1,)): "28a0a28dd92ba268a6ca17f15ddd52ce33ff43fabc3a8594f4e934b31fd89fdd",
    (0, 77, (1, 0, 1)): "ac5d38f03d19575ed5570088c9686f1875c2a8dfd72c61226666008325404360",
    (1, 95, (0, 1, 1)): "53a9a88b8b7f8d9198ffe2c8a6fbb0085de5b2080f3df4980426e6342dbbf341",
    (1, 150, (1,)): "7234904dc39ff07dfbe28eb1e6c75a8fd3ece7bfc2c3bf05ac4b4084d8eed4d8",
    (1, 160, (1, 0, 0, 1, 0, 1)): "3040756a728c4eed61e47cbd67521a828ac482ca2bdb8640e64eea3ce75c2f0d",
    (1, 188, (0, 1)): "b9e56689649cb623371aab358e8cdf86ece59ed830720d129a758d2a60e3c255",
}


@pytest.mark.parametrize("k", sorted(S3_CLI))
def test_s3_cli_output_pinned(k, capsys):
    got = []
    for command in ("classify", "fiber-functors"):
        assert main([command, "--group", "S3", "--omega", str(k), "--format", "json"]) == 0
        got.append(_digest(json.loads(capsys.readouterr().out)))
    assert tuple(got) == S3_CLI[k]


@pytest.mark.parametrize(
    "bits", sorted(KLEIN_ROWS), ids=["".join(map(str, b)) for b in sorted(KLEIN_ROWS)]
)
def test_klein_pair_rows_pinned(bits):
    K4 = group_from_spec("Z2xZ2")
    gens = cohomology_cstar(K4, 3).generators
    omega = Cochain.zero(K4, 3, gens[0].modulus)
    for bit, gen in zip(bits, gens):
        if bit:
            omega = omega + gen
    ctx = double_context(K4, omega=omega)
    report = classify_pairs(ctx)
    ff_ids = {id(pe) for pe in fiber_functors(ctx, report)}
    rows = [
        [
            e.index,
            list(pe.coords),
            pe.folded,
            [
                [int(r.representative), r.stabilizer.order, int(r.count)]
                for r in pe.breakdown.rows
            ],
            id(pe) in ff_ids,
        ]
        for e in report.entries
        for pe in e.pairs
    ]
    assert _digest(rows) == KLEIN_ROWS[bits]


def _rank_rows(breakdown):
    return [
        [
            int(r.representative),
            list(r.stabilizer.elements),
            r.cocycle.values.ravel().tolist(),
            int(r.count),
        ]
        for r in breakdown.rows
    ]


@pytest.fixture(scope="module")
def d4_census():
    square = direct_square_with_diagonal(group_from_spec("D4"))
    return subgroups_up_to_conjugacy(square.group)


@pytest.mark.parametrize("k,index,coords", sorted(D4_RANK_ROWS))
def test_d4_rank_rows_pinned(k, index, coords, d4_census):
    ctx = double_context(group_from_spec("D4"), k)
    pair, _ = pair_from_coords(ctx, d4_census[index].rep, coords)
    got = _digest(
        [
            _rank_rows(module_rank_double(ctx, pair)),
            _rank_rows(bimodule_rank(ctx, pair, pair)),
        ]
    )
    assert got == D4_RANK_ROWS[(k, index, coords)]
