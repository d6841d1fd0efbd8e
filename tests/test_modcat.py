"""Classification engine checks against frozen rank tables for the S3 square.

The frozen constants below index classes by their position in the subgroup
census of S3 x S3 (sorted by order, then element tuple).  Every number was
computed independently of _psi_general and _psi_double: double-coset counts
come straight from the group machinery, ranks are cross-checked between the
two local-cocycle recipes and the rewrite-rule oracle, and small-group
identities pin the untwisted values.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from functools import lru_cache

import numpy as np
import pytest

from tdmc import cohomology, groups, modcat
from tdmc.cohomology import (
    Cochain,
    coboundary,
    cohomology_cstar,
    is_trivial_over_cstar,
    restrict,
    small_generating_set,
    solve_trivialization,
)
from tdmc.errors import InvariantViolated, NotTrivializing, SizeBound, WrongAmbient
from tdmc.groups import (
    FiniteGroup,
    Subgroup,
    conjugacy_classes,
    direct_square_with_diagonal,
    double_cosets,
    group_from_spec,
    subgroups_up_to_conjugacy,
)
from tdmc.modcat import (
    ClassificationReport,
    PairHPsi,
    _psi_double,
    bimodule_rank,
    classify_class,
    classify_pairs,
    diagonal_pair,
    double_context,
    fiber_functors,
    is_fiber_functor,
    make_pair,
    module_rank_double,
    transport_pair,
)
from tdmc.twisted_algebra import projective_irrep_count

from oracles import ambient_context, centralizer, klein_context, oracle_simple_bimodules

# ---------------------------------------------------------------------------
# frozen expectations, census-indexed (1-based)
# ---------------------------------------------------------------------------

# index -> (order, h2 factors, [(coords, folded, double cosets, rank)], duals)
CENSUS_TABLE = {
    1: (1, (), [((), 1, 6, 6)], [36]),
    2: (2, (), [((), 1, 3, 3)], [18]),
    3: (2, (), [((), 1, 3, 3)], [18]),
    4: (2, (), [((), 1, 4, 6)], [12]),
    5: (3, (), [((), 1, 2, 2)], [36]),
    6: (3, (), [((), 1, 2, 2)], [36]),
    7: (3, (), [((), 1, 4, 10)], [20]),
    8: (4, (2,), [((0,), 1, 2, 3), ((1,), 1, 2, 3)], [9, 9]),
    9: (6, (), [((), 1, 1, 1)], [18]),
    10: (6, (), [((), 1, 1, 1)], [18]),
    11: (6, (), [((), 1, 1, 1)], [18]),
    12: (6, (), [((), 1, 2, 4)], [12]),
    13: (6, (), [((), 1, 1, 1)], [18]),
    14: (6, (), [((), 1, 2, 4)], [12]),
    15: (6, (), [((), 1, 3, 8)], [8]),
    16: (9, (3,), [((0,), 1, 2, 6), ((1,), 2, 2, 6)], [36, 20]),
    17: (12, (2,), [((0,), 1, 1, 2), ((1,), 1, 1, 2)], [9, 9]),
    18: (12, (2,), [((0,), 1, 1, 2), ((1,), 1, 1, 2)], [9, 9]),
    19: (18, (), [((), 1, 1, 3)], [18]),
    20: (18, (), [((), 1, 1, 3)], [18]),
    21: (18, (3,), [((0,), 1, 2, 6), ((1,), 2, 2, 6)], [12, 8]),
    22: (36, (2,), [((0,), 1, 1, 3), ((1,), 1, 1, 3)], [9, 9]),
}

ADMISSIBLE = {
    0: list(range(1, 23)),
    1: [1, 4, 7, 15],
    2: [1, 2, 3, 4, 7, 8, 15],
    3: [1, 4, 5, 6, 7, 12, 14, 15, 16, 21],
    4: [1, 2, 3, 4, 7, 8, 15],
    5: [1, 4, 7, 15],
}

PAIR_COUNTS = {0: 28, 1: 4, 2: 8, 3: 12, 4: 8, 5: 4}

FIBER_CLASSES_K0 = [9, 10, 11, 13]


@lru_cache(maxsize=None)
def ctx_s3(k: int):
    return double_context(group_from_spec("S3"), k)


@lru_cache(maxsize=None)
def report_s3(k: int):
    return classify_pairs(ctx_s3(k))


# ---------------------------------------------------------------------------
# the frozen tables
# ---------------------------------------------------------------------------


def test_untwisted_census_and_rank_table():
    rep = report_s3(0)
    assert rep.census_size == 22
    assert len(rep.entries) == 22
    for entry in rep.entries:
        order, h2, pairs, _ = CENSUS_TABLE[entry.index + 1]
        assert entry.subgroup.order == order
        assert entry.h2_factors == h2
        got = [
            (pe.coords, pe.folded, len(pe.breakdown.rows), pe.breakdown.total)
            for pe in entry.pairs
        ]
        assert got == pairs
    assert rep.total_pairs == 28


def test_dual_ranks():
    rep = report_s3(0)
    ctx = ctx_s3(0)
    for entry in rep.entries:
        want = CENSUS_TABLE[entry.index + 1][3]
        got = [bimodule_rank(ctx, pe.pair, pe.pair).total for pe in entry.pairs]
        assert got == want, f"census class {entry.index + 1}"


@pytest.mark.parametrize("k", range(6))
def test_admissible_classes_and_pair_counts(k):
    rep = report_s3(k)
    assert [i + 1 for i in rep.admissible_indices] == ADMISSIBLE[k]
    assert rep.total_pairs == PAIR_COUNTS[k]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rank_table_rows_unchanged_by_twist(k):
    base = {
        e.index: [(len(p.breakdown.rows), p.breakdown.total) for p in e.pairs]
        for e in report_s3(0).entries
    }
    for e in report_s3(k).entries:
        got = [(len(p.breakdown.rows), p.breakdown.total) for p in e.pairs]
        assert got == base[e.index], f"census class {e.index + 1} at k={k}"


def test_fiber_functors_untwisted():
    rep = report_s3(0)
    ff = fiber_functors(ctx_s3(0), rep)
    hit = sorted(
        e.index + 1 for e in rep.entries for pe in e.pairs if pe in ff
    )
    assert hit == FIBER_CLASSES_K0
    for pe in ff:
        assert pe.coords == ()  # trivial cohomology, trivial torsor coordinate
        assert pe.breakdown.total == 1


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_no_fiber_functors_when_twisted(k):
    assert fiber_functors(ctx_s3(k), report_s3(k)) == []


def test_fiber_functors_rejects_a_report_of_another_context():
    """A report answers only for the context it was classified under: k = 0
    has 4 fiber functors and k = 1 none, whichever report is passed.  An
    equal context built separately is the same context."""
    with pytest.raises(WrongAmbient, match=r"k=0.*k=1"):
        fiber_functors(ctx_s3(1), report_s3(0))
    with pytest.raises(WrongAmbient, match=r"k=1.*k=0"):
        fiber_functors(ctx_s3(0), report_s3(1))
    klein = double_context(group_from_spec("Z2xZ2"))
    with pytest.raises(WrongAmbient, match="order 6.*order 4"):
        fiber_functors(klein, report_s3(0))
    twin = double_context(group_from_spec("S3"), 0)
    assert twin is not ctx_s3(0)
    assert len(fiber_functors(twin, report_s3(0))) == len(FIBER_CLASSES_K0)


# ---------------------------------------------------------------------------
# cross-recipe consistency
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [0, 3])
def test_orbit_recipe_matches_two_sided_recipe(k):
    ctx = ctx_s3(k)
    diag = diagonal_pair(ctx)
    for entry in report_s3(k).entries:
        for pe in entry.pairs:
            two_sided = bimodule_rank(ctx, diag, pe.pair)
            assert two_sided.total == pe.breakdown.total, (
                f"census class {entry.index + 1}, coords {pe.coords}"
            )


@pytest.mark.parametrize("k", [0, 3])
def test_rewrite_oracle_agrees_per_coset(k):
    ctx = ctx_s3(k)
    diag = diagonal_pair(ctx)
    for entry in report_s3(k).entries:
        for pe in entry.pairs:
            for row in bimodule_rank(ctx, diag, pe.pair).rows:
                got = oracle_simple_bimodules(ctx, diag, pe.pair, row.representative)
                assert got == row.count, (
                    f"census class {entry.index + 1}, coords {pe.coords}, "
                    f"coset of {row.representative}"
                )


def test_rewrite_oracle_agrees_on_every_q8_bimodule():
    """Every (pair, pair) of the Q8 double at k=1, 17 x 17, row by row: 2,224
    double cosets, each stabilizer small enough for the oracle."""
    ctx = double_context(group_from_spec("Q8"), 1)
    pairs = [(e.index, pe) for e in classify_pairs(ctx).entries for pe in e.pairs]
    assert len(pairs) == 17
    rows = 0
    for (i, left), (j, right) in itertools.product(pairs, repeat=2):
        for row in bimodule_rank(ctx, left.pair, right.pair).rows:
            got = oracle_simple_bimodules(ctx, left.pair, right.pair, row.representative)
            assert got == row.count, (
                f"classes {i + 1} {left.coords} and {j + 1} {right.coords}, "
                f"coset of {row.representative}"
            )
            rows += 1
    assert rows == 2224


def test_representative_independence():
    # _psi_double at any point of the same orbit gives the same irreducible count
    ctx = ctx_s3(3)
    rep = report_s3(3)
    from tdmc.groups import orbit_decomposition

    for entry in rep.entries:
        for pe in entry.pairs:
            dec = orbit_decomposition(ctx.base, pe.pair.subgroup)
            for orbit, row in zip(dec.orbits, pe.breakdown.rows):
                for g in orbit:
                    stab, coc = _psi_double(ctx, g, pe.pair)
                    m = projective_irrep_count(coc)
                    assert m == row.count


def test_conjugating_a_pair_preserves_ranks():
    ctx = ctx_s3(3)
    rep = report_s3(3)
    diag = diagonal_pair(ctx)
    rng = np.random.default_rng(17)
    for entry in rep.entries:
        pe = entry.pairs[-1]
        for n in rng.integers(0, 36, size=2):
            moved = transport_pair(ctx, pe.pair, int(n))
            assert bimodule_rank(ctx, diag, moved).total == pe.breakdown.total
            assert bimodule_rank(ctx, moved, moved).total == bimodule_rank(
                ctx, pe.pair, pe.pair
            ).total


def _klein_twisted_ctx():
    K4 = group_from_spec("Z2xZ2")
    return double_context(K4, omega=cohomology_cstar(K4, 3).generators[0])


@pytest.mark.parametrize("make_ctx", [lambda: ctx_s3(3), _klein_twisted_ctx])
def test_fold_lookups_agree_with_cstar_triviality(make_ctx):
    """Every C* lookup the normalizer fold makes on the first class with a
    nontrivial H^2 names the one torsor point whose difference is C*-trivial."""
    ctx = make_ctx()
    for cls in subgroups_up_to_conjugacy(ctx.ambient):
        psi0 = solve_trivialization(ctx.omega, cls.rep, ctx.modulus)
        h2 = cohomology_cstar(cls.rep.as_group, 2)
        if psi0 is not None and h2.order > 1:
            break
    H = cls.rep
    gens = [b.embed(ctx.modulus) for b in h2.generators]
    box = list(itertools.product(*(range(f) for f in h2.invariant_factors)))

    def torsor(t):
        acc = psi0
        for c, gen in zip(t, gens):
            acc = acc + gen.scale(c)
        return acc

    norm = cls.normalizer
    for i in small_generating_set(norm.as_group):
        for t in box:
            moved = transport_pair(ctx, PairHPsi(H, torsor(t)), norm.elements[i])
            diff = moved.psi - psi0
            got = h2.lookup(diff)
            for cand in box:
                trivial = is_trivial_over_cstar(diff - (torsor(cand) - psi0))[0]
                assert trivial == (cand == got)


def _reference_orbits(ctx, cls, psi0, h2, gens):
    """The normalizer fold written out point by point, one transport_pair and
    one C* lookup per (normalizer generator, torsor point).  Returns its orbits
    and whether some generator n moves the H^2 generators (L_n != I)."""
    H = cls.rep
    factors = h2.invariant_factors
    box = list(itertools.product(*(range(f) for f in factors)))
    units = [tuple(int(i == j) for j in range(len(gens))) for i in range(len(gens))]
    norm = cls.normalizer
    maps, moves = [], False
    for i in small_generating_set(norm.as_group):
        image = {}
        for t in box:
            psi = psi0
            for c, gen in zip(t, gens):
                psi = psi + gen.scale(c)
            moved = transport_pair(ctx, PairHPsi(H, psi), norm.elements[i])
            image[t] = h2.lookup(moved.psi - psi0)
        shift = image[box[0]]
        for e in units:
            moves |= tuple((a - b) % f for a, b, f in zip(image[e], shift, factors)) != e
        maps.append(image)
    orbits = set()
    for start in box:
        orbit, frontier = {start}, [start]
        while frontier:
            t = frontier.pop()
            for image in maps:
                if image[t] not in orbit:
                    orbit.add(image[t])
                    frontier.append(image[t])
        orbits.add(frozenset(orbit))
    return orbits, moves


# name -> (classes with a torsor of 2 or more points, does some normalizer
# generator move the H^2 generators).  S3 moves them on its Z/3 classes
# (t -> -t); the Klein square is abelian, so conjugation fixes every psi there
# and only the shift c_n could act; D4 (classes of order <= 16) has order-8
# classes with H^2 = (Z/2)^3 on which conjugation permutes the generators.
FOLD_COVERAGE = {
    "S3-k0": (6, True),
    "S3-k1": (0, False),
    "S3-k2": (1, False),
    "S3-k3": (2, True),
    "S3-k4": (1, False),
    "S3-k5": (0, False),
    "Z2xZ2-000": (51, False),
    "Z2xZ2-001": (6, False),
    "Z2xZ2-010": (6, False),
    "Z2xZ2-011": (8, False),
    "Z2xZ2-100": (6, False),
    "Z2xZ2-101": (8, False),
    "Z2xZ2-110": (8, False),
    "Z2xZ2-111": (6, False),
    "D4-k0": (173, True),
    "D4-k1": (57, True),
}


@pytest.mark.parametrize("name", list(FOLD_COVERAGE))
def test_fold_equals_pointwise_reference(name):
    """_fold_by_normalizer's affine action gives the orbits of the per-point
    loop on every class whose torsor has 2 or more points."""
    group, twist = name.split("-")
    if group == "Z2xZ2":
        ctx = klein_context(tuple(int(bit) for bit in twist))
    else:
        ctx = double_context(group_from_spec(group), int(twist[1:]))
    max_order = 16 if group == "D4" else ctx.ambient.order
    covered, moves = 0, False
    for cls in subgroups_up_to_conjugacy(ctx.ambient):
        H = cls.rep
        if H.order > max_order:
            break  # the census is sorted by order
        psi0 = solve_trivialization(ctx.omega, H, ctx.modulus)
        h2 = cohomology_cstar(H.as_group, 2)
        if psi0 is None or h2.order == 1:
            continue
        gens = [b.embed(ctx.modulus) for b in h2.generators]
        want, moved = _reference_orbits(ctx, cls, psi0, h2, gens)
        got = modcat._fold_by_normalizer(ctx, cls, psi0, h2, gens)
        assert sorted(map(len, got)) == sorted(map(len, want))
        assert {frozenset(orbit) for orbit in got} == want, H.elements
        covered += 1
        moves |= moved
    assert (covered, moves) == FOLD_COVERAGE[name]


# Per Klein cocycle, what one classify_pairs call's fold does: (C* lookups,
# read-backs of the H^2 generators, transports of psi0, transports whose
# shift psi0^n - theta_n - psi0 is nonzero).  The square is abelian, so every
# n centralizes H and fixes each generator: no row of L_n is looked up, and
# every lookup past the read-back is a nonzero shift.  Untwisted, no shift is
# nonzero either.  One pass over the eight makes 266 lookups; one lookup per
# shift and per relabelled generator would make 1,096.
FOLD_LOOKUPS = {
    (0, 0, 0): (86, 86, 204, 0),
    (0, 0, 1): (18, 6, 24, 12),
    (0, 1, 0): (22, 6, 24, 16),
    (0, 1, 1): (24, 10, 32, 14),
    (1, 0, 0): (14, 6, 24, 8),
    (1, 0, 1): (34, 10, 32, 24),
    (1, 1, 0): (38, 10, 32, 28),
    (1, 1, 1): (30, 6, 24, 24),
}


@pytest.mark.parametrize(
    "bits", list(FOLD_LOOKUPS), ids=["".join(map(str, b)) for b in FOLD_LOOKUPS]
)
def test_fold_looks_up_only_what_it_cannot_know(monkeypatch, bits):
    """The fold skips a C* lookup whose answer is known on the nose: a zero
    shift and the row of a generator conjugation leaves unchanged.  Every
    transport still runs; the orbits are test_fold_equals_pointwise_reference's."""
    lookups, transports, shifted = [], [], []
    real_cstar, real_transport = modcat.cohomology_cstar, modcat.transport_pair

    def cstar(G, n):
        h = real_cstar(G, n)

        def lookup(f):
            lookups.append(f)
            return h.lookup(f)

        return dataclasses.replace(h, lookup=lookup)

    def transport(ctx, pair, n):
        moved = real_transport(ctx, pair, n)
        transports.append(n)
        if not np.array_equal(moved.psi.values, pair.psi.values):
            shifted.append(n)
        return moved

    monkeypatch.setattr(modcat, "cohomology_cstar", cstar)
    monkeypatch.setattr(modcat, "transport_pair", transport)
    report = classify_pairs(klein_context(bits))
    read_backs = sum(
        len(e.h2_factors) for e in report.entries if math.prod(e.h2_factors) > 1
    )
    got = (len(lookups), read_backs, len(transports), len(shifted))
    assert got == FOLD_LOOKUPS[bits]
    assert len(lookups) == read_backs + len(shifted)
    assert (len(shifted) == 0) == (bits == (0, 0, 0))


# Per-cocycle (pairs, fiber functors, sum of folded) on the Z2xZ2 double, keyed
# by the coordinates of omega along cohomology_cstar(Z2xZ2, 3).generators.  The
# sum of folded counts the C*-classes of trivializations on the admissible
# classes, sum |H^2(H, C*)|; the square is abelian, every orbit is one point,
# so it equals the pair count.  Untwisted every H <= (Z/2)^4 is admissible:
# 270 = 1 + 15 + 35*2 + 15*8 + 64.  Twisted, 22 = 1 + 9 + 6*2 (9 subgroups of
# order 2 and 6 of order 4 carry pairs) and 30 = 1 + 7 + 7*2 + 8 (7, 7 and one
# of order 8 with H^2 = (Z/2)^3).
KLEIN_TABLE = {
    (0, 0, 0): (270, 64, 270),
    (0, 0, 1): (22, 4, 22),
    (0, 1, 0): (22, 4, 22),
    (1, 0, 0): (22, 4, 22),
    (1, 1, 1): (22, 4, 22),
    (0, 1, 1): (30, 0, 30),
    (1, 0, 1): (30, 0, 30),
    (1, 1, 0): (30, 0, 30),
}


@pytest.mark.parametrize(
    "bits", list(KLEIN_TABLE), ids=["".join(map(str, b)) for b in KLEIN_TABLE]
)
def test_klein_cocycles_pinned(bits):
    ctx = klein_context(bits)
    report = classify_pairs(ctx)
    folded = sum(pe.folded for e in report.entries for pe in e.pairs)
    got = (report.total_pairs, len(fiber_functors(ctx, report)), folded)
    assert got == KLEIN_TABLE[bits]


def test_classification_ignores_coboundary_shift_of_omega():
    S3 = group_from_spec("S3")
    omega = cohomology_cstar(S3, 3).generators[0]
    rng = np.random.default_rng(3)
    chi = np.array(rng.integers(0, 6, size=(6, 6)))
    chi[0, :] = 0
    chi[:, 0] = 0
    shifted = omega + coboundary(Cochain(S3, 2, 6, chi))
    rep = classify_pairs(double_context(S3, omega=shifted))
    assert [i + 1 for i in rep.admissible_indices] == ADMISSIBLE[1]
    assert rep.total_pairs == PAIR_COUNTS[1]
    base = report_s3(1)
    for a, b in zip(rep.entries, base.entries):
        assert [p.breakdown.total for p in a.pairs] == [
            p.breakdown.total for p in b.pairs
        ]


# ---------------------------------------------------------------------------
# identities on small doubles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "Z2xZ2", "S3"])
def test_untwisted_diagonal_rank_counts_centralizer_irreps(name):
    G = group_from_spec(name)
    ctx = double_context(G, 0)
    bd = module_rank_double(ctx, diagonal_pair(ctx))
    want = sum(
        len(conjugacy_classes(centralizer(G, cls[0]).as_group))
        for cls in conjugacy_classes(G)
    )
    assert bd.total == want


def test_small_double_pair_counts():
    Z2 = group_from_spec("Z2")
    assert classify_pairs(double_context(Z2, 0)).total_pairs == 6
    assert classify_pairs(double_context(Z2, 1)).total_pairs == 2
    triv = FiniteGroup(np.zeros((1, 1), dtype=np.int64))
    rep = classify_pairs(double_context(triv, 0))
    assert rep.total_pairs == 1
    assert rep.entries[0].pairs[0].breakdown.total == 1


def test_double_context_reduces_the_twist():
    seven, one = double_context(group_from_spec("S3"), 7), ctx_s3(1)
    assert seven.omega_k == 1
    assert np.array_equal(seven.omega.values, one.omega.values)
    assert np.array_equal(seven.base_omega.values, one.base_omega.values)
    assert double_context(group_from_spec("S3"), -1).omega_k == 5
    triv = FiniteGroup(np.zeros((1, 1), dtype=np.int64))
    assert double_context(triv, 5).omega_k == 0


def test_exact_factorization_gives_fiber_functor():
    # ambient S3, trivial cocycle: rotations and a flip factor the group
    S3 = group_from_spec("S3")
    ctx = ambient_context(S3, Cochain.zero(S3, 3, 6))
    rot = make_pair(ctx, Subgroup(S3, [0, 3, 4]))
    flip = make_pair(ctx, Subgroup(S3, [0, 1]))
    assert is_fiber_functor(ctx, rot, flip)
    assert bimodule_rank(ctx, rot, flip).total == 1
    # rotations against themselves: two double cosets, no fiber functor
    assert not is_fiber_functor(ctx, rot, rot)


def test_is_fiber_functor_checks_the_ambient():
    """Both subgroups must live in the context's ambient group."""
    ctx = ctx_s3(0)
    diag = diagonal_pair(ctx)
    flip = Subgroup(group_from_spec("S3"), [0, 1])  # in the base, not the square
    stray = PairHPsi(flip, Cochain.zero(flip.as_group, 2, ctx.modulus))
    with pytest.raises(WrongAmbient, match="ambient"):
        is_fiber_functor(ctx, stray, diag)
    with pytest.raises(WrongAmbient, match="ambient"):
        is_fiber_functor(ctx, diag, stray)


@pytest.mark.parametrize("name", ["S3", "Z2xZ2", "D4"])
def test_single_double_coset_by_product_formula(name):
    """B\\G/C is one double coset exactly when |B|·|C| = |G|·|B ∩ C|, on
    every census class C of the square, for B the diagonal and for B each
    class representative of order <= 4."""
    sq = direct_square_with_diagonal(group_from_spec(name))
    G = sq.group
    census = subgroups_up_to_conjugacy(G)
    lefts = [sq.diagonal] + [c.rep for c in census if c.rep.order <= 4]
    singles = 0
    for B in lefts:
        for cls in census:
            C = cls.rep
            meet = sum(x in C for x in B.elements)
            single = len(double_cosets(G, B, C)) == 1
            assert (B.order * C.order == G.order * meet) == single
            singles += single
    assert singles > 0


# ---------------------------------------------------------------------------
# work shared across census classes within one classify_pairs call
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make_ctx",
    [
        lambda: ctx_s3(0),
        lambda: ctx_s3(1),
        lambda: ctx_s3(3),
        lambda: klein_context((1, 0, 0)),
        lambda: klein_context((1, 0, 1)),
    ],
    ids=["S3-k0", "S3-k1", "S3-k3", "Z2xZ2-100", "Z2xZ2-101"],
)
def test_classify_pairs_equals_classify_class_loop(make_ctx):
    """Sharing per-table work across classes changes no answer."""
    ctx = make_ctx()
    report = classify_pairs(ctx)
    alone = [classify_class(ctx, cls, ci) for ci, cls in enumerate(report.census)]
    alone = [e for e in alone if e is not None]
    assert len(report.entries) == len(alone)
    for a, b in zip(report.entries, alone):
        assert (a.index, a.subgroup.elements, a.h2_factors) == (
            b.index,
            b.subgroup.elements,
            b.h2_factors,
        )
        assert [(p.coords, p.folded, p.breakdown.total) for p in a.pairs] == [
            (p.coords, p.folded, p.breakdown.total) for p in b.pairs
        ]
        for p, q in zip(a.pairs, b.pairs):
            assert p.pair.psi.same_values(q.pair.psi)
            assert [r.count for r in p.breakdown.rows] == [
                r.count for r in q.breakdown.rows
            ]


def _work_counter(monkeypatch, modulus):
    """measure(call) -> (slice-system matrices built, slice-system
    factorizations, cohomology_cstar calls) made by classification code
    during call().  Only the degree-2 systems at the session modulus count,
    the ones solve_trivialization builds, not those inside cohomology_cstar."""
    built, factored, h2_calls = [], [], []
    real_system = cohomology._SliceSystem

    class CountedSystem(real_system):
        @property
        def A(self):
            A = real_system.A.fget(self)
            if (self.n, self.M) == (2, modulus):
                built.append(A)  # each reader reads A once
            return A

    real_smith = cohomology.smith_form_mod
    real_cstar = modcat.cohomology_cstar

    def smith(A, M, *args, **kwargs):
        factored.append(A)
        return real_smith(A, M, *args, **kwargs)

    def cstar(G, n):
        h2_calls.append(n)
        return real_cstar(G, n)

    monkeypatch.setattr(cohomology, "_SliceSystem", CountedSystem)
    monkeypatch.setattr(cohomology, "smith_form_mod", smith)
    monkeypatch.setattr(modcat, "cohomology_cstar", cstar)

    def measure(call):
        for log in (built, factored, h2_calls):
            log.clear()
        call()
        slice_factored = sum(any(A is B for B in built) for A in factored)
        return len(built), slice_factored, len(h2_calls)

    return measure


def test_classify_pairs_builds_each_table_once(monkeypatch):
    """Klein square: 67 census classes, one local table per order (1, 2, 4,
    8, 16).  Untwisted, omega|_H is zero on every class, so psi0 = 0 needs no
    slice system: none is built, and each table gets one H^2(H, C*).
    Twisted by (1,0,0), every table of order > 1 carries a class with a
    nonzero restriction, but the cyclic invariant refuses all of them except
    on the order-4 table, which builds one system and factors it once; only
    the tables of orders 1, 2 and 4 carry admissible classes and need H^2.
    Nothing survives a call, and classify_class on its own pays for its class
    alone (class 65 is refused by the invariant, so it builds nothing)."""
    measure = _work_counter(monkeypatch, klein_context((0, 0, 0)).modulus)
    for bits, whole, last in (
        ((0, 0, 0), (0, 0, 5), (0, 0, 1)),
        ((1, 0, 0), (1, 1, 3), (0, 0, 0)),
    ):
        ctx = klein_context(bits)
        census = subgroups_up_to_conjugacy(ctx.ambient)
        assert len(census) == 67
        tables = {(c.rep.order, c.rep.as_group.mul.tobytes()) for c in census}
        assert len(tables) == 5
        undecided = {
            (c.rep.order, c.rep.as_group.mul.tobytes())
            for c in census
            for fH in [restrict(ctx.omega, c.rep)]
            if not fH.is_zero() and not cohomology._cyclic_obstruction(fH)
        }
        assert len(undecided) == whole[0]
        for _ in range(2):  # a second call does the same work again
            assert measure(lambda: classify_pairs(ctx)) == whole
        for _ in range(2):
            assert measure(lambda: classify_class(ctx, census[-2], 65)) == last


def test_shared_work_closes_when_classify_pairs_raises(monkeypatch):
    """A classify_pairs call that raises mid-census leaves no store open, and
    the next call does the full work again."""
    ctx = klein_context((1, 0, 0))
    measure = _work_counter(monkeypatch, ctx.modulus)
    real_fold = modcat._fold_by_normalizer
    calls = []

    def failing_fold(*args):
        calls.append(args)
        raise InvariantViolated("forged fold failure")

    monkeypatch.setattr(modcat, "_fold_by_normalizer", failing_fold)
    with pytest.raises(InvariantViolated, match="forged fold failure"):
        classify_pairs(ctx)
    assert len(calls) == 1
    assert cohomology._SHARED.get() is None
    monkeypatch.setattr(modcat, "_fold_by_normalizer", real_fold)
    assert measure(lambda: classify_pairs(ctx)) == (1, 1, 3)
    assert cohomology._SHARED.get() is None


def test_standalone_trivializations_share_nothing(monkeypatch):
    """Outside classify_pairs, two solve_trivialization calls on one subgroup
    each build and factor their own slice system, and return equal psi0."""
    ctx = klein_context((1, 0, 0))
    measure = _work_counter(monkeypatch, ctx.modulus)
    H = next(
        c.rep
        for c in subgroups_up_to_conjugacy(ctx.ambient)
        for fH in [restrict(ctx.omega, c.rep)]
        if not fH.is_zero() and not cohomology._cyclic_obstruction(fH)
    )
    got = []

    def solve():
        got.append(solve_trivialization(ctx.omega, H, ctx.modulus))

    assert measure(solve) == (1, 1, 0)
    assert measure(solve) == (1, 1, 0)
    assert got[0] is not None and got[0].same_values(got[1])


@pytest.mark.parametrize(
    "make_ctx",
    [lambda bits=bits: klein_context(bits) for bits in itertools.product((0, 1), repeat=3)]
    + [lambda k=k: ctx_s3(k) for k in range(6)],
    ids=[f"Z2xZ2-{a}{b}{c}" for a, b, c in itertools.product((0, 1), repeat=3)]
    + [f"S3-k{k}" for k in range(6)],
)
def test_every_pair_psi_lives_on_its_subgroup(make_ctx):
    """Classes with one table share one slice system, and with it one group
    object for the solve; psi0, and so every pair's psi, is still returned on
    the pair's own subgroup group."""
    report = classify_pairs(make_ctx())
    for entry in report.entries:
        for pe in entry.pairs:
            assert pe.pair.psi.group is pe.pair.subgroup.as_group, (
                entry.index,
                pe.coords,
            )


# ---------------------------------------------------------------------------
# work shared by the pairs on one census class
# ---------------------------------------------------------------------------


def _shared_path_report(name):
    """The report the shared path gives: classify_pairs on S3 and Klein, and
    on the D4 square classify_class on each class of order <= 16 (the census
    is sorted by order), gathered into a report of those classes."""
    group, twist = name.split("-")
    if group == "Z2xZ2":
        return classify_pairs(klein_context(tuple(int(bit) for bit in twist)))
    ctx = double_context(group_from_spec(group), int(twist[1:]))
    if group == "S3":
        return report_s3(ctx.omega_k)
    census = tuple(subgroups_up_to_conjugacy(ctx.ambient))
    entries = []
    for ci, cls in enumerate(census):
        if cls.rep.order > 16:
            break
        entry = classify_class(ctx, cls, ci)
        if entry is not None:
            entries.append(entry)
    return ClassificationReport(ctx, census, tuple(entries))


SHARED_CASES = (
    [f"S3-k{k}" for k in range(6)]
    + ["Z2xZ2-" + "".join(map(str, bits)) for bits in KLEIN_TABLE]
    + ["D4-k0", "D4-k1"]
)


@pytest.mark.parametrize("name", SHARED_CASES)
def test_pairs_on_a_class_share_only_psi_independent_work(name):
    """Every breakdown equals module_rank_double of its pair called alone,
    row by row, and fiber_functors keeps exactly the pairs a standalone
    is_fiber_functor accepts."""
    report = _shared_path_report(name)
    ctx = report.context
    accepted = []
    for entry in report.entries:
        for pe in entry.pairs:
            alone = module_rank_double(ctx, pe.pair)
            assert len(alone.rows) == len(pe.breakdown.rows)
            for got, want in zip(pe.breakdown.rows, alone.rows):
                assert got.representative == want.representative
                assert got.stabilizer.elements == want.stabilizer.elements
                assert got.cocycle.modulus == want.cocycle.modulus
                assert np.array_equal(got.cocycle.values, want.cocycle.values)
                assert got.count == want.count
            if is_fiber_functor(ctx, diagonal_pair(ctx), pe.pair):
                accepted.append(pe)
    assert [id(pe) for pe in fiber_functors(ctx, report)] == [id(pe) for pe in accepted]


@pytest.mark.parametrize(
    "make_ctx",
    [lambda: ctx_s3(0), lambda: klein_context((0, 0, 0))],
    ids=["S3-k0", "Z2xZ2-000"],
)
def test_class_structure_is_built_once_per_orbit_row(monkeypatch, make_ctx):
    """The pairs on a class share one _OrbitPlan, so each row's stabilizer
    is one group, and that group builds its conjugacy classes once: the
    builds number the orbit rows summed over classes, not over pairs."""
    builds = []
    real = groups.conjugacy_classes

    def counted(G):
        builds.append(G)
        return real(G)

    monkeypatch.setattr(groups, "conjugacy_classes", counted)
    report = classify_pairs(make_ctx())
    per_class = sum(len(e.pairs[0].breakdown.rows) for e in report.entries)
    per_pair = sum(len(pe.breakdown.rows) for e in report.entries for pe in e.pairs)
    assert len(builds) == per_class < per_pair
    for entry in report.entries:
        first = entry.pairs[0].breakdown.rows
        for pe in entry.pairs:
            for row, shared in zip(pe.breakdown.rows, first):
                assert row.cocycle.group is shared.cocycle.group


@pytest.mark.parametrize("name", ["S3", "D4"])
def test_group_keeps_read_only_class_structure(name):
    """FiniteGroup.commute and .classes equal a fresh computation, are
    built once, and cannot be written through."""
    G = group_from_spec(name)
    assert np.array_equal(G.commute, G.mul == G.mul.T)
    assert [list(c) for c in G.classes] == conjugacy_classes(G)
    assert G.commute is G.commute and G.classes is G.classes
    with pytest.raises(ValueError):
        G.commute[0, 1] = not G.commute[0, 1]
    with pytest.raises(TypeError):
        G.classes[0] = (0,)
    with pytest.raises(TypeError):
        G.classes[-1][0] = 0


def test_untwisted_d4_pinned(monkeypatch):
    """The largest classification the zero shortcut serves: 214 census
    classes, omega|_H = 0 on each, no slice system built.  fiber_functors
    builds B ∩ C once per class that spans one double coset with the
    diagonal, so one class structure each (77, against 660 for one per
    pair), and a second call on the same report pays the same again."""
    ctx = double_context(group_from_spec("D4"), 0)
    report = classify_pairs(ctx)
    assert report.census_size == 214
    builds = []
    real = groups.conjugacy_classes

    def counted(G):
        builds.append(G)
        return real(G)

    monkeypatch.setattr(groups, "conjugacy_classes", counted)
    diag = ctx.square.diagonal
    spanning = [
        e for e in report.entries if len(double_cosets(ctx.ambient, diag, e.subgroup)) == 1
    ]
    assert (len(spanning), sum(len(e.pairs) for e in spanning)) == (77, 660)
    for _ in range(2):
        builds.clear()
        assert (report.total_pairs, len(fiber_functors(ctx, report))) == (1148, 192)
        assert len(builds) == len(spanning)


# ---------------------------------------------------------------------------
# guard rails
# ---------------------------------------------------------------------------


def test_make_pair_validation():
    ctx = ctx_s3(1)
    GG = ctx.ambient
    flip_left = Subgroup(GG, [0, 6])
    with pytest.raises(NotTrivializing):
        make_pair(ctx, flip_left)  # inadmissible at k=1
    ctx0 = ctx_s3(0)
    klein = Subgroup(GG, [0, 1, 6, 7])
    vals = np.zeros((4, 4), dtype=np.int64)
    vals[1, 2] = 1  # d of this is nonzero, so it trivializes nothing
    with pytest.raises(NotTrivializing):
        make_pair(ctx0, klein, Cochain(klein.as_group, 2, ctx0.modulus, vals))
    with pytest.raises(NotTrivializing):
        zero6 = Cochain(klein.as_group, 2, 6, np.zeros((4, 4), dtype=np.int64))
        make_pair(ctx0, klein, zero6)  # wrong modulus
    S3 = group_from_spec("S3")
    with pytest.raises(WrongAmbient):
        make_pair(ctx0, Subgroup(S3, [0, 1]))


def test_oracle_size_bound():
    ctx = ctx_s3(0)
    whole = report_s3(0).entries[-1].pairs[0].pair  # the full 36-element class
    with pytest.raises(SizeBound):
        oracle_simple_bimodules(ctx, whole, whole, 0)  # stabilizer has order 36
