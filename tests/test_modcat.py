"""Classification engine checks against frozen rank tables for the S3 square.

The frozen constants below index classes by their position in the subgroup
census of S3 x S3 (sorted by order, then element tuple).  Every number was
computed independently of _psi_general and _psi_double: double-coset counts
come straight from the group machinery, ranks are cross-checked between the
two local-cocycle recipes and the rewrite-rule oracle, and small-group
identities pin the untwisted values.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import math
from functools import cached_property, lru_cache

import numpy as np
import pytest

from tdmc import cohomology, groups, modcat
from tdmc.cohomology import (
    Cochain,
    build_tilde_omega,
    coboundary,
    cohomology_cstar,
    is_trivial_over_cstar,
    restrict,
    small_generating_set,
    solve_trivialization,
)
from tdmc.errors import (
    FormulaNotClosed,
    InvariantViolated,
    NotACocycle,
    NotTrivializing,
    SizeBound,
    WrongAmbient,
)
from tdmc.groups import (
    FiniteGroup,
    Subgroup,
    _same_group,
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
    pair_from_coords,
    transport_pair,
)
from tdmc.twisted_algebra import projective_irrep_count
from tdmc.verification import census_labels

from oracles import (
    ambient_context,
    bimodule_rank_per_coset,
    centralizer,
    conjugacy_classes,
    fiber_functors_per_pair,
    klein_context,
    oracle_simple_bimodules,
    orbit_breakdown_per_pair,
    perm_closure,
    stored_context,
    torsor_sum,
    untwisted_abelian_double_counts,
)

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


def count_commute_builds(monkeypatch) -> list:
    """From now on, each group that builds its commute table, which
    the regular-class count reads, is appended to the list returned."""
    builds = []
    real = FiniteGroup.commute.func

    def counted(G):
        builds.append(G)
        return real(G)

    prop = cached_property(counted)
    prop.__set_name__(FiniteGroup, "commute")
    monkeypatch.setattr(FiniteGroup, "commute", prop)
    return builds


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
    stored = stored_context(ctx)
    diag = diagonal_pair(ctx)
    for entry in report_s3(k).entries:
        for pe in entry.pairs:
            for row in bimodule_rank(ctx, diag, pe.pair).rows:
                got = oracle_simple_bimodules(stored, diag, pe.pair, row.representative)
                assert got == row.count, (
                    f"census class {entry.index + 1}, coords {pe.coords}, "
                    f"coset of {row.representative}"
                )


def test_rewrite_oracle_agrees_on_every_q8_bimodule():
    """Every (pair, pair) of the Q8 double at k=1, 17 x 17, row by row: 2,224
    double cosets, each stabilizer small enough for the oracle."""
    ctx = double_context(group_from_spec("Q8"), 1)
    stored = stored_context(ctx)
    pairs = [(e.index, pe) for e in classify_pairs(ctx).entries for pe in e.pairs]
    assert len(pairs) == 17
    rows = 0
    for (i, left), (j, right) in itertools.product(pairs, repeat=2):
        for row in bimodule_rank(ctx, left.pair, right.pair).rows:
            got = oracle_simple_bimodules(
                stored, left.pair, right.pair, row.representative
            )
            assert got == row.count, (
                f"classes {i + 1} {left.coords} and {j + 1} {right.coords}, "
                f"coset of {row.representative}"
            )
            rows += 1
    assert rows == 2224


def _same_rows(got, want, where):
    """Two rank breakdowns agree row by row: representative, stabilizer,
    local cocycle (group table, modulus and values) and count; the batched
    rows carry the cocycle flag."""
    assert len(got.rows) == len(want.rows), where
    for a, b in zip(got.rows, want.rows):
        assert a.representative == b.representative, where
        assert a.stabilizer.elements == b.stabilizer.elements, where
        assert _same_group(a.cocycle.group, b.cocycle.group), where
        assert (a.cocycle.degree, a.cocycle.modulus) == (2, b.cocycle.modulus), where
        assert np.array_equal(a.cocycle.values, b.cocycle.values), where
        assert a.count == b.count, where
        assert a.cocycle._cocycle, where


@pytest.mark.parametrize("k", range(6))
def test_batched_rank_rows_equal_the_per_coset_loop_s3(k):
    """Every (pair, pair) of the S3 double at each twist: the rows computed
    one batch per stabilizer equal the coset-by-coset reference's."""
    ctx = ctx_s3(k)
    stored = stored_context(ctx)
    pairs = [pe.pair for e in report_s3(k).entries for pe in e.pairs]
    for i, j in itertools.product(range(len(pairs)), repeat=2):
        got = bimodule_rank(ctx, pairs[i], pairs[j])
        _same_rows(got, bimodule_rank_per_coset(stored, pairs[i], pairs[j]), (k, i, j))


@pytest.mark.parametrize("bits", list(itertools.product((0, 1), repeat=3)))
def test_batched_rank_rows_equal_the_per_coset_loop_klein(bits):
    """(diagonal, pair) for every pair of the Z2xZ2 double at each of its 8
    cocycles."""
    ctx = klein_context(bits)
    stored = stored_context(ctx)
    diag = diagonal_pair(ctx)
    for entry in classify_pairs(ctx).entries:
        for pe in entry.pairs:
            got = bimodule_rank(ctx, diag, pe.pair)
            want = bimodule_rank_per_coset(stored, diag, pe.pair)
            _same_rows(got, want, (entry.index, pe.coords))


@pytest.mark.parametrize("k", [0, 1])
def test_batched_rank_rows_equal_the_per_coset_loop_d4(k):
    """(diagonal, pair) and (pair, pair) for every pair of the D4 double on
    a class of order at most 16, untwisted and at k = 1."""
    ctx = double_context(group_from_spec("D4"), k)
    stored = stored_context(ctx)
    diag = diagonal_pair(ctx)
    for entry in classify_pairs(ctx).entries:
        if entry.subgroup.order > 16:
            continue
        for pe in entry.pairs:
            for left in (diag, pe.pair):
                got = bimodule_rank(ctx, left, pe.pair)
                want = bimodule_rank_per_coset(stored, left, pe.pair)
                _same_rows(got, want, (entry.index, pe.coords, left is diag))


def test_rank_names_the_first_representative_whose_cochain_fails():
    """omega corrupted (so no longer a cocycle) at omega(a, b, g) for one or
    two coset representatives g.  On census class 10 of the S3 square (order
    6) the 4 cosets of (pair, pair) alternate between two stabilizers, so
    coset 2 is batched with coset 0 and coset 1 with coset 3.  Each
    corruption fails its own coset; with both, coset 1 comes first in coset
    order and is named, as the coset-by-coset loop names it."""
    ctx = ctx_s3(0)
    entry = report_s3(0).entries[9]
    assert entry.index == 9 and entry.subgroup.order == 6
    pair = entry.pairs[0].pair
    rows = bimodule_rank(ctx, pair, pair).rows
    stabs = [row.stabilizer.elements for row in rows]
    assert len(rows) == 4 and stabs[0] == stabs[2] != stabs[1] == stabs[3]
    g1, g2 = rows[1].representative, rows[2].representative

    def corrupted(*reps):
        vals = np.array(ctx.omega.values)
        for g in reps:
            vals[1:, 1:, g] += 1
        omega = Cochain(ctx.ambient, 3, ctx.modulus, vals)
        return modcat.AmbientContext(ambient=ctx.ambient, omega=omega, modulus=ctx.modulus)

    for reps, named in (((g1,), g1), ((g2,), g2), ((g2, g1), g1)):
        bad = corrupted(*reps)
        want = f"two-sided local cochain at representative {named} is not a cocycle"
        for rank in (bimodule_rank, bimodule_rank_per_coset):
            with pytest.raises(FormulaNotClosed) as raised:
                rank(bad, pair, pair)
            assert str(raised.value) == want


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
        psi0 = solve_trivialization(ctx.cocycle, cls.rep, ctx.modulus)
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
    loop on every class whose torsor has 2 or more points.  The orbits are
    read back from (box, label): box lists the points in itertools.product
    order, and each point is labelled with the index of its orbit's least
    point."""
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
        psi0 = solve_trivialization(ctx.cocycle, H, ctx.modulus)
        h2 = cohomology_cstar(H.as_group, 2)
        if psi0 is None or h2.order == 1:
            continue
        gens = [b.embed(ctx.modulus) for b in h2.generators]
        want, moved = _reference_orbits(ctx, cls, psi0, h2, gens)
        box, label = modcat._fold_by_normalizer(ctx, cls, psi0, h2, gens)
        points = [tuple(t) for t in box.tolist()]
        assert points == list(itertools.product(*map(range, h2.invariant_factors)))
        by_label = {}
        for t, least in zip(points, label.tolist()):
            by_label.setdefault(least, []).append(t)
        assert all(points[least] == orbit[0] for least, orbit in by_label.items())
        got = list(by_label.values())
        assert sorted(map(len, got)) == sorted(map(len, want))
        assert {frozenset(orbit) for orbit in got} == want, H.elements
        covered += 1
        moves |= moved
    assert (covered, moves) == FOLD_COVERAGE[name]


# Per Klein cocycle, what one classify_pairs call's fold does: (C* lookups,
# read-backs of the H^2 generators, transports of psi0, transports whose
# shift psi0^n - theta_n - psi0 is nonzero).  The read-back runs once per
# table in a call, so classes whose subgroups share a table read back once.
# The square is abelian, so every n centralizes H and fixes each generator:
# no row of L_n is looked up, and every lookup past the read-backs is a
# nonzero shift.  Untwisted, no shift is nonzero either.  One pass over the
# eight makes 152 lookups; one read-back per class would make 266, and one
# lookup per shift and per relabelled generator 1,096.
FOLD_LOOKUPS = {
    (0, 0, 0): (10, 10, 204, 0),
    (0, 0, 1): (13, 1, 24, 12),
    (0, 1, 0): (17, 1, 24, 16),
    (0, 1, 1): (18, 4, 32, 14),
    (1, 0, 0): (9, 1, 24, 8),
    (1, 0, 1): (28, 4, 32, 24),
    (1, 1, 0): (32, 4, 32, 28),
    (1, 1, 1): (25, 1, 24, 24),
}


@pytest.mark.parametrize(
    "bits", list(FOLD_LOOKUPS), ids=["".join(map(str, b)) for b in FOLD_LOOKUPS]
)
def test_fold_looks_up_only_what_it_cannot_know(monkeypatch, bits):
    """The fold skips a C* lookup whose answer is known on the nose: a zero
    shift and the row of a generator conjugation leaves unchanged, and reads
    each table's generators back once per call.  Every transport still runs;
    the orbits are test_fold_equals_pointwise_reference's."""
    lookups, transports, shifted = [], [], []
    real_cstar, real_transport = modcat.cohomology_cstar, modcat.transport_pair

    def cstar(G, n):
        h = real_cstar(G, n)

        def lookup(f):
            lookups.append(f)
            return h.lookup(f)

        return dataclasses.replace(h, lookup=lookup)

    def transport(ctx, pair, n, **given):
        moved = real_transport(ctx, pair, n, **given)
        transports.append(n)
        if not np.array_equal(moved.psi.values, pair.psi.values):
            shifted.append(n)
        return moved

    monkeypatch.setattr(modcat, "cohomology_cstar", cstar)
    monkeypatch.setattr(modcat, "transport_pair", transport)
    report = classify_pairs(klein_context(bits))
    tables = {
        e.subgroup.as_group.mul.tobytes(): len(e.h2_factors)
        for e in report.entries
        if math.prod(e.h2_factors) > 1
    }
    read_backs = sum(tables.values())
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


def test_untwisted_context_computes_no_h3(monkeypatch):
    """On every builtin whose square fits the order bound, k = 0 gives the
    context of the first H^3 generator scaled by 0, without computing H^3;
    k = 1 computes it once."""
    calls = []

    def counted(*args):
        calls.append(args)
        return cohomology_cstar(*args)

    monkeypatch.setattr("tdmc.modcat.cohomology_cstar", counted)
    bound = groups.max_group_order()
    names = [n for n in groups.builtin_names() if group_from_spec(n).order**2 <= bound]
    assert len(names) == 7
    for name in names:
        base = group_from_spec(name)
        zero = cohomology_cstar(base, 3).generators[0].scale(0)
        want = double_context(base, omega=zero)
        del calls[:]
        got = double_context(base, 0)
        assert calls == [], name
        assert got.omega_k == 0, name
        for a, b in ((got.omega, want.omega), (got.base_omega, want.base_omega)):
            assert a.modulus == b.modulus, name
            assert np.array_equal(a.values, b.values), name
        assert got.modulus == want.modulus, name
        double_context(base, 1)
        assert len(calls) == 1, name


def test_zero_base_cocycle_gives_the_zero_difference_cocycle():
    """On every builtin whose square fits the order bound, a base cocycle
    that is zero on the nose, given by k = 0 or explicitly, gives the zero
    cochain on the square: its values, modulus and cocycle flag equal what
    build_tilde_omega and embed compute for it."""
    bound = groups.max_group_order()
    names = [n for n in groups.builtin_names() if group_from_spec(n).order**2 <= bound]
    assert len(names) == 7
    for name in names:
        base = group_from_spec(name)
        zero = cohomology_cstar(base, 3).generators[0].scale(0)
        square = direct_square_with_diagonal(base)
        want = build_tilde_omega(zero, square).embed(square.group.order**2)
        for ctx in (double_context(base, 0), double_context(base, omega=zero)):
            got = ctx.omega
            assert _same_group(got.group, want.group), name
            assert (got.degree, got.modulus) == (want.degree, want.modulus), name
            assert np.array_equal(got.values, want.values), name
            assert got._cocycle and want._cocycle, name


READER_CASES = {
    "S3": lambda: [double_context(group_from_spec("S3"), k) for k in range(6)],
    "D4": lambda: [double_context(group_from_spec("D4"), k) for k in range(2)],
    "Q8": lambda: [double_context(group_from_spec("Q8"), k) for k in range(8)],
    "Z2xZ2": lambda: [klein_context(bits) for bits in itertools.product((0, 1), repeat=3)],
}


@pytest.mark.parametrize("name", list(READER_CASES))
def test_projection_reader_equals_the_stored_difference_cocycle(name):
    """omega read through the projections (ctx.cocycle) gives what the
    stored table build_tilde_omega(...).embed(Lambda) gives, on S3 k = 0..5,
    D4 k = 0, 1, Q8 k = 0..7 and the 8 Klein cocycles: the cyclic flags on
    the square, the restriction to every census representative, and on each
    representative where omega trivializes, the transport of psi0 by every
    generator of its normalizer and by one of the square, and the _psi_general
    stacks of (pair, pair), one per stabilizer of the double cosets.
    ctx.omega, built on request, is the stored table."""
    contexts = READER_CASES[name]()
    G = contexts[0].ambient
    census = subgroups_up_to_conjugacy(G)
    mover = small_generating_set(G)[0]
    with cohomology._shared_work():  # one slice system per table, for every twist
        for ctx in contexts:
            base = ctx.base_omega.reduce_to_content()
            ref = build_tilde_omega(base, ctx.square).embed(ctx.modulus)
            assert ctx.omega.same_values(ref) and ctx.cocycle.modulus == ref.modulus
            stored = modcat.AmbientContext(ambient=G, omega=ref, modulus=ctx.modulus)
            got_flags = cohomology._cyclic_invariants(ctx.cocycle)
            assert np.array_equal(got_flags, cohomology._cyclic_invariants(ref))
            for cls in census:
                H = cls.rep
                got = restrict(ctx.cocycle, H)
                assert got.same_values(restrict(ref, H)) and got._cocycle, H.elements
                psi0 = solve_trivialization(ctx.cocycle, H, ctx.modulus)
                if psi0 is None:
                    continue
                pair = PairHPsi(H, psi0)
                norm = cls.normalizer
                gens = cohomology._generating_set(norm.as_group)
                for n in [norm.elements[i] for i in gens] + [mover]:
                    a, b = (transport_pair(c, pair, n) for c in (ctx, stored))
                    assert a.subgroup.elements == b.subgroup.elements, (H.elements, n)
                    assert a.psi.same_values(b.psi), (H.elements, n)
                reps = np.array([c[0] for c in double_cosets(G, H, H)], dtype=np.int64)
                conj_back = G.conj[G.inv[reps]]
                inside = H.from_parent[conj_back[:, H.to_parent]] >= 0
                by_stabilizer = collections.defaultdict(list)
                for i, row in enumerate(inside):
                    by_stabilizer[row.tobytes()].append(i)
                for idx in by_stabilizer.values():
                    stab = Subgroup(G, H.to_parent[inside[idx[0]]].tolist())
                    args = (stab, reps[idx], conj_back[idx], pair, pair)
                    a, b = (modcat._psi_general(c, *args) for c in (ctx, stored))
                    assert np.array_equal(a, b), (H.elements, reps[idx].tolist())


def _arrays_held(obj, seen=None):
    """Every numpy array reachable from obj through the attributes of tdmc
    objects, dataclass fields, containers and cached properties."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _arrays_held(x, seen)
    elif isinstance(obj, dict):
        for x in obj.values():
            yield from _arrays_held(x, seen)
    elif type(obj).__module__.startswith("tdmc."):
        for x in vars(obj).values():
            yield from _arrays_held(x, seen)


def test_double_context_memory():
    """Building the D4 context at k = 1 peaks under 2 MB under tracemalloc
    (a table on its square alone is 64^3 int64 cells, 2 MB).  The cocycle is
    computed outside the measure: H^3(D4, C*) alone peaks near 1.9 MB.  No
    context holds an array of |G x G|^3 cells: not after its build, not
    after a classification and a read of ctx.omega, on S3 k = 0, 1 and D4
    k = 1."""
    import tracemalloc

    base = group_from_spec("D4")
    omega = cohomology_cstar(base, 3).generators[0]
    double_context(base, omega=omega)  # warm imports outside the measure
    tracemalloc.start()
    try:
        double_context(base, omega=omega)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
    for name, k in (("S3", 0), ("S3", 1), ("D4", 1)):
        ctx = double_context(group_from_spec(name), k)
        for _ in range(2):
            cube = ctx.ambient.order**3
            assert all(a.size < cube for a in _arrays_held(ctx)), (name, k)
            classify_pairs(ctx)
            assert ctx.omega.values.size == cube


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


def test_is_fiber_functor_checks_the_candidate_cochain():
    """On the untwisted Z2xZ2 double the full square (census class 66) meets
    the diagonal in the diagonal, at local indices 0, 5, 10, 15.  Against
    it, a candidate psi at half the modulus is a cochain mismatch, one on
    another group is WrongAmbient, and a fiber functor's psi bumped at
    (5, 10) fails the 2-cocycle identity on B ∩ C."""
    ctx = klein_context((0, 0, 0))
    entry = classify_pairs(ctx).entries[-1]
    assert entry.index == 66 and entry.subgroup.order == ctx.ambient.order == 16
    base = diagonal_pair(ctx)
    assert base.subgroup.elements == (0, 5, 10, 15)
    fiber = next(pe.pair for pe in entry.pairs if is_fiber_functor(ctx, base, pe.pair))
    C, psi = fiber.subgroup, fiber.psi
    half = ctx.modulus // 2
    bumped = np.array(psi.values)
    bumped[5, 10] += 1
    for candidate, error, message in [
        (Cochain(psi.group, 2, half, psi.values % half), ValueError, "^cochain mismatch"),
        (Cochain.zero(group_from_spec("D4"), 2, ctx.modulus), WrongAmbient, "^cochain and"),
        (Cochain(psi.group, 2, ctx.modulus, bumped), NotACocycle, "^psi fails the 2-coc"),
    ]:
        with pytest.raises(error, match=message):
            is_fiber_functor(ctx, base, PairHPsi(C, candidate))


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


# (group, k) -> solve_trivialization calls in one classify_pairs call, and
# the admissible classes among them
SOLVES = {
    ("S3", 0): (22, 22),
    ("S3", 1): (4, 4),
    ("S3", 2): (7, 7),
    ("S3", 3): (10, 10),
    ("S3", 4): (7, 7),
    ("S3", 5): (4, 4),
    ("Z2xZ2", 1): (16, 16),
    ("D4", 1): (77, 77),
    ("Q8", 4): (106, 89),
}


def _same_report(got, want):
    """Two reports on one context agree class by class and pair by pair:
    index, subgroup, invariant factors, coordinates, fold size, psi values
    and every rank row."""
    assert got.census_size == want.census_size
    assert got.admissible_indices == want.admissible_indices
    for a, b in zip(got.entries, want.entries):
        assert (a.subgroup.elements, a.h2_factors) == (b.subgroup.elements, b.h2_factors)
        assert [(p.coords, p.folded) for p in a.pairs] == [
            (p.coords, p.folded) for p in b.pairs
        ]
        for p, q in zip(a.pairs, b.pairs):
            assert np.array_equal(p.pair.psi.values, q.pair.psi.values), a.index
            _same_rows(p.breakdown, q.breakdown, (a.index, p.coords))


@pytest.mark.parametrize("group, k", sorted(SOLVES), ids=lambda v: str(v))
def test_classify_pairs_solves_only_the_classes_the_invariant_leaves(monkeypatch, group, k):
    """classify_pairs reads the cyclic invariant once on the ambient and
    calls solve_trivialization only on the classes it does not refuse: on
    S3 the invariant refuses every inadmissible class, on Q8 k = 4 none (17
    classes are refused by the factored solve).  With the invariant flagging
    nothing, every class is solved, and the report is the same."""
    ctx = double_context(group_from_spec(group), k)
    solved = []
    real = modcat.solve_trivialization

    def counted(f, H, modulus):
        solved.append(H)
        return real(f, H, modulus)

    monkeypatch.setattr(modcat, "solve_trivialization", counted)
    report = classify_pairs(ctx)
    assert (len(solved), len(report.entries)) == SOLVES[group, k]
    monkeypatch.setattr(
        modcat, "_cyclic_invariants", lambda f: np.zeros(f.group.order, dtype=bool)
    )
    solved.clear()
    unrefused = classify_pairs(ctx)
    assert len(solved) == report.census_size
    _same_report(unrefused, report)


def test_classify_pairs_checks_the_headroom_on_the_ambient(monkeypatch):
    """The refusal skips solve_trivialization's checks on the classes it
    refuses, so classify_pairs runs them once on the whole square: a context
    whose modulus lacks the headroom content(omega) * |G| = 3 * 36 raises
    before any class is classified.  The content of the difference cocycle
    is read on the base cocycle, which has the same content."""
    ctx = ctx_s3(2)
    short = dataclasses.replace(
        ctx, base_omega=ctx.base_omega.reduce_to_content(), modulus=ctx.ambient.order
    )
    classified = []
    monkeypatch.setattr(modcat, "classify_class", lambda *args: classified.append(args))
    with pytest.raises(ValueError, match="lacks the headroom 108 "):
        classify_pairs(short)
    assert not classified


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


def test_pair_from_coords_builds_the_generating_set_once(monkeypatch):
    """One pair_from_coords call runs in one _shared_work block: the slice
    system at the session modulus and the degree-2 and degree-1 systems of
    H^2(H, C*) share H's generating set, built once instead of three times.
    The store closes when the call returns or raises NotTrivializing, and a
    second call builds the set again.  No C* lookup runs: the generators'
    read-back belongs to the fold."""
    ctx = klein_context((1, 0, 0))
    census = subgroups_up_to_conjugacy(ctx.ambient)
    H = census[49].rep  # omega|_H is nonzero, and the cyclic invariant vanishes
    fH = restrict(ctx.omega, H)
    assert not fH.is_zero() and not cohomology._cyclic_obstruction(fH)
    builds, lookups = [], []
    real, real_cstar = cohomology.small_generating_set, modcat.cohomology_cstar

    def counted(G):
        builds.append(G)
        return real(G)

    def cstar(G, n):
        h = real_cstar(G, n)
        return dataclasses.replace(h, lookup=lambda f: lookups.append(f) or h.lookup(f))

    monkeypatch.setattr(cohomology, "small_generating_set", counted)
    monkeypatch.setattr(modcat, "cohomology_cstar", cstar)
    for coords in ((0,), (1,)):
        builds.clear()
        pair, reduced = pair_from_coords(ctx, H, coords)
        assert reduced == coords and pair.subgroup is H
        assert len(builds) == 1 and not lookups
        assert cohomology._SHARED.get() is None
    refused = next(
        c.rep
        for c in census
        if cohomology._cyclic_obstruction(restrict(ctx.omega, c.rep))
    )
    with pytest.raises(NotTrivializing):
        pair_from_coords(ctx, refused, ())
    assert cohomology._SHARED.get() is None


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
    is_fiber_functor accepts.  Every pair's psi trivializes omega on the
    nose (the per-pair oracle for the class certificate), and the last pair
    of each class is rebuilt by pair_from_coords with the same values."""
    report = _shared_path_report(name)
    ctx = report.context
    accepted = []
    for entry in report.entries:
        omega_H = restrict(ctx.cocycle, entry.subgroup)
        for pe in entry.pairs:
            assert coboundary(pe.pair.psi).same_values(omega_H)
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
        again, _ = pair_from_coords(ctx, entry.subgroup, pe.coords)
        assert again.psi.same_values(pe.pair.psi)
    assert [id(pe) for pe in fiber_functors(ctx, report)] == [id(pe) for pe in accepted]


@pytest.mark.parametrize("name", SHARED_CASES[:-2] + ["D4-k1"])
def test_every_pair_is_its_torsor_point(name):
    """Every pair's psi, a read-only table of its class's psi stack, equals
    the per-pair sum psi0 + sum t_i gen_i at its coords and the psi
    pair_from_coords builds there; coords and folded are Python ints.  D4
    is classified in full."""
    group, twist = name.split("-")
    if group == "Z2xZ2":
        ctx = klein_context(tuple(int(bit) for bit in twist))
    else:
        ctx = double_context(group_from_spec(group), int(twist[1:]))
    for entry in classify_pairs(ctx).entries:
        H = entry.subgroup
        psi0 = solve_trivialization(ctx.cocycle, H, ctx.modulus)
        gens = [b.embed(ctx.modulus) for b in cohomology_cstar(H.as_group, 2).generators]
        for pe in entry.pairs:
            psi = pe.pair.psi
            assert psi.same_values(torsor_sum(psi0, gens, pe.coords)), pe.coords
            assert psi.same_values(pair_from_coords(ctx, H, pe.coords)[0].psi)
            assert not psi.values.flags.writeable
            assert all(type(t) is int for t in pe.coords)
            assert type(pe.folded) is int


# Cyclic groups of orders 6 = 2 * 3 and 10 = 2 * 5 as permutation groups, and
# Z5, which has no builtin.
Z5 = {"type": "perm", "degree": 5, "generators": [[2, 3, 4, 5, 1]]}
Z6 = {"type": "perm", "degree": 5, "generators": [[2, 1, 4, 5, 3]]}
Z10 = {"type": "perm", "degree": 7, "generators": [[2, 1, 4, 5, 6, 7, 3]]}


def _twist_summaries(spec):
    """(pairs, fiber functors, rank multiset) of the double of a cyclic group
    at each twist k = 0 .. |G| - 1."""
    G = group_from_spec(spec)
    out = []
    for k in range(G.order):
        ctx = double_context(G, k)
        report = classify_pairs(ctx)
        ranks = collections.Counter(
            pe.breakdown.total for entry in report.entries for pe in entry.pairs
        )
        out.append((report.total_pairs, len(fiber_functors(ctx, report)), ranks))
    return out


@pytest.mark.parametrize(
    "whole, first, second", [(Z6, "Z2", "Z3"), (Z10, "Z2", Z5)], ids=["Z6", "Z10"]
)
def test_coprime_cyclic_double_is_the_product_of_its_factors(whole, first, second):
    """For A x B with coprime orders, H^3(A x B, C*) is H^3(A, C*) x
    H^3(B, C*), every subgroup of the square is a product of subgroups of the
    two squares, and its H^2 splits likewise.  So over all twists, the
    doubles of A x B give the same multiset of (pairs, fiber functors, rank
    multiset) as the products of a double of A with a double of B, whose
    pairs and fiber functors multiply and whose ranks form the product
    convolution of the two rank multisets."""
    want = []
    for (p1, f1, r1), (p2, f2, r2) in itertools.product(
        _twist_summaries(first), _twist_summaries(second)
    ):
        ranks = collections.Counter()
        for (a, m), (b, n) in itertools.product(r1.items(), r2.items()):
            ranks[a * b] += m * n
        want.append((p1 * p2, f1 * f2, ranks))

    def key(summary):
        pairs, fibers, ranks = summary
        return pairs, fibers, sorted(ranks.items())

    assert sorted(map(key, _twist_summaries(whole))) == sorted(map(key, want))


@pytest.mark.parametrize("name", SHARED_CASES)
def test_batched_orbit_rows_equal_the_per_pair_loop(name):
    """The rows of every pair, computed in one stack per orbit row for all
    the pairs of its class, equal the per-pair, per-orbit reference row by
    row (representative, stabilizer elements, cocycle values, count), and so
    does module_rank_double, a batch of one.  fiber_functors, one stack per
    class, keeps exactly the pairs the per-pair reference keeps."""
    report = _shared_path_report(name)
    ctx = report.context
    for entry in report.entries:
        for pe in entry.pairs:
            want = orbit_breakdown_per_pair(ctx, pe.pair)
            where = (name, entry.index, pe.coords)
            _same_rows(pe.breakdown, want, where)
            _same_rows(module_rank_double(ctx, pe.pair), want, where)
    got = fiber_functors(ctx, report)
    assert [id(pe) for pe in got] == [id(pe) for pe in fiber_functors_per_pair(ctx, report)]


def _corrupted_orbit_rows(bump):
    """The context and orbit rows of census class 15 of the untwisted S3
    square (Z3 x Z3: two pairs, two orbit rows, each stabilizer of order 3,
    so one group of both rows), with bump added to row 1's slice of the
    group's omega terms, and the two pairs' psi, the second changed at one
    entry that row 0 reads (the stabilizer's point (1, 1)), so that its
    row-0 cochain fails the cocycle identity."""
    ctx = ctx_s3(0)
    entry = next(e for e in report_s3(0).entries if e.index == 15)
    (group,) = modcat._orbit_rows(ctx, entry.subgroup)
    assert group.positions == [0, 1]
    assert tuple(group.representatives.tolist()) == (0, 1)
    assert group.stabilizer.order == 3
    terms = group.omega_terms.copy()
    terms[1] += bump
    rows = [dataclasses.replace(group, omega_terms=terms)]
    psi1, psi2 = (pe.pair.psi for pe in entry.pairs)
    left, right = np.broadcast_arrays(group.left[0], group.right[0])
    vals = np.array(psi2.values)
    vals[left[1, 1], right[1, 1]] += 1
    return ctx, rows, [psi1, Cochain(psi2.group, 2, psi2.modulus, vals)]


@pytest.mark.parametrize(
    "at, error, message",
    [
        (
            (1, 1),
            FormulaNotClosed,
            "orbit-stabilizer local cochain at representative 1 is not a cocycle",
        ),
        ((0, 1), ValueError, "cochain is not normalized (nonzero on identity slice)"),
    ],
    ids=["not-closed", "unnormalized"],
)
def test_batched_rows_raise_what_the_per_pair_loop_raises_first(at, error, message):
    """Pair 2 fails at row 0 (a corrupted psi) and pair 1 at row 1 (corrupted
    omega terms: off the identity slices, so not a cocycle, or on one, so
    not normalized).  Checking pair by pair, row by row, pair 1 fails first,
    so the stack raises pair 1's error, naming row 1's representative, and
    not pair 2's row-0 error, which comes first row by row."""
    bump = np.zeros((3, 3), dtype=np.int64)
    bump[at] = 1
    ctx, rows, psis = _corrupted_orbit_rows(bump)
    values = [psi.values for psi in psis]
    pair2_alone = "orbit-stabilizer local cochain at representative 0 is not a cocycle"
    with pytest.raises(FormulaNotClosed, match=f"^{pair2_alone}$"):
        modcat._orbit_breakdowns(ctx, rows, np.stack(values[1:]))
    for batch in (values[:1], values):
        with pytest.raises(error) as raised:
            modcat._orbit_breakdowns(ctx, rows, np.stack(batch))
        assert str(raised.value) == message


def _s3_class_h7():
    """The untwisted S3 context and the entry of reference class H7 (order
    3): four orbit rows, at representatives 0, 1, 3 and 4, whose stabilizers
    of orders 3, 1, 3 and 3 make two groups, rows [0, 2, 3] and [1]."""
    ctx = ctx_s3(0)
    index = next(ci for ci, label in census_labels(ctx).items() if label == "H7")
    entry = next(e for e in report_s3(0).entries if e.index == index)
    groups = modcat._orbit_rows(ctx, entry.subgroup)
    assert [group.positions for group in groups] == [[0, 2, 3], [1]]
    return ctx, entry, groups


def test_interleaved_stabilizers_give_rows_in_orbit_order():
    """Rows grouped by stabilizer come back in orbit order, equal to the
    per-orbit reference, from classify_pairs and module_rank_double alike."""
    ctx, entry, _ = _s3_class_h7()
    (pe,) = entry.pairs
    rows = pe.breakdown.rows
    assert [row.representative for row in rows] == [0, 1, 3, 4]
    assert [row.stabilizer.order for row in rows] == [3, 1, 3, 3]
    assert [row.count for row in rows] == [3, 1, 3, 3]
    want = orbit_breakdown_per_pair(ctx, pe.pair)
    _same_rows(pe.breakdown, want, "H7")
    _same_rows(module_rank_double(ctx, pe.pair), want, "H7")


def test_corrupted_middle_row_of_a_group_is_named():
    """A group of three rows whose middle slice of omega terms is bumped off
    the identity slices raises naming that row's representative, 3."""
    ctx, entry, (first, second) = _s3_class_h7()
    terms = first.omega_terms.copy()
    terms[1, 1, 1] += 1
    corrupted = [dataclasses.replace(first, omega_terms=terms), second]
    psis = entry.pairs[0].pair.psi.values[None]
    with pytest.raises(
        FormulaNotClosed,
        match="^orbit-stabilizer local cochain at representative 3 is not a cocycle$",
    ):
        modcat._orbit_breakdowns(ctx, corrupted, psis)


def test_transport_by_a_normalizing_element_stays_on_the_subgroup():
    """On the twisted D4 double, for every pair on a class of order <= 8 and
    every n normalizing it, transport_pair returns the pair's own subgroup,
    and the transported psi lives on that subgroup's group."""
    report = _shared_path_report("D4-k1")
    for entry in report.entries:
        if entry.subgroup.order > 8:
            break
        for n in report.census[entry.index].normalizer.elements:
            for pe in entry.pairs:
                moved = transport_pair(report.context, pe.pair, n)
                assert moved.subgroup is pe.pair.subgroup
                assert moved.psi.group is pe.pair.subgroup.as_group


# name -> (Cayley table, census classes, pairs, fiber functors, rank multiset)
# for the untwisted double; element 4a + b of Z2xZ4 is (a, b), and element
# 3a + b of Z3xZ3 is (a, b).
ABELIAN_DOUBLES = {
    "Z8": (
        [[(i + j) % 8 for j in range(8)] for i in range(8)],
        37,
        66,
        8,
        {1: 8, 2: 12, 4: 16, 8: 18, 16: 8, 32: 3, 64: 1},
    ),
    "Z2xZ4": (
        [[(i // 4 + j // 4) % 2 * 4 + (i + j) % 4 for j in range(8)] for i in range(8)],
        249,
        1374,
        128,
        {1: 128, 2: 384, 4: 464, 8: 288, 16: 94, 32: 15, 64: 1},
    ),
    "Z3xZ3": (
        [[((a // 3 + b // 3) % 3) * 3 + (a % 3 + b % 3) % 3 for b in range(9)] for a in range(9)],
        212,
        2240,
        729,
        {1: 729, 3: 1080, 9: 390, 27: 40, 81: 1},
    ),
}


@pytest.mark.parametrize("name", sorted(ABELIAN_DOUBLES))
def test_untwisted_abelian_double_matches_the_closed_form(name):
    """For abelian A the pairs are (L <= A^2, psi in H^2(L, C*)) of rank
    [A^2 : L], and the fiber functors number |H^2(A^2, C*)|.  The engine's
    census size, pair count, fiber functors and rank multiset equal that
    closed form, read off an enumeration that shares no code with tdmc,
    and both equal the pinned numbers."""
    table, classes, pairs, fibers, ranks = ABELIAN_DOUBLES[name]
    assert untwisted_abelian_double_counts(table) == (classes, pairs, fibers, ranks)
    ctx = double_context(group_from_spec({"type": "cayley", "table": table}))
    report = classify_pairs(ctx)
    got = collections.Counter(pe.breakdown.total for e in report.entries for pe in e.pairs)
    assert len(report.entries) == report.census_size == classes
    assert report.total_pairs == pairs
    assert len(fiber_functors(ctx, report)) == fibers
    assert dict(got) == ranks


@pytest.mark.parametrize(
    "make_ctx, stabilizers",
    [(lambda: ctx_s3(0), 4), (lambda: klein_context((0, 0, 0)), 5)],
    ids=["S3-k0", "Z2xZ2-000"],
)
def test_class_structure_is_built_once_per_orbit_row(monkeypatch, make_ctx, stabilizers):
    """Within one classify_pairs call the orbit stabilizers with the same
    element set are one Subgroup, so one group, which builds its commute
    table once: the builds number the distinct stabilizer element sets of
    the call (5 on Z2xZ2, its 5 subgroups; 4 on S3), not the orbit rows of
    each class (115 on Z2xZ2) or of each pair.  A second call builds them again."""
    builds = count_commute_builds(monkeypatch)
    ctx = make_ctx()
    for _ in range(2):
        builds.clear()
        report = classify_pairs(ctx)
        rows = [row for e in report.entries for pe in e.pairs for row in pe.breakdown.rows]
        shared = {}
        for row in rows:
            stab = shared.setdefault(row.stabilizer.elements, row.stabilizer)
            assert row.stabilizer is stab
            assert row.cocycle.group is stab.as_group
        per_class = sum(len(e.pairs[0].breakdown.rows) for e in report.entries)
        assert len(builds) == len(shared) == stabilizers < per_class < len(rows)


@pytest.mark.parametrize("name", ["S3", "D4"])
def test_group_keeps_read_only_class_structure(name):
    """FiniteGroup.commute equals a fresh computation, is built once, and
    cannot be written through."""
    G = group_from_spec(name)
    assert np.array_equal(G.commute, G.mul == G.mul.T)
    assert G.commute is G.commute
    with pytest.raises(ValueError):
        G.commute[0, 1] = not G.commute[0, 1]


def test_untwisted_d4_pinned(monkeypatch):
    """The largest classification the zero shortcut serves: 214 census
    classes, omega|_H = 0 on each, no slice system built.  fiber_functors
    builds B ∩ C once per class that spans one double coset with the
    diagonal, so one class structure each (77, against 660 for one per
    pair), and a second call on the same report pays the same again."""
    ctx = double_context(group_from_spec("D4"), 0)
    report = classify_pairs(ctx)
    assert report.census_size == 214
    builds = count_commute_builds(monkeypatch)
    diag = ctx.square.diagonal
    spanning = [
        e for e in report.entries if len(double_cosets(ctx.ambient, diag, e.subgroup)) == 1
    ]
    assert (len(spanning), sum(len(e.pairs) for e in spanning)) == (77, 660)
    for _ in range(2):
        builds.clear()
        assert (report.total_pairs, len(fiber_functors(ctx, report))) == (1148, 192)
        assert len(builds) == len(spanning)


# Morita invariants of a double: pairs, fiber functors, and the multisets of
# the ranks and of the dual ranks, a pair's dual rank being its bimodule_rank
# with itself.  Read on the untwisted doubles of D4 and Q8.
UNTWISTED_D4_FINGERPRINT = (
    1148,
    192,
    {1: 192, 2: 412, 4: 320, 5: 64, 8: 112, 10: 33, 16: 7, 20: 7, 22: 1},
    {22: 24, 25: 256, 28: 288, 40: 458, 64: 122},
)
UNTWISTED_Q8_FINGERPRINT = (
    242,
    8,
    {1: 8, 2: 58, 4: 76, 5: 16, 8: 54, 10: 15, 16: 7, 20: 7, 22: 1},
    {22: 6, 25: 16, 28: 36, 40: 118, 64: 66},
)


def _morita_fingerprint(ctx):
    report = classify_pairs(ctx)
    pes = [pe for entry in report.entries for pe in entry.pairs]
    ranks = collections.Counter(pe.breakdown.total for pe in pes)
    duals = collections.Counter(bimodule_rank(ctx, pe.pair, pe.pair).total for pe in pes)
    return report.total_pairs, len(fiber_functors(ctx, report)), dict(ranks), dict(duals)


def test_type_iii_cube_is_morita_equivalent_to_untwisted_d4():
    """Vec over (Z/2)^3 with the type-III cocycle omega(a, b, c) = 1/2 a1 b2 c3
    is Morita equivalent to Vec over D4 (de Wild Propitius, hep-th/9511195;
    Naidu-Nikshych, CMP 279, 2008), so its double reads D4's invariants.
    Coordinate a_i of an element is 1 where its permutation swaps 2i + 1 and
    2i + 2; omega is 4 a1 b2 c3 at modulus 8."""
    gens = [[2, 1, 3, 4, 5, 6], [1, 2, 4, 3, 5, 6], [1, 2, 3, 4, 6, 5]]
    cube = group_from_spec({"type": "perm", "degree": 6, "generators": gens})
    a = np.array([[p[2 * i] == 2 * i + 2 for i in range(3)] for p in perm_closure(6, gens)])
    values = 4 * np.einsum("x,y,z->xyz", *a.T.astype(np.int64))
    ctx = double_context(cube, omega=Cochain(cube, 3, 8, values))
    assert _morita_fingerprint(ctx) == UNTWISTED_D4_FINGERPRINT


@pytest.mark.parametrize("i", [0, 1])
def test_d4_twists_read_the_invariants_of_untwisted_q8(i):
    """Vec over D4 twisted by either Z/2 generator of H^3(D4, C*) reads the
    four Morita invariants of untwisted Q8."""
    D4 = group_from_spec("D4")
    ctx = double_context(D4, omega=cohomology_cstar(D4, 3).generators[i])
    assert _morita_fingerprint(ctx) == UNTWISTED_Q8_FINGERPRINT


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
