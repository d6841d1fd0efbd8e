"""Check the engine output against the bundled reference tables.

The reference file pins, for the symmetric-group-on-three-letters square:
the subgroup census with degree-2 C* cohomology, orbit/rank tables, pair and
admissibility counts for every twist, dual ranks, and fiber-functor data.
Class labels are tied to explicit generator sets, so any group isomorphic to
the reference base can be checked after transporting along an isomorphism.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import BadGroupSpec, InvariantViolated, WrongAmbient
from .groups import (
    FiniteGroup,
    SubgroupClass,
    _least_conjugate,
    _same_group,
    _sorted_conjugates,
    closure,
    group_from_spec,
    small_generating_set,
    subgroups_up_to_conjugacy,
)
from .modcat import (
    DoubleContext,
    bimodule_rank,
    classify_pairs,
    double_context,
    fiber_functors,
)

__all__ = [
    "CheckItem",
    "CheckSection",
    "load_reference",
    "find_isomorphism",
    "census_labels",
    "verify_reference_tables",
]


def load_reference() -> dict:
    with resources.files("tdmc.data").joinpath("s3_reference.json").open() as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# identifying groups with the reference base
# ---------------------------------------------------------------------------


def find_isomorphism(A: FiniteGroup, B: FiniteGroup) -> Optional[List[int]]:
    """An isomorphism A -> B as an image list, or None.

    Brute search over generator images filtered by element order; fine for
    the tiny groups the reference tables talk about.
    """
    if A.order != B.order:
        return None
    gens = small_generating_set(A)
    orders = [B.element_order(b) for b in range(B.order)]
    candidates = []
    for g in gens:
        want = A.element_order(g)
        candidates.append([b for b, got in enumerate(orders) if got == want])
    for images in itertools.product(*candidates):
        phi = _extend_homomorphism(A, B, gens, list(images))
        if phi is not None:
            return phi
    return None


def _extend_homomorphism(
    A: FiniteGroup, B: FiniteGroup, gens: List[int], images: List[int]
) -> Optional[List[int]]:
    phi = [-1] * A.order
    phi[0] = 0
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g, img in zip(gens, images):
            y = A.times(x, g)
            want = B.times(phi[x], img)
            if phi[y] == -1:
                phi[y] = want
                frontier.append(y)
            elif phi[y] != want:
                return None
    if -1 in phi or len(set(phi)) != A.order:
        return None
    p = np.array(phi, dtype=np.int64)
    if not np.array_equal(p[A.mul], B.mul[p[:, None], p]):
        return None
    return phi


def census_labels(
    ctx: DoubleContext, census: Optional[Sequence[SubgroupClass]] = None
) -> Optional[Dict[int, str]]:
    """Census index -> reference label, or None when the base doesn't match.

    Reference generator sets are transported through an isomorphism from the
    reference base group, closed up, and matched to the census class whose
    representative is their least sorted conjugate (groups._least_conjugate,
    as subgroups_up_to_conjugacy picks it); the assignment must come out a
    bijection.  `census` may pass the already computed
    subgroups_up_to_conjugacy(ctx.ambient); WrongAmbient when its classes
    are subgroups of another group.
    """
    if census is not None and not all(
        _same_group(cls.rep.parent, ctx.ambient) for cls in census
    ):
        raise WrongAmbient("census classes must be subgroups of the context's ambient")
    data = load_reference()
    builtin = group_from_spec(data["group"])
    phi = find_isomorphism(builtin, ctx.base)
    if phi is None:
        return None
    b = builtin.order
    n = ctx.base.order
    GG = ctx.ambient
    if census is None:
        census = subgroups_up_to_conjugacy(GG)
    by_rep = {cls.rep.elements: ci for ci, cls in enumerate(census)}
    assignment: Dict[int, str] = {}
    for label, info in sorted(data["classes"].items()):
        mapped = [phi[g // b] * n + phi[g % b] for g in info["generators"]]
        least, _ = _least_conjugate(GG, _sorted_conjugates(GG, closure(GG, mapped)))
        found = by_rep.get(least)
        if found is None:
            raise InvariantViolated(f"reference class {label} missing from census")
        if found in assignment:
            raise InvariantViolated(
                f"labels {assignment[found]} and {label} match census class {found}"
            )
        assignment[found] = label
    if len(assignment) != len(census):
        unlabeled = sorted(set(range(len(census))) - set(assignment))
        raise InvariantViolated(f"census classes {unlabeled} match no reference class")
    return assignment


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


@dataclass
class CheckItem:
    label: str
    passed: bool
    detail: str


@dataclass
class CheckSection:
    name: str
    items: List[CheckItem]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)


def _item(label: str, got, want) -> CheckItem:
    if got == want:
        return CheckItem(label, True, f"{got}")
    return CheckItem(label, False, f"expected {want}, got {got}")


def verify_reference_tables(
    base: Optional[FiniteGroup] = None, data: Optional[dict] = None
) -> List[CheckSection]:
    """Run every reference check; one CheckItem per table entry.

    `data` overrides the bundled tables (used to prove a perturbed table
    actually fails).
    """
    if data is None:
        data = load_reference()
    if base is None:
        base = group_from_spec(data["group"])
    mismatch = BadGroupSpec(
        f"reference tables describe {data['group']}; "
        f"the given order-{base.order} group is not isomorphic to it"
    )
    if find_isomorphism(group_from_spec(data["group"]), base) is None:
        raise mismatch  # before classifying anything
    contexts = {k: double_context(base, k) for k in range(6)}
    ctx0 = contexts[0]
    reports = {k: classify_pairs(ctx) for k, ctx in contexts.items()}
    labels = census_labels(ctx0, reports[0].census)
    if labels is None:
        raise mismatch

    sections: List[CheckSection] = []

    # census: class count, orders, degree-2 C* cohomology
    items = [_item("class count", reports[0].census_size, len(data["classes"]))]
    for entry in reports[0].entries:
        label = labels[entry.index]
        info = data["classes"][label]
        items.append(
            _item(
                f"{label} order/h2",
                (entry.subgroup.order, list(entry.h2_factors)),
                (info["order"], info["h2"]),
            )
        )
    sections.append(CheckSection("subgroup census", items))

    # untwisted orbit and rank table
    items = []
    for entry in reports[0].entries:
        label = labels[entry.index]
        info = data["classes"][label]
        got = sorted(
            {(len(pe.breakdown.rows), pe.breakdown.total) for pe in entry.pairs}
        )
        items.append(
            _item(
                f"{label} orbits/rank",
                got,
                [(info["double_cosets"], info["rank"])],
            )
        )
    sections.append(CheckSection("orbit and rank table", items))

    # admissibility and pair counts for every twist
    items = []
    for k in range(6):
        key = str(min(k, 6 - k) if k else 0)
        want_labels = sorted(data["admissible"][key])
        got_labels = sorted(labels[i] for i in reports[k].admissible_indices)
        items.append(_item(f"k={k} admissible classes", got_labels, want_labels))
        items.append(
            _item(f"k={k} pair count", reports[k].total_pairs, data["pair_counts"][key])
        )
    sections.append(CheckSection("admissibility and pair counts", items))

    # dual ranks, untwisted
    items = []
    for entry in reports[0].entries:
        label = labels[entry.index]
        want = data["classes"][label]["dual_ranks"]
        got = [
            bimodule_rank(ctx0, pe.pair, pe.pair).total for pe in entry.pairs
        ]
        items.append(_item(f"{label} dual ranks", got, want))
    sections.append(CheckSection("dual ranks", items))

    # fiber functors
    items = []
    ff0 = fiber_functors(ctx0, reports[0])
    ff_ids = {id(pe) for pe in ff0}
    got0 = sorted(
        labels[e.index]
        for e in reports[0].entries
        for pe in e.pairs
        if id(pe) in ff_ids
    )
    items.append(_item("untwisted classes", got0, sorted(data["fiber_functors"]["0"])))
    items.append(
        _item(
            "untwisted cochain coordinates",
            [pe.coords for pe in ff0],
            [()] * len(data["fiber_functors"]["0"]),
        )
    )
    for k in range(1, 6):
        count = len(fiber_functors(contexts[k], reports[k]))
        items.append(_item(f"k={k} count", count, data["fiber_functors"]["twisted"]))
    sections.append(CheckSection("fiber functors", items))

    return sections
