"""Irreducible-representation counts of twisted group algebras C_psi[H].

The count is psi-regular conjugacy classes in exact integer arithmetic.  The
center-dimension oracle that the tests play against it, an independent
construction of the algebra itself, lives in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .cohomology import Cochain, is_cocycle
from .errors import InvariantViolated, NotACocycle
from .groups import FiniteGroup, _same_group, conjugacy_classes

__all__ = ["projective_irrep_count"]


@dataclass(frozen=True)
class _ClassStructure:
    """What the count reads of the group alone: commute[h, x] says whether h
    and x commute (row h is the centralizer of h), and the conjugacy classes."""

    group: FiniteGroup
    commute: np.ndarray
    classes: List[List[int]]


def _class_structure(G: FiniteGroup) -> _ClassStructure:
    return _ClassStructure(G, G.mul == G.mul.T, conjugacy_classes(G))


def projective_irrep_count(
    psi: Cochain, structure: Optional[_ClassStructure] = None
) -> int:
    """Number of irreducible psi-projective representations of psi.group.

    Counts conjugacy classes of psi-regular elements, h being regular iff
    psi(h, x) = psi(x, h) for every x centralizing h.  Regularity is constant
    on classes for a genuine cocycle; this is checked, not assumed.
    `structure` may pass _class_structure(psi.group) to reuse across the
    cochains on one group; by default a fresh one is built.

    Raises:
        NotACocycle: psi is not a 2-cochain, or fails the 2-cocycle identity.
        ValueError: structure was built on another group.
    """
    if psi.degree != 2:
        raise NotACocycle(f"psi must be a 2-cochain, got degree {psi.degree}")
    if not is_cocycle(psi):
        raise NotACocycle("psi fails the 2-cocycle identity")
    G, v, M = psi.group, psi.values, psi.modulus
    if structure is None:
        structure = _class_structure(G)
    elif not _same_group(structure.group, G):
        raise ValueError("the class structure must be built on psi's group")
    regular = ~(structure.commute & ((v - v.T) % M != 0)).any(axis=1)
    count = 0
    for cls in structure.classes:
        flags = regular[cls]
        if flags.any() and not flags.all():
            raise InvariantViolated(
                f"psi-regularity is not constant on the conjugacy class of {cls[0]} "
                f"(group of order {G.order}); psi is not a cocycle"
            )
        if flags[0]:
            count += 1
    return count
