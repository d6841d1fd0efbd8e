"""Twisted group algebras C_psi[H] and their irreducible-representation counts.

The count is psi-regular conjugacy classes in exact integer arithmetic.  The
center-dimension oracle that the tests play against it, an independent
construction of the algebra itself, lives in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import Cochain, is_cocycle
from .errors import InvariantViolated, NotACocycle
from .groups import FiniteGroup, conjugacy_classes

__all__ = ["TwistedAlgebra", "projective_irrep_count"]


@dataclass
class TwistedAlgebra:
    """C_psi[H] for a normalized 2-cocycle psi on the (standalone) group H."""

    group: FiniteGroup
    psi: Cochain

    def __post_init__(self) -> None:
        if self.psi.degree != 2 or self.psi.group.order != self.group.order:
            raise NotACocycle("psi must be a 2-cochain on the algebra's group")
        if not is_cocycle(self.psi):
            raise NotACocycle("psi fails the 2-cocycle identity")


def projective_irrep_count(A: TwistedAlgebra) -> int:
    """Number of irreducible psi-projective representations.

    Counts conjugacy classes of psi-regular elements, h being regular iff
    psi(h, x) = psi(x, h) for every x centralizing h.  Regularity is constant
    on classes for a genuine cocycle; this is checked, not assumed.
    """
    G, v = A.group, A.psi.values
    M = A.psi.modulus
    commute = G.mul == G.mul.T  # row h: the centralizer of h
    regular = ~(commute & ((v - v.T) % M != 0)).any(axis=1)
    count = 0
    for cls in conjugacy_classes(G):
        flags = regular[cls]
        if flags.any() and not flags.all():
            raise InvariantViolated(
                f"psi-regularity is not constant on the conjugacy class of {cls[0]} "
                f"(group of order {G.order}); psi is not a cocycle"
            )
        if flags[0]:
            count += 1
    return count
