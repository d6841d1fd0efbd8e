"""Irreducible-representation counts of twisted group algebras C_psi[H].

The count is psi-regular conjugacy classes in exact integer arithmetic.  The
center-dimension oracle that the tests play against it, an independent
construction of the algebra itself, lives in tests/oracles.py.
"""

from __future__ import annotations

from .cohomology import Cochain, is_cocycle
from .errors import InvariantViolated, NotACocycle

__all__ = ["projective_irrep_count"]


def projective_irrep_count(psi: Cochain) -> int:
    """Number of irreducible psi-projective representations of psi.group.

    Counts conjugacy classes of psi-regular elements, h being regular iff
    psi(h, x) = psi(x, h) for every x centralizing h.  Regularity is constant
    on classes for a genuine cocycle; this is checked, not assumed.  The
    commute table and the classes are read from psi.group, which keeps them,
    so the cochains on one group share them.

    Raises:
        NotACocycle: psi is not a 2-cochain, or fails the 2-cocycle identity.
    """
    if psi.degree != 2:
        raise NotACocycle(f"psi must be a 2-cochain, got degree {psi.degree}")
    if not is_cocycle(psi):
        raise NotACocycle("psi fails the 2-cocycle identity")
    G, v, M = psi.group, psi.values, psi.modulus
    regular = ~(G.commute & ((v - v.T) % M != 0)).any(axis=1)
    count = 0
    for cls in G.classes:
        flags = regular[list(cls)]
        if flags.any() and not flags.all():
            raise InvariantViolated(
                f"psi-regularity is not constant on the conjugacy class of {cls[0]} "
                f"(group of order {G.order}); psi is not a cocycle"
            )
        if flags[0]:
            count += 1
    return count
