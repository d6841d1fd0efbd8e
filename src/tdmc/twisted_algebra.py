"""Irreducible-representation counts of twisted group algebras C_psi[H].

The count is psi-regular conjugacy classes in exact integer arithmetic.  The
center-dimension oracle that the tests play against it, an independent
construction of the algebra itself, lives in tests/oracles.py.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .cohomology import Cochain, is_cocycle
from .errors import InvariantViolated, NotACocycle
from .groups import FiniteGroup

__all__ = ["projective_irrep_count"]


def projective_irrep_count(psi: Cochain) -> int:
    """Number of irreducible psi-projective representations of psi.group.

    Counts conjugacy classes of psi-regular elements, h being regular iff
    psi(h, x) = psi(x, h) for every x centralizing h (_regular_class_counts).

    Raises:
        NotACocycle: psi is not a 2-cochain, or fails the 2-cocycle identity.
    """
    if psi.degree != 2:
        raise NotACocycle(f"psi must be a 2-cochain, got degree {psi.degree}")
    if not is_cocycle(psi):
        raise NotACocycle("psi fails the 2-cocycle identity")
    return _regular_class_counts(psi.group, psi.values[None], psi.modulus)[0]


def _regular_class_counts(K: FiniteGroup, values: np.ndarray, modulus: int) -> List[int]:
    """The psi-regular class count of each 2-cocycle in a batch on K.

    values is a (batch, |K|, |K|) stack of value tables at the modulus, each
    a cocycle the caller has checked.  Regularity is constant on classes for
    a genuine cocycle; this is checked, not assumed: the flags must satisfy
    regular[g x g^-1] = regular[x] for every g, else InvariantViolated names
    the least element of the first offending class of the first offending
    item.  No class is listed: a class C of x has |K| / |C_K(x)| elements, so
    the regular classes number the sum of |C_K(x)| / |K| over regular x.  The
    commute and conjugation tables are read from K, which keeps them, so the
    cocycles on one group share them.
    """
    skew = (values - values.swapaxes(1, 2)) % modulus != 0
    regular = ~(K.commute & skew).any(axis=2)
    moved = (regular[:, K.conj] != regular[:, None, :]).any(axis=1)
    if moved.any():
        _, x = np.argwhere(moved)[0]
        raise InvariantViolated(
            f"psi-regularity is not constant on the conjugacy class of {x} "
            f"(group of order {K.order}); psi is not a cocycle"
        )
    weights = regular @ K.commute.sum(axis=1)
    if (weights % K.order).any():
        raise InvariantViolated(
            f"centralizer orders of the regular elements sum to {weights.tolist()}, "
            f"not to multiples of the group order {K.order}"
        )
    return (weights // K.order).tolist()
