"""Twisted group algebras C_psi[H] and their irreducible-representation counts.

The production path counts psi-regular conjugacy classes in exact integer
arithmetic; the floating-point center-dimension oracle exists only so tests
can confirm the count against an independent semantic construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohomology import Cochain, is_cocycle
from .errors import NotACocycle, SizeBound
from .groups import FiniteGroup, centralizer, conjugacy_classes

__all__ = [
    "TwistedAlgebra",
    "projective_irrep_count",
    "center_dimension_oracle",
    "center_dimension_from_structure",
]

_ORACLE_MAX = 64
_ORACLE_TOL = 1e-9


@dataclass
class TwistedAlgebra:
    """C_psi[H] for a normalized 2-cocycle psi on the (standalone) group H."""

    group: FiniteGroup
    psi: Cochain

    def __post_init__(self) -> None:
        if self.psi.degree != 2 or self.psi.group is not self.group:
            if self.psi.degree != 2 or self.psi.group.order != self.group.order:
                raise NotACocycle("psi must be a 2-cochain on the algebra's group")
        if not is_cocycle(self.psi):
            raise NotACocycle("psi fails the 2-cocycle identity")


def projective_irrep_count(A: TwistedAlgebra) -> int:
    """Number of irreducible psi-projective representations.

    Counts conjugacy classes of psi-regular elements, h being regular iff
    psi(h, x) = psi(x, h) for every x centralizing h.  Regularity is constant
    on classes for a genuine cocycle; this is asserted, not assumed.
    """
    G, v = A.group, A.psi.values
    M = A.psi.modulus
    count = 0
    for cls in conjugacy_classes(G):
        flags = []
        for h in cls:
            cz = centralizer(G, h).elements
            arr = np.array(cz, dtype=np.int64)
            flags.append(bool(((v[h, arr] - v[arr, h]) % M == 0).all()))
        assert all(flags) or not any(flags), "regularity must be a class function"
        if flags[0]:
            count += 1
    return count


def center_dimension_from_structure(
    table: np.ndarray, coeffs: np.ndarray
) -> int:
    """Dimension of the center of the algebra with e_h e_k = coeffs[h,k] e_{table[h,k]}.

    Test-scale oracle in complex floating arithmetic (documented tolerance);
    not part of the production path.
    """
    n = table.shape[0]
    if n > _ORACLE_MAX:
        raise SizeBound(f"center oracle limited to dimension {_ORACLE_MAX}")
    hh = np.repeat(np.arange(n), n)
    kk = np.tile(np.arange(n), n)
    left = np.zeros((n, n, n), dtype=np.complex128)
    left[hh, kk, table[hh, kk]] = coeffs[hh, kk]
    right = left.transpose(1, 0, 2)
    constraint = (left - right).transpose(1, 2, 0).reshape(n * n, n)
    s = np.linalg.svd(constraint, compute_uv=False)
    smax = s[0] if len(s) else 0.0
    tol = _ORACLE_TOL * max(1.0, smax)
    return int((s < tol).sum()) + (n - len(s) if constraint.shape[0] < n else 0)


def center_dimension_oracle(A: TwistedAlgebra) -> int:
    """Center dimension of C_psi[H] = number of irreducible summands."""
    G = A.group
    if G.order > _ORACLE_MAX:
        raise SizeBound(f"center oracle limited to order {_ORACLE_MAX}")
    zeta = np.exp(2j * np.pi / A.psi.modulus)
    coeffs = zeta ** A.psi.values.astype(np.float64)
    return center_dimension_from_structure(G.mul, coeffs)

