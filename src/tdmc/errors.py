"""Exception types shared across the engine."""

from __future__ import annotations

__all__ = [
    "TdmcError",
    "NonAssociative",
    "NotAGroup",
    "UnknownBuiltin",
    "SizeBound",
    "ElementOutOfRange",
    "NotASubgroup",
    "WrongAmbient",
    "DegreeOverflow",
    "NotACocycle",
    "NotTrivializing",
    "FormulaNotClosed",
    "InvariantViolated",
    "BadGroupSpec",
    "UsageError",
]


class TdmcError(Exception):
    """Base class for all engine errors (mapped to exit status 1 by the CLI)."""


class NonAssociative(TdmcError):
    """A multiplication table fails the associativity law."""


class NotAGroup(TdmcError):
    """A multiplication table lacks an identity at index 0 or inverses."""


class UnknownBuiltin(TdmcError):
    """An unrecognized builtin group name."""


class SizeBound(TdmcError):
    """An input exceeds the configured size bound."""


class ElementOutOfRange(TdmcError):
    """An element index outside 0..order-1."""


class NotASubgroup(TdmcError):
    """An element set that is not closed under multiplication and inverse."""


class WrongAmbient(TdmcError):
    """An object used with a group it does not belong to."""


class DegreeOverflow(TdmcError):
    """A cochain degree outside the supported range."""


class NotACocycle(TdmcError):
    """A cochain expected to be a cocycle has nonzero coboundary."""


class NotTrivializing(TdmcError):
    """A cochain that was expected to trivialize a restricted cocycle does not."""


class FormulaNotClosed(TdmcError):
    """A constructed local cocycle fails the cocycle identity.

    This is raised instead of silently returning a wrong cochain; it signals a
    convention bug in one of the cocycle formulas, never a data problem.
    """


class InvariantViolated(TdmcError):
    """A computed object breaks an identity its construction guarantees.

    Like FormulaNotClosed this signals a bug (or an object changed after it
    was validated), never a data problem; the message names the orders
    involved.
    """


class BadGroupSpec(TdmcError):
    """A malformed group description (mapped to exit status 2 by the CLI)."""


class UsageError(TdmcError):
    """A malformed command invocation (mapped to exit status 2 by the CLI)."""
