"""Exception hierarchy shared by every module in the package."""

from __future__ import annotations


class PtopError(Exception):
    """Base class for all library errors."""


class InvalidArgument(PtopError, ValueError):
    """A malformed or inconsistent argument; ``except ValueError`` still catches it."""


class MaskOutOfRange(PtopError):
    """A subset mask does not fit the ground size it is used with."""


class ProbabilityOutOfRange(PtopError):
    """A probability value is outside [0, 1] (or not a finite number)."""


class DuplicateMask(PtopError):
    """The same subset mask was listed twice."""


class CapExceeded(PtopError):
    """An operation was asked to run above its documented size cap."""


class NotASubset(PtopError):
    """A mask was required to be contained in another mask but is not."""


class NotATopology(PtopError):
    """A family of subsets fails the classical topology axioms.

    ``defect`` describes the failure: ``("missing-empty",)``,
    ``("missing-full",)``, ``("union", a, b)`` or ``("intersection", a, b)``
    where ``a | b`` (resp. ``a & b``) escapes the family.
    """

    def __init__(self, message: str, defect: tuple = ()):
        super().__init__(message)
        self.defect = defect


class NotAPSpace(PtopError):
    """A weight table fails the openness axioms; carries one violation, as ``violation``."""

    def __init__(self, message: str, violation=None):
        super().__init__(message)
        self.violation = violation


class NotACover(PtopError):
    """A family of subsets does not cover the ground set."""


class DimensionMismatch(PtopError):
    """Ground sizes of the arguments do not line up."""


class PointOutOfRange(PtopError):
    """A point index is outside its ground set."""


class ChainNotNested(PtopError):
    """Level-chain topologies are not a shrinking sequence."""


class MissingBase(PtopError):
    """A level chain leaves some subset unassigned and has no base value."""


class ParseError(PtopError):
    """Malformed document text; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class UnsupportedVersion(ParseError):
    """The document declares a format version this library does not read."""
