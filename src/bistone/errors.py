"""Exception types raised across the package.

Errors that reject an input carry a ``witness`` payload naming the concrete
elements that violate the requirement, so callers can re-verify the failure.
"""


class BistoneError(Exception):
    def __init__(self, message="", witness=None):
        super().__init__(message)
        self.witness = witness


class NotAPoset(BistoneError):
    """leq is not reflexive, antisymmetric or transitive."""


class NotALattice(BistoneError):
    """Some pair of elements has no meet or no join."""


class NotBounded(BistoneError):
    """No global bottom or top element."""


class NotDistributive(BistoneError):
    """Witness triple violates a ∧ (b ∨ c) = (a ∧ b) ∨ (a ∧ c)."""


class DegeneratePair(BistoneError):
    """{tt, ff} = {1, 0}; the structure is excluded by convention."""


class CoveringViolation(BistoneError):
    """An ideal/filter pair misses a consistency/totality pair."""


class NotZeroDimensional(BistoneError):
    """Operation requires a zero-dimensional structure."""


class NotStone(BistoneError):
    """Operation requires a Stone bitopological space."""


class InvariantViolation(BistoneError):
    """A constructed result or a re-verified witness failed its own check
    (internal bug); raised explicitly so the guard survives ``python -O``."""


class BoundsTooLarge(BistoneError):
    """Requested size exceeds the configured guard, or the guard is invalid."""


class ParseError(BistoneError):
    """Input file is not valid JSON or not schema-conformant."""


class UnknownKind(BistoneError):
    """JSON object carries an unsupported "kind" or "version" field."""


class UnknownSuite(BistoneError):
    """No property suite with the requested name."""
