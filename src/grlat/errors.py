"""Shared exception types.

Everything derives from GrlatError, which is a ValueError, so callers
that do not care about the fine distinctions can catch ValueError.
"""


class GrlatError(ValueError):
    pass


class InvalidFactorError(GrlatError):
    """A group was requested with an invariant factor below 2 (or non-integer)."""


class CapacityError(GrlatError):
    """An enumeration was requested beyond the configured size bound."""


class ParentMismatchError(GrlatError):
    """Two objects that must live over the same group or parent do not."""


class NotFullRankError(GrlatError):
    """A lattice that must have full rank in its ambient space does not."""


class IdentityCheckError(GrlatError):
    """An identity that exact arithmetic guarantees failed to hold."""


class ContainmentError(GrlatError):
    """A lattice or module that must contain another does not."""


class InfiniteModuleError(GrlatError):
    """A presented module that must be finite has infinite underlying group."""


class PrecisionError(GrlatError):
    """A p-adic style computation was requested below its sufficiency bound."""


class DegenerateElementError(GrlatError):
    """A ring element is a zero divisor where a non zero divisor is required."""


class ScopeError(GrlatError):
    """An operation was called outside its supported class of groups."""


class UnitNotFoundError(GrlatError):
    """No unit solution exists for a unit transport equation at the working precision."""
