"""Exception types shared across the package."""


class GroupGraphError(Exception):
    """Base class for all groupgraph errors."""


class SpecSyntaxError(GroupGraphError):
    """Malformed group-spec expression; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SpecDomainError(GroupGraphError):
    """Well-formed expression with out-of-range parameters."""


class RealizeError(GroupGraphError):
    """A group construction failed or produced the wrong order."""


class CapExceeded(RealizeError):
    """Element table or subgroup enumeration grew past its configured cap."""


class ActionTableError(RealizeError):
    """A semidirect action table is missing or is not a homomorphism."""


class NotNormal(GroupGraphError):
    """A quotient was requested modulo a non-normal subgroup."""


class BudgetExceeded(GroupGraphError):
    """An exact solver ran out of its node budget. Never an approximation."""


class CriteriaDisagreement(GroupGraphError):
    """Two independent characterizations of a predicate disagreed.

    This signals a lattice or classifier bug, not a mathematical fact.
    """


class CacheError(GroupGraphError):
    """A lattice cache entry failed validation, or a group has no cache key."""
