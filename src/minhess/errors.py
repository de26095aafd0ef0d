"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An operation was called outside its mathematical domain.

    Examples: a Weyl group element that is not admissible for the requested
    configuration, an invalid (family, rank) pair, an enumeration that would
    exceed its size bound.
    """


class EnumerationBoundError(DomainError):
    """An enumeration would exceed its size bound."""
