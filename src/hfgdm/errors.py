"""Exception taxonomy shared by every hfgdm module.

Input problems derive from ValidationError (a ValueError); numerical
failures derive from ComputationError (a RuntimeError). Errors that point
at matrix entries carry the offending indices as attributes. in_context
is the one way to say where an error arose: it keeps the error's type
and attributes and puts the place before its message.
"""

from __future__ import annotations


class ValidationError(ValueError):
    """An input violates a documented precondition or invariant."""


class _EntryError(ValidationError):
    """A violation located at matrix entry (i, j)."""

    def __init__(self, message: str, i: int | None = None, j: int | None = None):
        super().__init__(message)
        self.i = i
        self.j = j


class TripleOutOfRange(_EntryError):
    """A (mu, gamma, beta) value leaves [0,1] or its sum exceeds 1."""


class DiagonalNotZero(ValidationError):
    """A relation diagonal entry is not exactly (0, 0, 0)."""

    def __init__(self, message: str, i: int | None = None):
        super().__init__(message)
        self.i = i


class AsymmetricEntry(_EntryError):
    """entries[i][j] does not match entries[j][i] componentwise."""


class EdgeExceedsVertexBound(_EntryError):
    """An edge triple breaks the bound imposed by its endpoint attributes."""


class DimensionMismatch(ValidationError):
    """Operands have incompatible shapes or sizes."""


class NeedTwoExperts(ValidationError):
    """An operation over expert pairs received fewer than two relations."""


class IndexOutOfRange(ValidationError):
    """A row or alternative index falls outside the valid range."""


class DegenerateDenominator(ValidationError):
    """A closeness denominator is zero for the requested mode."""


class ParameterOutOfRange(ValidationError):
    """A scalar parameter leaves its documented domain."""


class ZeroDenominator(ValidationError):
    """A normalization denominator is zero."""


class OverrideShapeMismatch(ValidationError):
    """An injected checkpoint value has the wrong shape or keys."""


class SchemaViolation(ValidationError):
    """An input document breaks the strict schema."""

    def __init__(self, field: str, message: str | None = None):
        super().__init__(message or f"schema violation at field {field!r}")
        self.field = field


def in_context(error: ValidationError, context: str) -> ValidationError:
    """error again, of its own type and with its own attributes, its
    message read as "context: message"."""
    again = type(error).__new__(type(error))
    again.__dict__.update(vars(error))
    again.args = (f"{context}: {error}",)
    return again


class ComputationError(RuntimeError):
    """A numerical procedure failed to produce a trustworthy result."""


class NoConvergence(ComputationError):
    """The eigensolver failed to converge."""


class IdentityViolated(ComputationError):
    """A spectral identity residual exceeded its tolerance."""

    def __init__(self, channel: str, identity: str, residual: float):
        super().__init__(
            f"identity {identity!r} violated on channel {channel!r}: "
            f"residual {residual:.3e}"
        )
        self.channel = channel
        self.identity = identity
        self.residual = residual
