"""Exception hierarchy shared by every module in the package."""

from __future__ import annotations


class RelentError(Exception):
    """Base class for all errors raised by this package."""


class ConstructionError(RelentError, ValueError):
    """An invariant was violated while building a value.

    ``code`` is a stable machine-readable identifier, one distinct code per
    invariant, so callers (notably the scenario loader) can map failures to
    precise diagnostics.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class SpaceMismatch(RelentError):
    """Two values that must live on the same sample space do not."""


class ZeroMassEvent(RelentError):
    """Conditioning on an event whose probability is below the zero-mass threshold."""


class DomainError(RelentError):
    """A scalar argument lies outside the documented domain."""


class SupportViolation(RelentError):
    """A posterior puts mass on an outcome where the prior has none."""


class InfeasibleConstraint(RelentError):
    """No distribution on the prior's support satisfies the constraint set.

    ``reason`` is the certificate, in words: a probability target outside
    [0, 1]; a row whose target lies beyond its range on the outcomes still
    possible (the stake y = +e_j or -e_j loses in every one of them); or the
    dual multipliers lam that separate the targets b from every distribution
    on the prior's support (lam . b exceeds max_i (A^T lam)_i).
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class NonConvergence(RelentError):
    """The iteration budget ran out before the residual reached tolerance."""


class DegenerateConditional(RelentError):
    """A conditional constraint was met only by annihilating the conditioning event."""


class ParseError(RelentError):
    """A scenario document is not well-formed JSON."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(RelentError):
    """A scenario document is well-formed JSON but violates the schema.

    Carries the same kind of stable ``code`` as :class:`ConstructionError`.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
