"""Exception hierarchy shared by every module in the package.

:class:`ConstructionError` is the one error that carries a stable
``code``: the domain constructors, the scenario loader and the CLI all
raise it for input that breaks an invariant or the scenario schema.
"""

from __future__ import annotations


class RelentError(Exception):
    """Base class for all errors raised by this package."""


class ConstructionError(RelentError, ValueError):
    """An invariant or the scenario schema was violated while building a value.

    ``code`` is a stable machine-readable identifier, one distinct code per
    invariant or schema offense (``dist.sum_not_one``, ``prior.bad_number``),
    so callers can map failures to precise diagnostics.
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


#: Another name for :class:`ConstructionError`, kept for code that imports it.
ValidationError = ConstructionError
