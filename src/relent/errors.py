"""Exception hierarchy shared by every module in the package.

:class:`ConstructionError` is the one error that carries a stable
``code``, raised for input that breaks an invariant or the scenario
schema and for an argument outside a function's domain.
"""

from __future__ import annotations


class RelentError(Exception):
    """Base class for all errors raised by this package."""


class ConstructionError(RelentError, ValueError):
    """An invariant or the scenario schema was violated while building a value,
    or an argument lies outside a function's domain.

    ``code`` is a stable machine-readable identifier, one distinct code per
    offense (``dist.sum_not_one``, ``event.space_mismatch``), so callers
    can map failures to precise diagnostics.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class ZeroMassEvent(RelentError):
    """Conditioning on an event whose probability is below the zero-mass threshold."""


class InfeasibleConstraint(RelentError):
    """No distribution on the prior's support satisfies the constraint set.

    ``reason`` is the certificate, in words, and names a stake vector: a
    row whose target lies beyond its range on the outcomes still possible
    (y = +e_j or -e_j loses in every one of them), whatever its kind; a
    stake y on dependent active rows (y . b misses the one value y . A_i
    takes there by over |y|_1 tol); or dual multipliers lam that separate b
    from every distribution on the support (lam . b > max_i (A^T lam)_i).
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
