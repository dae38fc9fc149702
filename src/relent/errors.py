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
    """No distribution on the prior's support satisfies the constraint set within tol.

    ``witnesses`` are the certificates, each a :class:`~relent.constraints.Witness`: a stake
    y on the compiled rows whose price y . b lies outside [min_i y . A_i, max_i y . A_i] on
    the outcomes a posterior may weight by more than |y|_1 tol, so every such posterior
    misses some row by more than tol. ``reason``, also ``str()``, is their "; "-joined text.
    """

    def __init__(self, *witnesses):
        self.witnesses = witnesses
        self.reason = "; ".join(map(str, witnesses))
        super().__init__(self.reason)


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
