"""Belief updates that stay as close to the prior as possible.

Given a prior and linear constraints on the posterior, the update picks
the unique posterior maximizing entropy relative to the prior subject
to the constraints. A target at a row's extreme (the least or greatest
value the row takes on the outcomes still possible) has no finite
multiplier; it shrinks the support instead, to the outcomes where the
row attains that extreme (mass can never re-enter a zeroed outcome),
and with no other constraint left the update is conditioning on that
support. A lone partition reweighting has Jeffrey's closed form. The
general case is solved in the dual on the pinned support: the optimum
has the form

    posterior_i  proportional to  prior_i * exp(sum_j lam_j * coeffs[j][i])

and the multipliers ``lam`` maximize the concave dual
``lam . targets - log Z(lam)``. A damped Newton iteration on that dual
converges quadratically near the optimum. On an infeasible set the dual
is unbounded, and each iterate is tested as a proof of that: every
distribution p on the support has lam . (A p) <= max_i (A^T lam)_i,
so an iterate with ``lam . targets`` above that bound rules out any posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from . import constraints as _constraints
from . import information
from .constraints import CondProb, Constraint, EventProb, PartitionWeights
from .errors import ConstructionError, DegenerateConditional, InfeasibleConstraint, NonConvergence
from .spaces import ZERO_MASS, Distribution, Partition

#: Diagonal regularization added to the dual Hessian so redundant
#: constraint rows (for example the cells of a partition, whose targets
#: already sum to one) cannot make the Newton solve singular.
HESS_EPS = 1e-12

#: Relative margin by which ``lam . b`` must exceed ``max_i (A^T lam)_i`` for
#: a dual iterate to prove infeasibility; far above the rounding of both sides.
SEPARATION_RTOL = 1e-9

Method = Literal["dual_newton", "jeffrey", "conditionalization", "no_op"]


@dataclass(frozen=True)
class SolverOptions:
    """Tunables for :func:`maxent_update`.

    tol is the convergence threshold on the largest absolute constraint
    violation, and also how far a target may lie beyond its row's range
    before triage calls it infeasible; max_iter is the budget of Newton
    steps. use_fast_paths lets a lone partition reweighting, or a lone
    event target strictly between 0 and 1, take Jeffrey's closed form
    instead of the dual; it changes nothing else. The dual iteration
    always starts from zero multipliers. Each field has a caller: the
    CLI's ``--tol`` and ``--max-iter``, and the acceptance gate, which
    turns the fast paths off to check the dual against Jeffrey's rule.
    """

    tol: float = 1e-10
    max_iter: int = 200
    use_fast_paths: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ConstructionError("options.bad_tol", f"tol must be positive, got {self.tol!r}")
        if type(self.max_iter) is not int or self.max_iter < 1:  # a bool is no budget either
            raise ConstructionError(
                "options.bad_max_iter",
                f"max_iter must be an int of at least 1, got {self.max_iter!r}",
            )


@dataclass(frozen=True)
class UpdateReport:
    """Posterior plus the evidence that it actually solves the problem.

    multipliers are the dual coordinates of the active compiled rows,
    in compilation order; Jeffrey's rule and conditioning solve no dual
    and report an empty tuple, and a no-op update reports an explicit
    zero per row (the prior itself is dual-optimal there).
    final_residual is the worst violation over every compiled row of the
    original constraints, and objective is the posterior's entropy
    relative to the prior (nonpositive; zero only for a no-op).
    """

    posterior: Distribution
    multipliers: tuple[float, ...]
    iterations: int
    final_residual: float
    objective: float
    method: Method


def jeffrey_update(
    prior: Distribution, partition: Partition, weights: Sequence[float]
) -> Distribution:
    """Reweight partition cells to ``weights``, preserving odds within each cell.

    This is the maximum-relative-entropy posterior for the constraints
    P(cell_i) = weights[i]. Raises :class:`InfeasibleConstraint` when a
    cell with zero prior mass is assigned positive weight.
    """
    spec = PartitionWeights(partition, tuple(weights))
    out = np.zeros(len(prior.space))
    for cell, w in zip(partition.cells, spec.weights):
        if w == 0.0:
            continue
        m = prior.prob(cell)
        if m == 0.0:
            raise InfeasibleConstraint(
                f"cell {cell.describe()} has zero prior mass but target weight {w:g}"
            )
        scale = w / m
        if math.isfinite(scale):
            out += prior.array * cell.indicator * scale
        else:  # a subnormal m: divide first, every in-cell weight is at most m
            out += prior.array * cell.indicator / m * w
    return Distribution.from_array(prior.space, out)


def _check_conditionals(posterior: Distribution, constraints: Sequence[Constraint]) -> None:
    # the linearized form of P(a|b) = v is vacuous when P(b) ends up zero
    for c in constraints:
        if isinstance(c, CondProb) and posterior.prob(c.given) <= ZERO_MASS:
            raise DegenerateConditional(
                f"conditioning event of {c.describe()} has zero posterior "
                "probability; the conditional constraint holds only vacuously"
            )


def _dual_newton(
    q: np.ndarray, A: np.ndarray, b: np.ndarray, options: SolverOptions
) -> tuple[np.ndarray, np.ndarray, int]:
    """Maximize lam . b - log Z(lam) for the reduced, strictly positive prior ``q``.

    Returns (posterior on the reduced index, multipliers, accepted
    steps). Raises :class:`InfeasibleConstraint` at the first iterate that
    separates ``b`` from every distribution (see the module docstring),
    and :class:`NonConvergence` when the budget runs out first or no step
    along the Newton direction, however short, raises the dual.
    """
    logq = np.log(q)
    lam = np.zeros(A.shape[0])
    row_max = np.abs(A).max(axis=1)

    def evaluate(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """A^T lam, the posterior it induces, and log Z(lam)."""
        at = A.T @ lam
        logits = logq + at
        shift = float(logits.max())
        z = np.exp(logits - shift)
        total = float(z.sum())
        return at, z / total, shift + math.log(total)

    at, p, logz = evaluate(lam)
    iterations, stall = 0, ""
    while True:
        Ap = A @ p
        grad = b - Ap
        res = float(np.max(np.abs(grad)))
        if res <= options.tol:
            return p, lam, iterations
        lam_b = float(lam @ b)
        bound = float(at.max())
        if lam_b - bound > SEPARATION_RTOL * (float(np.abs(lam) @ row_max) + abs(lam_b)):
            raise InfeasibleConstraint(
                f"dual multipliers lam prove that no posterior on the prior's support "
                f"meets the targets b: lam . b = {lam_b:g} exceeds max_i (A^T lam)_i = "
                f"{bound:g}, which bounds lam . (A p) for every such posterior p"
            )
        if iterations >= options.max_iter:
            break
        hess = (A * p) @ A.T - np.outer(Ap, Ap)
        hess[np.diag_indices_from(hess)] += HESS_EPS
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        gval = lam_b - logz
        # halve until the step no longer moves lam; t reaches 0 only on a step that is not finite
        t = 1.0
        while t and not np.array_equal(cand := lam + t * step, lam):
            trial = evaluate(cand)
            if float(cand @ b) - trial[2] >= gval - 1e-15 * (1.0 + abs(gval)):
                break
            t *= 0.5
        else:
            stall = ": no step along the Newton direction raised the dual"
            break
        lam, (at, p, logz) = cand, trial
        iterations += 1

    raise NonConvergence(
        f"update stopped after {iterations} Newton steps with residual {res:g} "
        f"above tol {options.tol:g}{stall}"
    )


def _lone_reweighting(
    constraints: tuple[Constraint, ...],
) -> tuple[Partition, tuple[float, ...]] | None:
    """Cells and weights when ``constraints`` is one reweighting, which Jeffrey's rule solves."""
    c = constraints[0] if len(constraints) == 1 else None
    if isinstance(c, PartitionWeights):
        return c.partition, c.weights
    if isinstance(c, EventProb) and 0.0 < c.value < 1.0:
        return Partition((c.event, c.event.complement())), (c.value, 1.0 - c.value)
    return None


def maxent_update(
    prior: Distribution,
    constraints: Sequence[Constraint],
    options: SolverOptions = SolverOptions(),
) -> UpdateReport:
    """Update ``prior`` to satisfy ``constraints``, moving as little as possible.

    One pipeline: the row-range pass of
    :func:`~relent.constraints.triage_feasibility`, the no-op check,
    Jeffrey's closed form (only with ``options.use_fast_paths``), then the
    pinned support: condition on it when no active row is left, else run
    the dual Newton iteration on it.

    Raises :class:`InfeasibleConstraint`, :class:`NonConvergence`, or
    :class:`DegenerateConditional` (conditioning event driven to zero
    posterior mass).
    """
    constraints = tuple(constraints)
    system = _constraints.compile_all(constraints, prior.space)
    reasons, live, (A, b) = _constraints.triage_feasibility(
        constraints, system, prior, options.tol
    )
    if reasons:
        raise InfeasibleConstraint("; ".join(reasons))

    r0 = _constraints.residual(prior, system)
    if r0 <= options.tol:
        _check_conditionals(prior, constraints)
        return UpdateReport(prior, (0.0,) * len(system[1]), 0, r0, 0.0, "no_op")

    multipliers: tuple[float, ...] = ()
    iterations = 0
    reweighting = _lone_reweighting(constraints) if options.use_fast_paths else None
    if reweighting is not None:
        posterior = jeffrey_update(prior, *reweighting)
        method: Method = "jeffrey"
    elif not b.size:
        kept = live.astype(float)
        posterior = Distribution.from_array(prior.space, prior.array * kept / (prior.array @ kept))
        method = "conditionalization"
    else:
        q = prior.array[live]
        q = q / q.sum()
        if not live.all():
            A = A.compress(live, axis=1)
        p_live, lam, iterations = _dual_newton(q, A, b, options)
        multipliers = tuple(float(x) for x in lam)
        full = np.zeros(len(prior.space))
        full[live] = p_live
        posterior = Distribution.from_array(prior.space, full)
        method = "dual_newton"

    _check_conditionals(posterior, constraints)
    return UpdateReport(
        posterior,
        multipliers,
        iterations,
        _constraints.residual(posterior, system),
        information.relative_entropy(posterior, prior),
        method,
    )
