"""Belief updates that stay as close to the prior as possible.

Given a prior and linear constraints on the posterior, the update picks
the unique posterior maximizing entropy relative to the prior subject
to the constraints. Targets of exactly zero or one have no finite
multiplier; they shrink the support instead (mass can never re-enter a
zeroed outcome), and with no other constraint left the update is
conditioning on that support. A lone partition reweighting has Jeffrey's
closed form. The general case is solved in the dual on the pinned
support: the optimum has the form

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
from .constraints import CondProb, Constraint, EventProb, LinearForm, PartitionWeights
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
    violation, and max_iter the budget of Newton steps. use_fast_paths
    lets a lone partition reweighting, or a lone event target strictly
    between 0 and 1, take Jeffrey's closed form instead of the dual;
    it changes nothing else. init_multipliers seeds the dual iteration
    (one finite value per active compiled row) for warm starts; None
    means start from zero.
    """

    tol: float = 1e-10
    max_iter: int = 200
    use_fast_paths: bool = True
    init_multipliers: tuple[float, ...] | None = None

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ConstructionError("options.bad_tol", f"tol must be positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise ConstructionError(
                "options.bad_max_iter", f"max_iter must be at least 1, got {self.max_iter!r}"
            )
        if self.init_multipliers is not None:
            lam = tuple(float(x) for x in self.init_multipliers)
            if not all(map(math.isfinite, lam)):
                raise ConstructionError(
                    "options.bad_init_multipliers",
                    f"initial multipliers must be finite, got {lam!r}",
                )
            object.__setattr__(self, "init_multipliers", lam)


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
        if m <= ZERO_MASS:
            raise InfeasibleConstraint(
                f"cell {cell.describe()} has zero prior mass but target weight {w:g}"
            )
        out += prior.array * cell.indicator * (w / m)
    return Distribution.from_array(prior.space, out)


def _check_conditionals(posterior: Distribution, constraints: Sequence[Constraint]) -> None:
    # the linearized form of P(a|b) = v is vacuous when P(b) ends up zero
    for c in constraints:
        if isinstance(c, CondProb) and posterior.prob(c.given) <= ZERO_MASS:
            raise DegenerateConditional(
                f"conditioning event of {c.describe()} has zero posterior "
                "probability; the conditional constraint holds only vacuously"
            )


def _pins_and_active_rows(
    prior: Distribution, constraints: Sequence[Constraint], compiled: list[tuple[LinearForm, ...]]
) -> tuple[np.ndarray, list[LinearForm]]:
    """The support left once exact 0/1 pins are honored, and the rows still needing a multiplier.

    A pin is an event or conditional target of exactly 0 or 1, or a cell
    weight of 0. An event pinned to 1 keeps only the outcomes its row
    covers; every other pin drops the outcomes where its row is nonzero.
    """
    mask = prior.support.copy()
    active: list[LinearForm] = []
    for c, forms in zip(constraints, compiled):
        for row in forms:
            if isinstance(c, PartitionWeights):
                pinned = row.target == 0.0
            else:
                pinned = isinstance(c, (EventProb, CondProb)) and c.value in (0.0, 1.0)
            if not pinned:
                active.append(row)
            elif isinstance(c, EventProb) and c.value == 1.0:
                mask &= row.coeffs != 0.0
            else:
                mask &= row.coeffs == 0.0
    return mask, active


def _dual_newton(
    q: np.ndarray, A: np.ndarray, b: np.ndarray, options: SolverOptions
) -> tuple[np.ndarray, np.ndarray, int]:
    """Maximize lam . b - log Z(lam) for the reduced, strictly positive prior ``q``.

    Returns (posterior on the reduced index, multipliers, accepted
    steps). Raises :class:`InfeasibleConstraint` at the first iterate that
    separates ``b`` from every distribution (see the module docstring),
    and :class:`NonConvergence` when the budget runs out first.
    """
    m = A.shape[0]
    logq = np.log(q)
    if options.init_multipliers is not None:
        lam = np.array(options.init_multipliers, dtype=float)
        if lam.shape != (m,):
            raise ConstructionError(
                "options.bad_init_multipliers",
                f"expected {m} initial multipliers, got {lam.size}",
            )
    else:
        lam = np.zeros(m)
    row_max = np.abs(A).max(axis=1)

    def posterior_and_logz(logits: np.ndarray) -> tuple[np.ndarray, float]:
        shift = float(logits.max())
        z = np.exp(logits - shift)
        total = float(z.sum())
        return z / total, shift + math.log(total)

    iterations = 0
    while True:
        at = A.T @ lam
        p, logz = posterior_and_logz(logq + at)
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
        t = 1.0
        accepted = False
        while t > 1e-14:
            cand = lam + t * step
            _, logz_c = posterior_and_logz(logq + A.T @ cand)
            if float(cand @ b) - logz_c >= gval - 1e-15 * (1.0 + abs(gval)):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        lam = cand
        iterations += 1

    raise NonConvergence(
        f"update stopped after {iterations} Newton steps with residual {res:g} "
        f"above tol {options.tol:g}"
    )


def _lone_reweighting(
    constraints: tuple[Constraint, ...],
) -> tuple[Partition, tuple[float, ...]] | None:
    """Cells and weights when ``constraints`` is one reweighting, which Jeffrey's rule solves."""
    c = constraints[0] if len(constraints) == 1 else None
    if isinstance(c, PartitionWeights):
        return c.partition, c.weights
    # an event covering the whole space has no two-cell split
    if isinstance(c, EventProb) and 0.0 < c.value < 1.0 and not c.event.indicator.all():
        return Partition((c.event, c.event.complement())), (c.value, 1.0 - c.value)
    return None


def maxent_update(
    prior: Distribution,
    constraints: Sequence[Constraint],
    options: SolverOptions = SolverOptions(),
) -> UpdateReport:
    """Update ``prior`` to satisfy ``constraints``, moving as little as possible.

    One pipeline: triage, the no-op check, Jeffrey's closed form (only
    with ``options.use_fast_paths``), then the pinned support: condition
    on it when no other row is left, else run the dual Newton iteration.

    Raises :class:`InfeasibleConstraint`, :class:`NonConvergence`, or
    :class:`DegenerateConditional` (conditioning event driven to zero
    posterior mass).
    """
    constraints = tuple(constraints)
    compiled = [_constraints.compile_constraint(c, prior.space) for c in constraints]
    rows = [row for forms in compiled for row in forms]
    reasons = _constraints.triage_feasibility(constraints, prior)
    if reasons:
        raise InfeasibleConstraint("; ".join(reasons))

    r0 = _constraints.residual(prior, rows)
    if r0 <= options.tol:
        _check_conditionals(prior, constraints)
        return UpdateReport(prior, (0.0,) * len(rows), 0, r0, 0.0, "no_op")

    multipliers: tuple[float, ...] = ()
    iterations = 0
    reweighting = _lone_reweighting(constraints) if options.use_fast_paths else None
    if reweighting is not None:
        posterior = jeffrey_update(prior, *reweighting)
        method: Method = "jeffrey"
    else:
        mask, active = _pins_and_active_rows(prior, constraints, compiled)
        kept = mask.astype(float)
        mass = float(prior.array @ kept)
        if mass <= ZERO_MASS:
            raise InfeasibleConstraint(
                "certainty constraints eliminate every outcome the prior allows"
            )
        if not active:
            posterior = Distribution.from_array(prior.space, prior.array * kept / mass)
            method = "conditionalization"
        else:
            live = np.flatnonzero(mask)
            q = prior.array[live]
            q = q / q.sum()
            A = np.array([row.coeffs[live] for row in active])
            b = np.array([row.target for row in active])
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
        _constraints.residual(posterior, rows),
        information.relative_entropy(posterior, prior),
        method,
    )
