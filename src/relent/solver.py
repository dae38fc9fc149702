"""Belief updates that stay as close to the prior as possible.

Given a prior and linear constraints on the posterior, the update picks
the unique posterior maximizing entropy relative to the prior subject
to the constraints. A target at a row's extreme (the least or greatest
value the row takes on the outcomes still possible) has no finite
multiplier; it shrinks the support instead, to the outcomes where the
row attains that extreme (mass can never re-enter a zeroed outcome).
Disjoint 0/1 rows of one constraint left there are Jeffrey's cells; the
live outcomes they miss are one more, with the weight they leave, and
with no row left that is conditioning on the support. The general case
is solved in the dual on the pinned support: the optimum has the form

    posterior_i  proportional to  prior_i * exp(sum_j lam_j * coeffs[j][i])

and the multipliers ``lam`` maximize the concave dual
``lam . targets - log Z(lam)``. Before the first step, row k leaves the
dual, with multiplier 0, when the rows kept before it span it on the
live support: with matrix_rank's threshold t times each row's sum of
squares added to the rows' covariance at uniform weights, k's Cholesky
pivot is under sqrt(t) times its variance, and its stake y (y_k = 1)
gives one value y . A_i, up to rounding, on every outcome; the group's
targets then move until they agree (Lawson's reweighted least squares,
toward moving none by more than tol). Damped Newton steps on the kept
rows, each taken only if the dual rises by ARMIJO times its slope, stop
once every active row is within tol of its target. Every product with
the rows goes through the ``System``'s ``Matrix``, restricted to the live
outcomes and, for the Newton system, to the kept rows: A p, A^T lam, row
sums and ranges; the closed form is two of them, each cell's mass on the
live outcomes, A (p * live), and A^T of those masses and of the targets,
each outcome's cell mass and weight. A partition of at least
CELL_INDEX_ROWS cells is a block there, held as its cell index, and each
of those products reads it with one ``bincount`` or one gather, at O(n).
The selection's covariance and each step's Hessian are Gram
products A diag(w) A^T of the rows, formed in one place, ``_gram``: a
block enters as the diagonal of its cell masses, one ``bincount`` table
against another block and one weighted ``bincount`` against each dense
row, and the dense rows through a dense product. The selection forms its
covariance in place in the unit Gram and raises its diagonal in place to
factor it, so it holds three m x m matrices at the factorization. A stake
y refutes the targets, here as in triage, when y . targets lies outside
y . A_i's range on the live outcomes by more than |y|_1 tol plus rounding;
here the stakes are each such row k's y, and lam at every iterate, since
an infeasible set's dual is unbounded and lam . targets outgrows
max_i (A^T lam)_i. Each refusal raises its stake as a ``Witness`` on the
rows' compiled numbers.
"""

from __future__ import annotations

import math
from typing import Literal, Sequence

import numpy as np

from . import constraints as _constraints
from . import information
from .constraints import Constraint, Matrix, PartitionWeights, System, Witness
from .errors import ConstructionError, DegenerateConditional, InfeasibleConstraint, NonConvergence
from .spaces import ZERO_MASS, Distribution, Partition, _finite_scalar, _integer, _reweight
from .spaces import _Value, _row_dots

#: Added to the dual Hessian's diagonal. Dependent rows leave before the first step, so it
#: only damps a step whose Hessian is near singular because a row has tiny prior mass.
HESS_EPS = 1e-12

#: Columns per block of the Hessian's dense product, on the dense rows (those outside the
#: System's blocks): each solve's workspace holds this many columns of B = A diag(sqrt p)
#: on those rows at most, so its size does not grow with the space, and a block stays in
#: cache while BLAS reads it. The selection's product at unit weights is one A A^T on those
#: rows, and no workspace is written for a block's rows.
HESS_BLOCK = 1 << 14

#: Armijo's sufficient-increase fraction: a trial lam + t * step is accepted
#: only if the dual rises by at least ARMIJO * t * (grad . step), so a step that
#: gains far less than its slope promises (one that collapses p onto a single
#: outcome, say) is halved instead of taken.
ARMIJO = 0.25

#: The Armijo test forgives a shortfall of this times 1 + |dual|, the rounding of the two
#: log Z evaluations it compares, so a step that rounding alone holds back is taken.
ARMIJO_ROUNDING = 1e-15

Method = Literal["dual_newton", "jeffrey", "conditionalization", "no_op"]


class SolverOptions(_Value):
    """Tunables for :func:`maxent_update`.

    tol is the convergence threshold on the largest absolute constraint
    violation, and also how far a target may lie beyond its row's range
    before triage calls it infeasible; max_iter is the budget of Newton
    steps. use_fast_paths lets the rows triage leaves take Jeffrey's closed
    form instead of the dual when they are disjoint 0/1 rows of one
    constraint (module docstring); it changes nothing else, since with no
    row left the update conditions either way. The dual
    iteration always starts from zero multipliers. Each field has a caller:
    the CLI's ``--tol`` and ``--max-iter``, and the acceptance gate, which
    turns the fast paths off to check the dual against Jeffrey's rule.
    """

    tol: float = 1e-10
    max_iter: int = 200
    use_fast_paths: bool = True

    def __post_init__(self):
        object.__setattr__(self, "tol", _finite_scalar(
            self.tol, "options.bad_tol", "tol must be positive", lambda x: x > 0.0))
        _integer(self.max_iter, "options.bad_max_iter", "max_iter must be an int of at least 1", 1)
        if not isinstance(self.use_fast_paths, (bool, np.bool_)):  # "no" would be truthy
            raise ConstructionError(
                "options.bad_use_fast_paths",
                f"use_fast_paths must be a bool, got {self.use_fast_paths!r}",
            )
        object.__setattr__(self, "use_fast_paths", bool(self.use_fast_paths))


class UpdateReport(_Value):
    """Posterior plus the evidence that it actually solves the problem.

    multipliers are the dual coordinates of the active compiled rows, in
    compilation order, 0 for a row the live support makes dependent on
    earlier ones; Jeffrey's rule and conditioning solve no dual and report
    an empty tuple, and a no-op update reports an explicit zero per row
    (the prior itself is dual-optimal there).
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

    This is :func:`maxent_update` on one :class:`PartitionWeights` at the default
    :class:`SolverOptions`: the prior as it is when every weight meets its cell's mass
    within tol, else Jeffrey's rule (:func:`~relent.spaces.condition` is its kernel on one
    cell of weight 1). It raises whatever :func:`maxent_update` raises, with the same
    text: :class:`InfeasibleConstraint` (positive weight beyond tol on a cell with zero
    prior mass, say) and :class:`NonConvergence` included.
    """
    return maxent_update(prior, (PartitionWeights(partition, tuple(weights)),)).posterior


def _check_conditionals(posterior: Distribution, system: System, constraints: Sequence) -> None:
    # the linearized form of P(a|b) = v is vacuous when P(b) ends up zero
    for j, given in enumerate(system.given):
        if given is not None and posterior.prob(given) <= ZERO_MASS:
            raise DegenerateConditional(
                f"conditioning event of {constraints[system.source[j]].describe()} has zero "
                "posterior probability; the conditional constraint holds only vacuously"
            )


def _gram(A: Matrix, rows=slice(None)):
    """The function of weights p (None for unit weights) that gives A diag(p) A^T on ``rows``
    of A: the one place the dual forms a Gram product (module docstring, HESS_BLOCK), with
    the blocks taken from the matrix and the workspace set up once."""
    if A.blocks:
        A, rows = A.take(np.arange(A.m)[rows]), slice(None)
    m, blocks, dense, D = A.m, A.blocks, A.dense, A.A  # D: the dense rows
    work = np.empty((np.arange(len(D))[rows].size, min(D.shape[1], HESS_BLOCK)))  # p's products

    def dense_gram(p=None):
        if p is None:
            return (B := D[rows]) @ B.T  # symmetric, so BLAS forms one triangle (syrk)
        n, width = D.shape[1], work.shape[1]
        for s in range(0, n, width):
            block = work[:, : min(width, n - s)]
            np.multiply(D[rows, s : s + width], np.sqrt(p[s : s + width]), out=block)
            product = block @ block.T
            gram = product if s == 0 else gram + product
        return gram

    if not blocks:
        return dense_gram

    def gram(p=None):
        out = np.zeros((m, m))
        if dense.size:
            out[np.ix_(dense, dense)] = dense_gram(p)
        for i, (r0, r1, cell) in enumerate(blocks):
            at, size = np.arange(r0, r1), r1 - r0 + 1
            out[at, at] = np.bincount(cell, p, size)[:-1]  # disjoint: a diagonal block
            for s0, s1, cell2 in blocks[:i]:
                table = np.bincount(cell * (s1 - s0 + 1) + cell2, p, size * (s1 - s0 + 1))
                out[r0:r1, s0:s1] = meet = table.reshape(size, s1 - s0 + 1)[:-1, :-1]
                out[s0:s1, r0:r1] = meet.T
        for j, row in zip(dense, D):
            row = row if p is None else row * p
            for r0, r1, cell in blocks:
                out[r0:r1, j] = out[j, r0:r1] = np.bincount(cell, row, r1 - r0 + 1)[:-1]
        return out

    return gram


def _refute(y: np.ndarray, index: tuple[int, ...], b: np.ndarray, lo: float, hi: float):
    """Raise the witness of the stake ``y`` on the compiled rows ``index`` (module docstring)."""
    k = np.flatnonzero(y).tolist()
    raise InfeasibleConstraint(Witness(
        tuple(index[j] for j in k), tuple(y[k].tolist()), float(y @ b), float(lo), float(hi)))


def _independent_rows(A: Matrix, b: np.ndarray, index, row_max: np.ndarray, tol: float):
    """The rows the Newton system keeps, and the targets it solves for (module docstring)."""
    m, n = A.m, A.A.shape[1]
    cov = _gram(A)()
    ss = cov.diagonal().copy()  # each row's sum of squares
    cov -= np.outer(total := A.dot(), total / n)  # in place: n times the covariance
    tiny, var = max(m, n) * np.finfo(float).eps, cov.diagonal().copy()
    cov.flat[:: m + 1] += tiny * ss  # tiny times it outweighs the rounding of cov
    try:
        keep = np.linalg.cholesky(cov).diagonal() ** 2 > math.sqrt(tiny) * var
    except np.linalg.LinAlgError:  # rounding left no covariance to judge by
        return slice(None), b
    cov.flat[:: m + 1] = var
    if keep.all():
        return slice(None), b
    Y = np.eye(m)[drop := ~keep]
    Y[:, keep] = -np.linalg.solve(cov[keep][:, keep], cov[keep][:, drop]).T
    lo, hi, absY = (V := A.tdot(Y)).min(axis=1), V.max(axis=1), np.abs(Y)
    gap, half, slack = Y @ b - (lo + hi) / 2, (hi - lo) / 2, m * tiny * (absY @ row_max)
    for d in np.flatnonzero(np.abs(gap) - half - slack > absY.sum(axis=1) * tol)[:1]:
        _refute(Y[d], index, b, lo[d], hi[d])
    exact = half <= slack  # slack bounds the rounding of y . A_i and of y . b
    keep[drop] = ~exact
    Y, gap, share = Y[exact], gap[exact], np.ones(m)
    for _ in range(m):  # Lawson's reweighting, toward the least largest move
        move = share * (np.linalg.solve((Y * share) @ Y.T, gap) @ Y)
        if (most := np.abs(move).max()) <= tol / 2:  # clear of tol, whatever the rounding
            break
        share = np.minimum(share * most / np.maximum(np.abs(move), tiny * most), tiny ** -0.5)
    return np.flatnonzero(keep), b - move


def _dual_newton(
    q: np.ndarray, A: Matrix, b: np.ndarray, index: tuple[int, ...], options: SolverOptions,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Maximize lam . b - log Z(lam) for the reduced, strictly positive prior ``q``.

    Returns (posterior on the reduced index, multipliers, accepted steps).
    Raises :class:`InfeasibleConstraint` when a stake on the rows of ``A``,
    compiled rows ``index``, refutes ``b`` (see the module docstring), and
    :class:`NonConvergence` when the budget runs out first or no step along
    the Newton direction, however short, raises the dual.
    """
    logq = np.log(q)
    lam = np.zeros(A.m)
    lo, hi = A.ranges()
    row_max = np.maximum(hi, -lo)  # max |A_ij| without |A|

    def evaluate(at: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """The given A^T lam, the posterior it induces, and log Z(lam)."""
        z = logq + at  # the one n-vector each evaluation allocates
        shift = float(z.max())
        z -= shift
        np.exp(z, out=z)
        total = float(z.sum())
        z /= total
        return at, z, shift + math.log(total)

    rows, target = _independent_rows(A, b, index, row_max, options.tol)
    hessian = _gram(A, rows)
    # a stake's tol per row, plus twice the rounding of the m-term dots lam . b and A^T lam
    stake_tol = options.tol + 2 * len(b) * np.finfo(float).eps * (row_max + np.abs(b))
    at, p, logz = evaluate(A.tdot(lam))
    iterations, stall, step = 0, "", np.zeros_like(lam)  # a dropped row never steps
    while True:
        Ap = A.dot(p)
        grad = target - Ap
        res = float(np.abs(b - Ap).max())  # every active row, against the caller's targets
        if res <= options.tol:
            return p, lam, iterations
        lam_b, margin = float(lam @ b), float(np.abs(lam) @ stake_tol)
        # at may carry the rounding of halved steps; the proof rests on A^T lam itself
        if lam_b - float(at.max()) > margin and lam_b - float((v := A.tdot(lam)).max()) > margin:
            _refute(lam, index, b, v.min(), v.max())
        if iterations >= options.max_iter:
            break
        hess = hessian(p)
        hess -= np.outer(Apk := Ap[rows], Apk)
        hess.flat[:: len(hess) + 1] += HESS_EPS
        try:
            step[rows] = np.linalg.solve(hess, grad[rows])
        except np.linalg.LinAlgError:  # p has left too few outcomes to tell the kept rows apart
            step[:] = 0.0  # so the line search below stalls
        gval = float(lam @ target) - logz
        slope = ARMIJO * max(float(grad @ step), 0.0)
        # halve until the step no longer moves lam; t reaches 0 only on a step that is not
        # finite. Trials after the first move A^T lam along d = A^T step, at O(n) each.
        t, d = 1.0, None
        while t and ((cand := lam + t * step) != lam).any():
            trial = evaluate(A.tdot(cand) if d is None else at + t * d)
            rounding = ARMIJO_ROUNDING * (1.0 + abs(gval))
            if float(cand @ target) - trial[2] >= gval + t * slope - rounding:
                break
            if d is None:
                d = A.tdot(step)
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


def _closed_form(prior: Distribution, rows: System, live):
    """Each outcome's cell mass and cell weight under Jeffrey's rule on the rows triage
    leaves, ``rows``, and the live outcomes they miss (module docstring), both read through
    the rows' ``Matrix``, or None if it does not apply. Rows of one constraint are disjoint:
    only a partition compiles to more than one row."""
    if rows.b.size and rows.source[0] != rows.source[-1]:
        return None
    if not ((rows.A == 0.0) | (rows.A == 1.0)).all():  # a block's rows are 0/1 already
        return None
    A, p = rows.matrix, prior.array
    # another constraint's pin can empty outcomes in a row, so a cell's mass is its live one
    mass = A.tdot(A.dot(p * live, _row_dots))
    # a live outcome has prior mass, so its cell has too: the live outcomes no row holds
    rest, left = live & (mass == 0.0), 1.0 - math.fsum(rows.b.tolist())
    if not rest.any() and abs(left) > ZERO_MASS:  # dust at most is left; more is the dual's
        return None
    return mass + rest * (p @ rest), A.tdot(rows.b) * live + rest * left


def maxent_update(
    prior: Distribution,
    constraints: Sequence[Constraint],
    options: SolverOptions = SolverOptions(),
) -> UpdateReport:
    """Update ``prior`` to satisfy ``constraints``, moving as little as possible.

    One pipeline: the row-range pass of :func:`~relent.constraints.triage_feasibility`,
    which raises its row certificates and hands on the live support and the rows it
    leaves as one :class:`System`, the no-op check, then on the pinned support either
    Jeffrey's closed form on those rows (conditioning when none is left; with rows
    left, only with ``options.use_fast_paths``) or the dual Newton iteration.

    Raises :class:`InfeasibleConstraint`, :class:`NonConvergence`, or
    :class:`DegenerateConditional` (conditioning event driven to zero
    posterior mass).
    """
    constraints = tuple(constraints)
    system = _constraints.compile_all(constraints, prior.space)
    live, rows = _constraints.triage_feasibility(system, prior, options.tol)

    r0 = _constraints.residual(prior, system)
    if r0 <= options.tol:
        _check_conditionals(prior, system, constraints)
        return UpdateReport(prior, (0.0,) * len(system.b), 0, r0, 0.0, "no_op")

    multipliers: tuple[float, ...] = ()
    iterations = 0
    fast = options.use_fast_paths or not rows.b.size
    reweighting = _closed_form(prior, rows, live) if fast else None
    if reweighting is not None:
        posterior = _reweight(prior, *reweighting)
        method: Method = "jeffrey" if rows.b.size else "conditionalization"
    else:
        q = prior.array[live]
        q = q / q.sum()
        A = rows.matrix if live.all() else rows.matrix.compress(live)
        p_live, lam, iterations = _dual_newton(q, A, rows.b, rows.index, options)
        multipliers = tuple(lam.tolist())
        full = np.zeros(len(prior.space))
        full[live] = p_live
        posterior = Distribution.from_array(prior.space, full)
        method = "dual_newton"

    _check_conditionals(posterior, system, constraints)
    return UpdateReport(
        posterior,
        multipliers,
        iterations,
        _constraints.residual(posterior, system),
        information.relative_entropy(posterior, prior),
        method,
    )
