"""Decision-theoretic audit of probability forecasts under quadratic loss.

A forecast system assigns a number to each of a list of events. Score
it in a world by summing the squared gaps between each forecast and the
event's 0/1 truth value there. A system is admissible when no rival
forecast does strictly better in every world.

Geometry does all the work: each outcome induces a 0/1 valuation
vector, its row of V, the bool matrix of the events' masks, and a
forecast vector is admissible exactly when it lies in the convex hull
of those vertices (any exterior point is strictly beaten, in every
world, by its Euclidean projection onto the hull). The audit therefore
computes that projection; for exterior points the projection is
returned as an explicit dominating forecast, so the verdict can be
checked by direct enumeration rather than taken on faith.

The audit forms the shifted valuations W = V - x once, in float64 and
exactly, as from a 0/1 float V. The squared lengths of its rows are the
book's per-world losses, and :func:`_project_to_hull` finds the point
of W's hull nearest the origin by Wolfe's active-set minimum-norm
method, with the active rows and their bordered Gram matrix in buffers
that grow by one row per entering vertex. :func:`world_losses` scores
any forecasts in every world in one batched call. ``WorldValuation``,
``world_valuations`` and ``quadratic_loss`` score one world at a time
and are kept as the reference that the tests enumerate against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConstructionError, NonConvergence
from .spaces import Distribution, Event, SampleSpace, _ArrayValued, _finite_array, _readonly
from .spaces import _Value, _require_same_space, _row_dots

#: Forecasts whose distance to the hull is at or below this are
#: admissible; beyond it the projection strictly dominates.
ADMISSIBLE_DIST = 1e-9

#: Projection iteration limits. The active-set method terminates
#: finitely on its own; these are safety rails.
MAX_MAJOR_STEPS = 10_000
GAP_TOL = 1e-14

#: The affine minimizer's weights count as a convex combination down to minus this, the
#: rounding of the small solve that gives them, which ends the minor cycle.
AFFINE_WEIGHT_TOL = 1e-12

#: A point whose weight in the combination falls to this or below leaves the active set.
DROP_WEIGHT = 1e-14


class ForecastSystem(_ArrayValued):
    """Numbers x_i announced for events E_i over one sample space.

    Stored as ``array``, a read-only float64 vector aligned with ``events``;
    ``forecasts`` is a tuple view. Forecasts may fall outside [0, 1]:
    incoherent inputs are exactly the interesting case for the audit.
    ``valuation_matrix``, set when the system is built, holds a read-only,
    contiguous bool row per outcome: the truth values of every event there.
    """

    _keys = ("space", "events")

    space: SampleSpace
    events: tuple[Event, ...]
    array: np.ndarray

    def __post_init__(self):
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "array", _finite_array(
            self.array, (len(events),), "forecast", "forecast.length_mismatch",
            "{shape[0]} events but {size} forecasts", "forecasts must be finite numbers"))
        for e in events:
            _require_same_space(e.space, self.space, "forecast", "forecast event")
        rows = np.array([e.indicator for e in events], bool).reshape(len(events), len(self.space))
        object.__setattr__(self, "valuation_matrix", _readonly(rows.T.copy()))

    @classmethod
    def from_distribution(cls, dist: Distribution, events: tuple[Event, ...]) -> "ForecastSystem":
        """The forecast system a probability distribution would announce."""
        return cls(dist.space, tuple(events), tuple(dist.prob(e) for e in events))

    @property
    def forecasts(self) -> tuple[float, ...]:
        return tuple(self.array.tolist())


def world_losses(fs: ForecastSystem, forecasts: np.ndarray | Sequence[float]) -> np.ndarray:
    """Quadratic loss of ``forecasts`` (one per event of ``fs``) in every world, in space order.

    Each world's gap row is dotted with itself as :func:`quadratic_loss`'s
    ``d @ d`` would be, so the two agree bit for bit.
    """
    x = _finite_array(
        forecasts, (len(fs.events),), "valuation", "valuation.length_mismatch",
        "{shape[0]} events but {size} forecasts", "forecasts must be finite numbers")
    diffs = fs.valuation_matrix - x
    return _row_dots(diffs, diffs)


class WorldValuation(_Value):
    """Truth values v(E_1)..v(E_n) of the events in one world (a reference for the tests)."""

    outcome: str
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if any(v not in (0.0, 1.0) for v in self.values):
            raise ConstructionError("valuation.not_binary", "valuations must be exactly 0 or 1")

    @classmethod
    def for_outcome(cls, fs: ForecastSystem, outcome: str) -> "WorldValuation":
        if outcome not in fs.space:
            raise ConstructionError(
                "valuation.unknown_outcome", f"outcome {outcome!r} not in the space"
            )
        row = fs.valuation_matrix[fs.space.index[outcome]]
        return cls(outcome, tuple(row))


def world_valuations(fs: ForecastSystem) -> tuple[WorldValuation, ...]:
    """One valuation per outcome, in space order (reference for the tests)."""
    return tuple(WorldValuation.for_outcome(fs, x) for x in fs.space.outcomes)


def quadratic_loss(fs: ForecastSystem, w: WorldValuation) -> float:
    """Sum of squared forecast errors in world ``w`` (reference for :func:`world_losses`)."""
    if len(w.values) != len(fs.events):
        raise ConstructionError(
            "valuation.length_mismatch",
            f"valuation covers {len(w.values)} events, system has {len(fs.events)}",
        )
    diff = np.array(w.values) - fs.array
    return float(diff @ diff)


class AdmissibilityVerdict(_Value):
    """Either a clean bill or an explicit witness of domination, on the audited ``space``.

    When inadmissible, ``dominating`` is the hull projection of the
    forecasts and ``margin`` is the smallest per-world loss improvement
    it achieves (equal to the squared projection distance, which the
    hull geometry guarantees as a floor). ``losses`` are the book's
    loss in each world of ``space`` and ``dominating_losses`` the
    dominator's (empty when admissible), both bit for bit as
    :func:`world_losses` gives them, in space order; ``margin`` is the
    minimum of their differences. The verdict names its worlds, so it
    renders its world table without the audited system.
    """

    space: SampleSpace
    admissible: bool
    dominating: tuple[float, ...] | None
    margin: float
    losses: tuple[float, ...]
    dominating_losses: tuple[float, ...] = ()

    def __post_init__(self):
        ok = (self.dominating is None) == self.admissible and (
            (self.margin == 0.0) if self.admissible else (self.margin > 0.0)
        ) and len(self.losses) == len(self.space)
        if not ok or len(self.dominating_losses) != (0 if self.admissible else len(self.losses)):
            raise ConstructionError(
                "verdict.inconsistent",
                "verdicts carry a loss per world; admissible ones carry no dominator, no "
                "dominator losses and zero margin; inadmissible ones carry all three",
            )


def _project_to_hull(W: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Nearest point to the origin of the convex hull of the rows of ``W``.

    ``norms`` holds each row's squared length. The audit passes the shifted
    valuations W = V - x and adds x to the result.

    Active-set minimum-norm method (Wolfe 1976). Each major step adds the
    row that the current point z favours most, argmin W @ z; the same
    product gives the gap z.z - min(W @ z). Each minor step jumps to the
    affine minimiser of the active rows S: one ``solve`` of the bordered
    Gram system G y = 1 with G = S S^T + 1 1^T, then alpha = y / sum(y),
    which meets S S^T alpha = const and sum(alpha) = 1. Adding 1 1^T makes
    G nonsingular exactly when the active rows are affinely independent,
    which the method keeps. When a coefficient would go negative it steps
    back to the boundary and drops that row, so the minor loop runs at
    most once per active row.

    S and G live in buffers of d + 2 rows: at most d + 1 affinely
    independent points in R^d, plus the entering one. An entering row j
    goes to S[k], and S[:k + 1] @ W[j] + 1 becomes G's row and column k;
    a drop compacts both buffers to the kept indices.

    It stops when the gap is within ``GAP_TOL`` of the row scale, or when
    the entering row is already active (no row improves on z; solving
    again would meet a singular G); if neither happens within
    ``MAX_MAJOR_STEPS`` it raises :class:`NonConvergence`. Unlike plain
    segment line search this reaches the exact face, so projection
    distances are machine precision and the admissibility threshold is
    meaningful.
    """
    d = W.shape[1]
    S = np.empty((d + 2, d))
    G = np.empty((d + 2, d + 2))
    ones = np.ones(d + 2)
    scale = 1.0 + float(norms.max(initial=0.0))
    active = [int(np.argmin(norms))]
    S[0] = W[active[0]]
    G[0, 0] = norms[active[0]] + 1.0
    beta = np.array([1.0])
    z = S[0].copy()
    for _ in range(MAX_MAJOR_STEPS):
        wz = W @ z
        j = int(np.argmin(wz))
        if float(z @ z) - float(wz[j]) <= GAP_TOL * scale or j in active:
            break
        k = len(active)
        S[k] = W[j]
        G[k, :k + 1] = G[:k + 1, k] = S[:k + 1] @ W[j] + 1.0
        active.append(j)
        beta = np.concatenate((beta, [0.0]))
        k += 1
        for _minor in range(k):
            y = np.linalg.solve(G[:k, :k], ones[:k])
            alpha = y / y.sum()
            if alpha.min() >= -AFFINE_WEIGHT_TOL:
                beta = np.maximum(alpha, 0.0)
                beta /= beta.sum()
                break
            # walk toward alpha until the first coefficient hits zero
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(alpha < beta, beta / (beta - alpha), np.inf)
            theta = float(min(1.0, ratio[alpha < 0.0].min()))
            beta = (1.0 - theta) * beta + theta * alpha
            keep = np.flatnonzero(beta > DROP_WEIGHT)
            active = [active[i] for i in keep]
            k = len(keep)
            S[:k], G[:k, :k] = S[keep], G[np.ix_(keep, keep)]
            beta = beta[keep]
            beta /= beta.sum()
        z = beta @ S[:k]
    else:  # an unfinished projection would call a dominated book admissible
        gap = float(z @ z) - float((W @ z).min())
        raise NonConvergence(f"the hull projection stopped after {MAX_MAJOR_STEPS} major steps "
                             f"with gap {gap:g} above {GAP_TOL * scale:g}")
    return z


def audit_admissibility(fs: ForecastSystem) -> AdmissibilityVerdict:
    """Decide whether any forecast beats ``fs`` in every world, and produce it.

    Admissible exactly when the forecast vector lies within
    ``ADMISSIBLE_DIST`` of the convex hull of the world valuations.
    Otherwise the returned dominating forecast is the hull projection,
    and the margin is its worst-case (smallest) loss improvement over
    the original, which is strictly positive.

    Just beyond ``ADMISSIBLE_DIST`` the true margin (about 1e-18) is below
    the rounding of the losses, so the computed one can come out at or
    below zero: no dominator can be checked at float64 precision there,
    and the book is reported admissible. Raises :class:`NonConvergence`
    when the projection does not finish.
    """
    x = fs.array
    W = fs.valuation_matrix - x  # world_losses(fs, x)'s gap rows, formed once
    losses = _row_dots(W, W)
    projection = _project_to_hull(W, losses) + x
    del W  # free it before the report's tuples and the dominator's own gap rows
    if float(np.linalg.norm(projection - x)) > ADMISSIBLE_DIST:
        after = world_losses(fs, projection)
        margin = float((losses - after).min())
        if margin > 0.0:
            return AdmissibilityVerdict(fs.space, False, tuple(projection.tolist()), margin,
                                        tuple(losses.tolist()), tuple(after.tolist()))
    return AdmissibilityVerdict(fs.space, True, None, 0.0, tuple(losses.tolist()))
