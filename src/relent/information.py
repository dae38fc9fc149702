"""Information measures on finite distributions.

All quantities are returned in nats (natural log). Conversion to other
units is a presentation concern and happens in the report layer, not
here. Terms with zero probability contribute zero, the usual continuous
extension of p * log(p).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConstructionError
from .spaces import Distribution, JointDistribution, _finite_scalar, _require_same_space, marginal


def self_information(p: float) -> float:
    """Surprisal -log(p) of an event with probability ``p``.

    Defined for p in (0, 1], and ``information.bad_probability``
    otherwise: zero for the certain event, increasing without bound as
    p falls toward zero. Additive over independent events, which is
    what forces the logarithmic form.
    """
    p = _finite_scalar(p, "information.bad_probability",
                       "self-information needs a probability in (0, 1]", lambda x: 0.0 < x <= 1.0)
    return -math.log(p)


def entropy(dist: Distribution) -> float:
    """Expected surprisal of ``dist``, in nats."""
    arr = dist.array
    live = arr > 0.0
    return float(-(arr[live] @ np.log(arr[live])))


def relative_entropy(posterior: Distribution, prior: Distribution) -> float:
    """Entropy of ``posterior`` relative to ``prior``: -sum post * log(post / prior).

    Nonpositive, and zero exactly when the two distributions agree.
    This is the objective that belief updates maximize, so larger
    (closer to zero) means the posterior stays nearer the prior.

    Raises :class:`ConstructionError`, ``dist.outside_support``, if the
    posterior puts mass on an outcome the prior rules out; such a
    posterior is infinitely far from the prior.
    """
    _require_same_space(posterior.space, prior.space, "dist", "posterior")
    post = posterior.array
    pri = prior.array
    live = post > 0.0
    escaped = live & ~(pri > 0.0)
    if escaped.any():
        bad = [posterior.space.outcomes[i] for i in np.flatnonzero(escaped)]
        raise ConstructionError("dist.outside_support",
                                f"posterior has mass on outcomes the prior excludes: {bad}")
    return float(-(post[live] @ (np.log(post[live]) - np.log(pri[live]))))


def conditional_entropy(joint: JointDistribution) -> float:
    """Expected surprisal of the row variable once the column is seen.

    Averages -log prob(row | col) over the joint distribution. Columns
    with zero mass contribute nothing.
    """
    arr = joint.array
    col_mass = arr.sum(axis=0)
    cond = np.divide(
        arr, col_mass[np.newaxis, :], out=np.zeros_like(arr), where=col_mass > 0.0
    )
    live = arr > 0.0
    return float(-(arr[live] @ np.log(cond[live])))


def mutual_information(joint: JointDistribution) -> float:
    """Reduction in row-variable surprisal from observing the column variable.

    entropy(row marginal) minus conditional entropy. Zero when the two
    variables are independent; equals the row entropy when the column
    determines the row exactly.
    """
    return entropy(marginal(joint, "row")) - conditional_entropy(joint)
