"""Checks of every operation against the benchmark's own arrays.

Nothing here calls into relent: residuals come from the generator's rows
``A p - b``, support from the generator's prior, domination from
enumerating the worlds of the generator's valuation matrix.
"""

from __future__ import annotations

import numpy as np

from relent.errors import InfeasibleConstraint

#: Largest allowed |A p - b|, relative to the row's largest coefficient.
#: relent stops at 1e-10; the slack covers summation order.
RESIDUAL_TOL = 1e-8
#: Largest allowed |sum p - 1|.
SUM_TOL = 1e-9
#: Largest allowed L1 distance to a known exact solution.
EXACT_TOL = 1e-6


def check_update(item, posterior: np.ndarray | None, error: BaseException | None) -> list[str]:
    """Problems with one update answer; an empty list means it is correct."""
    if item.expect == "infeasible":
        if isinstance(error, InfeasibleConstraint):
            return []
        return [f"infeasible request answered with {error!r}" if error else
                "infeasible request was not reported infeasible"]
    if error is not None:
        return [f"feasible request failed: {error!r}"]
    p = np.asarray(posterior, dtype=float)
    problems = []
    if p.shape != item.prior.shape:
        return [f"posterior has {p.size} weights for {item.prior.size} outcomes"]
    if (p < 0.0).any():
        problems.append(f"negative posterior weight {p.min()!r}")
    if abs(p.sum() - 1.0) > SUM_TOL:
        problems.append(f"posterior sums to {p.sum()!r}")
    if ((p > 0.0) & (item.prior <= 0.0)).any():
        problems.append("posterior puts mass outside the prior's support")
    scale = np.maximum(1.0, np.abs(item.A).max(axis=1))
    worst = float((np.abs(item.A @ p - item.b) / scale).max(initial=0.0))
    if worst > RESIDUAL_TOL:
        problems.append(f"constraint residual {worst:g} above {RESIDUAL_TOL:g}")
    if item.exact is not None and np.abs(p - item.exact).sum() > EXACT_TOL:
        problems.append(f"posterior is {np.abs(p - item.exact).sum():g} (L1) from the solution")
    return problems


def check_book(item, admissible: bool, dominating) -> list[str]:
    """Problems with one audit verdict, judged by enumerating the worlds."""
    if item.admissible:
        return [] if admissible else ["admissible book was reported dominated"]
    if admissible:
        return ["dominated book was reported admissible"]
    y = np.asarray(dominating, dtype=float)
    before = ((item.V - item.x) ** 2).sum(axis=1)
    after = ((item.V - y) ** 2).sum(axis=1)
    losing = int((after >= before).sum())
    if losing:
        return [f"dominating forecast fails to beat the book in {losing} worlds"]
    return []
