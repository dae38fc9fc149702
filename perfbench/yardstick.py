"""Bare-numpy damped Newton on the dual, the yardstick for relent's solver.

It solves the same reduced problem relent's dual loop sees, given as
arrays: a strictly positive prior ``q``, constraint rows ``A`` and
targets ``b``. It uses relent's tolerance, the same Hessian
regularization and the same backtracking acceptance rule, and nothing
else: no constraint objects, no triage, no checks. Its time is the
cost of the numerical work alone.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-10
MAX_ITER = 200
HESS_EPS = 1e-12


def newton(q: np.ndarray, A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Return (posterior, accepted Newton steps); raise RuntimeError if it stalls."""
    logq = np.log(q)
    lam = np.zeros(A.shape[0])

    def posterior_and_logz(lam_: np.ndarray) -> tuple[np.ndarray, float]:
        logits = logq + A.T @ lam_
        shift = float(logits.max())
        z = np.exp(logits - shift)
        total = float(z.sum())
        return z / total, shift + math.log(total)

    for iterations in range(MAX_ITER + 1):
        p, logz = posterior_and_logz(lam)
        grad = b - A @ p
        if float(np.max(np.abs(grad))) <= TOL:
            return p, iterations
        Ap = A @ p
        hess = (A * p) @ A.T - np.outer(Ap, Ap)
        hess[np.diag_indices_from(hess)] += HESS_EPS
        step = np.linalg.solve(hess, grad)
        gval = float(lam @ b) - logz
        t = 1.0
        while t > 1e-14:
            cand = lam + t * step
            _, logz_c = posterior_and_logz(cand)
            if float(cand @ b) - logz_c >= gval - 1e-15 * (1.0 + abs(gval)):
                break
            t *= 0.5
        else:
            break
        lam = cand
    raise RuntimeError("yardstick Newton did not reach the tolerance")
