"""The I-projection at 50 digits: a test oracle that shares no code with relent's solver.

``i_projection(q, A, b)`` returns the distribution p that minimises the relative
entropy to q subject to A p = b. Each row and its target are first mapped affinely
to [0, 1], which keeps the solution because p sums to 1. Newton's method with
backtracking then minimises the dual on the live support {i : q_i > 0} until the
gradient is below 1e-25. ``NoInteriorSolution`` is raised when no solution is
positive on the whole live support: a target at or beyond its row's range, or a
limit that scales some p_i / q_i below 1e-20 as Newton runs away towards a face.
"""

import mpmath
from mpmath import fsum, mpf


class NoInteriorSolution(ArithmeticError):
    """The targets admit no solution that is positive on the whole live support."""


def i_projection(q, A, b, digits=50, max_iter=200):
    with mpmath.workdps(digits):
        live = [i for i, qi in enumerate(q) if qi > 0]
        qlive = [mpf(q[i]) for i in live]
        logq = [mpmath.log(qi) for qi in qlive]
        rows, targets = [], []
        for row, target in zip(A, b):
            vals, target = [mpf(row[i]) for i in live], mpf(target)
            lo, hi = min(vals), max(vals)
            if lo == hi == target:
                continue
            if not lo < target < hi:
                raise NoInteriorSolution(f"target {target} is not inside ({lo}, {hi})")
            rows.append([(v - lo) / (hi - lo) for v in vals])
            targets.append((target - lo) / (hi - lo))

        def tilt(lam):  # the tilted distribution and the dual objective log Z - lam.b
            s = [lq + fsum(l * r[k] for l, r in zip(lam, rows)) for k, lq in enumerate(logq)]
            top = max(s)
            w = [mpmath.exp(x - top) for x in s]
            z = fsum(w)
            return [x / z for x in w], top + mpmath.log(z) - fsum(map(mpmath.fmul, lam, targets))

        lam = [mpf(0)] * len(rows)
        p, f = tilt(lam)
        for _ in range(max_iter):
            mean = [fsum(map(mpmath.fmul, p, r)) for r in rows]
            grad = [mu - t for mu, t in zip(mean, targets)]
            if max(map(abs, grad), default=0) < mpf("1e-25"):
                if min(map(mpmath.fdiv, p, qlive)) < mpf("1e-20"):
                    raise NoInteriorSolution("the constraints force a face of the live support")
                out = [mpf(0)] * len(q)
                for k, i in enumerate(live):
                    out[i] = p[k]
                return out
            cov = mpmath.matrix([[fsum(pk * (r[k] - mr) * (s[k] - ms) for k, pk in enumerate(p))
                                  for s, ms in zip(rows, mean)] for r, mr in zip(rows, mean)])
            step = list(mpmath.lu_solve(cov, mpmath.matrix(grad)))
            slope, t = fsum(map(mpmath.fmul, grad, step)), mpf(1)
            while True:
                trial = [l - t * d for l, d in zip(lam, step)]
                p_new, f_new = tilt(trial)
                if f_new <= f - t * slope / 4:
                    break
                t /= 2
                if t < mpf("1e-30"):
                    raise NoInteriorSolution("the line search stalled")
            lam, p, f = trial, p_new, f_new
        raise NoInteriorSolution(f"Newton took {max_iter} steps; the dual runs away to a face")
