"""Stress the partition-consistency property with randomized trials.

Each trial draws a prior, a partition, fresh cell weights, and (for the
full variant) random within-cell event constraints, then measures the
gap between update-then-condition and condition-then-update. Reports
the worst gap seen; under exact arithmetic it would be zero.

Usage: python3 scripts/audit_axiom4.py [--trials 200] [--seed 0] [--full]
"""

import argparse

import numpy as np

from relent import CondProb, Event, EventProb
from relent.axioms import CellInfo, check_axiom4_full, check_axiom4b, random_reweighting_case
from relent.scenario import fmt10
from relent.spaces import conditional_prob


def random_cell_infos(rng, prior, part):
    """Feasible within-cell pins: nudge an existing conditional slightly."""
    infos = []
    for i, cell in enumerate(part.cells):
        members = cell.labels
        if len(members) < 2 or rng.random() < 0.4:
            continue
        pick = members[int(rng.integers(0, len(members)))]
        a = Event(prior.space, frozenset({pick}))
        current = conditional_prob(prior, a, cell)
        target = float(np.clip(current + rng.uniform(-0.2, 0.2), 0.05, 0.95))
        if rng.random() < 0.5:
            infos.append(CellInfo(i, (EventProb(a, target),)))
        else:
            infos.append(CellInfo(i, (CondProb(a, cell, target),)))
    return tuple(infos)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-max", type=int, default=10)
    ap.add_argument("--full", action="store_true",
                    help="also attach random within-cell constraints")
    args = ap.parse_args()

    worst = 0.0
    failures = 0
    for i in range(args.trials):
        rng = np.random.default_rng([args.seed, i])
        prior, part, weights = random_reweighting_case(rng, args.n_max)
        if args.full:
            infos = random_cell_infos(rng, prior, part)
            report = check_axiom4_full(prior, part, weights, infos, tol=1e-8)
        else:
            report = check_axiom4b(prior, part, weights, tol=1e-8, seed=i)
        worst = max(worst, report.max_deviation)
        failures += int(not report.passed)

    variant = "full" if args.full else "4b"
    print(f"variant: {variant}")
    print(f"trials: {args.trials}")
    print(f"failures: {failures}")
    print(f"worst deviation: {fmt10(worst)}")


if __name__ == "__main__":
    main()
