"""Map how far the certainty-factor shortcut strays from the exact update.

Sweeps P(H|E) and P(H|not E) over a grid and, for each pair, finds the
evidence certainty q with the largest gap. The gap is P(H|not E)(1-q),
so the worst q is always 0 and the sweep doubles as a check that the
measured surface matches the closed form everywhere.

Usage: python3 scripts/sweep_cf_divergence.py [--steps 11] [--q-steps 101]
"""

import argparse

import numpy as np

from relent.certainty_factors import divergence_curve
from relent.scenario import fmt10


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=11, help="grid steps per probability axis")
    ap.add_argument("--q-steps", type=int, default=101, help="grid steps for the certainty q")
    args = ap.parse_args()

    grid = np.linspace(0.0, 1.0, args.steps)
    q_grid = tuple(float(q) for q in np.linspace(0.0, 1.0, args.q_steps))

    worst = (0.0, 0.0, 0.0, 0.0)  # gap, p_he, p_hne, q
    mismatch = 0.0
    print("p_h_given_e p_h_given_not_e worst_gap at_q")
    for p_he in grid:
        for p_hne in grid:
            curve = divergence_curve(float(p_he), float(p_hne), q_grid)
            q_star, gap = max(curve, key=lambda pair: pair[1])
            closed = max(abs(d - p_hne * (1.0 - q)) for q, d in curve)
            mismatch = max(mismatch, closed)
            if gap > worst[0]:
                worst = (gap, float(p_he), float(p_hne), q_star)
            print(f"{fmt10(p_he)} {fmt10(p_hne)} {fmt10(gap)} {fmt10(q_star)}")

    gap, p_he, p_hne, q_star = worst
    print(f"worst gap {fmt10(gap)} at P(H|E)={fmt10(p_he)},"
          f" P(H|not E)={fmt10(p_hne)}, q={fmt10(q_star)}")
    print(f"max deviation from closed form: {fmt10(mismatch)}")


if __name__ == "__main__":
    main()
