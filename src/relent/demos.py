"""Self-contained worked examples, one per classic updating puzzle.

Each function builds its inputs from scratch, runs the public API, and
returns deterministic report text. The priors are illustrative: they
are chosen to make the behavior visible, not estimated from anything.
"""

from __future__ import annotations

import numpy as np

from .certainty_factors import (
    EvidenceScenario,
    cf_approx_posterior,
    divergence_curve,
    jeffrey_posterior,
)
from .constraints import EventProb, Expectation, PartitionWeights
from .scenario import _check_units, emit_divergence, emit_report, fmt10
from .solver import maxent_update
from .spaces import (
    Distribution,
    Partition,
    RandomVariable,
    SampleSpace,
    conditional_prob,
)


def _framed(title: str, body: str, *tail: str) -> str:
    """A demo's text: its title, the report ``body`` and the ``tail`` lines, blank-separated."""
    return "\n".join([title, "", body.rstrip("\n"), "", *tail]) + "\n"


def demo_die(units: str = "nats") -> str:
    """Least-committal die weights with a loaded mean of 4.5."""
    space = SampleSpace(tuple(f"face{k}" for k in range(1, 7)))
    prior = Distribution.uniform(space)
    pips = RandomVariable(space, tuple(float(k) for k in range(1, 7)))
    report = maxent_update(prior, [Expectation(pips, 4.5)])
    mean = float(report.posterior.array @ pips.array)
    return _framed(
        "die with mean pinned to 4.5, uniform prior",
        emit_report(report, units=units),
        f"posterior mean: {fmt10(mean)}",
        "note: of all distributions with this mean, the posterior is the",
        "one closest to uniform; the weights form a geometric progression.",
    )


def demo_tiger(units: str = "nats") -> str:
    """Reweighting tiger/no-tiger evidence leaves within-cell odds alone."""
    space = SampleSpace(("tiger_door1", "tiger_door2", "clear_door1", "clear_door2"))
    prior = Distribution(space, (0.2, 0.3, 0.3, 0.2))
    tiger = space.subset("tiger_door1", "tiger_door2")
    part = Partition((tiger, tiger.complement()))
    report = maxent_update(prior, [PartitionWeights(part, (0.8, 0.2))])
    door1 = space.subset("tiger_door1")
    before = conditional_prob(prior, door1, tiger)
    after = conditional_prob(report.posterior, door1, tiger)
    return _framed(
        "a growl raises P(tiger) from 0.5 to 0.8",
        emit_report(report, units=units),
        f"P(door1 | tiger) before: {fmt10(before)}",
        f"P(door1 | tiger) after:  {fmt10(after)}",
        "note: evidence about the tiger/no-tiger split carries no news about",
        "which door, so the conditional is untouched.",
    )


def demo_coin(units: str = "nats") -> str:
    """A stated physical propensity enters as a constraint on the next toss."""
    space = SampleSpace((
        "mint_biased_heads", "mint_biased_tails",
        "mint_fair_heads", "mint_fair_tails",
        "street_biased_heads", "street_biased_tails",
        "street_fair_heads", "street_fair_tails",
    ))
    # illustrative: coins from the mint are always biased
    prior = Distribution(space, (0.35, 0.35, 0.0, 0.0, 0.08, 0.04, 0.09, 0.09))
    heads = space.subset(
        "mint_biased_heads", "mint_fair_heads", "street_biased_heads", "street_fair_heads"
    )
    biased = space.subset(
        "mint_biased_heads", "mint_biased_tails", "street_biased_heads", "street_biased_tails"
    )
    report = maxent_update(prior, [EventProb(heads, 2.0 / 3.0)])
    return _framed(
        "told the next toss lands heads with probability 2/3",
        emit_report(report, units=units),
        f"P(heads) before: {fmt10(prior.prob(heads))}",
        f"P(heads) after:  {fmt10(report.posterior.prob(heads))}",
        f"P(biased | heads) before: {fmt10(conditional_prob(prior, biased, heads))}",
        f"P(biased | heads) after:  {fmt10(conditional_prob(report.posterior, biased, heads))}",
        "note: the propensity claim is read as a direct constraint on the next",
        "toss, so it rescales heads against tails and nothing finer.",
    )


def demo_mycin(units: str = "nats") -> str:
    """Exact evidence-weighted update vs the certainty-factor shortcut, on an 11-step grid.

    Its gaps are probabilities, so ``units`` is only checked, as every demo checks it.
    """
    _check_units(units)
    p_h_given_e, p_h_given_not_e = 0.9, 0.3
    grid = tuple(float(q) for q in np.linspace(0.0, 1.0, 11))
    table = divergence_curve(p_h_given_e, p_h_given_not_e, grid)
    sc = EvidenceScenario(p_h_given_e, p_h_given_not_e, 0.8)
    exact = jeffrey_posterior(sc)
    shortcut = cf_approx_posterior(sc)
    return _framed(
        f"P(H|E) = {fmt10(p_h_given_e)}, P(H|not E) = {fmt10(p_h_given_not_e)},"
        " evidence certainty q swept from 0 to 1",
        emit_divergence(table),
        f"at q = 0.8: exact {fmt10(exact)}, shortcut {fmt10(shortcut)},"
        f" gap {fmt10(exact - shortcut)}",
        "note: the shortcut drops the weight the unconfirmed branch still carries;",
        "its error is P(H | not E) * (1 - q), vanishing only as q reaches 1.",
    )


DEMOS = {
    "die": demo_die,
    "tiger": demo_tiger,
    "coin": demo_coin,
    "mycin": demo_mycin,
}


__all__ = ["demo_die", "demo_tiger", "demo_coin", "demo_mycin", "DEMOS"]
