"""Belief revision for finite discrete distributions.

Updates a prior to the closest distribution (in the information sense)
satisfying linear constraints, with closed forms where they exist and a
damped Newton dual solver where they do not. Ships the measure-theory
toolkit the updates rest on, executable consistency checks for
partition-based evidence, a quadratic-loss admissibility audit for
point forecasts, and an exact-vs-shortcut comparison for
certainty-factor style updating.

This package exports the supported surface listed in ``__all__``;
every other name is imported from its submodule (``relent.spaces``,
``relent.information``, ``relent.axioms``, ...).
"""

from .coherence import AdmissibilityVerdict, ForecastSystem, audit_admissibility
from .constraints import CondProb, EventProb, Expectation, PartitionWeights
from .errors import (
    ConstructionError,
    DegenerateConditional,
    InfeasibleConstraint,
    NonConvergence,
    ParseError,
    RelentError,
    ValidationError,
)
from .scenario import emit_report, parse, parse_file
from .solver import SolverOptions, UpdateReport, maxent_update
from .spaces import Distribution, Event, Partition, RandomVariable, SampleSpace

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # spaces
    "SampleSpace", "Event", "Distribution", "RandomVariable", "Partition",
    # constraints
    "EventProb", "Expectation", "CondProb", "PartitionWeights",
    # solver
    "maxent_update", "SolverOptions", "UpdateReport",
    # coherence
    "ForecastSystem", "AdmissibilityVerdict", "audit_admissibility",
    # scenarios
    "parse", "parse_file", "emit_report",
    # errors
    "RelentError", "ConstructionError", "ValidationError", "ParseError",
    "InfeasibleConstraint", "NonConvergence", "DegenerateConditional",
]
