"""Belief revision for finite discrete distributions.

Updates a prior to the closest distribution (in the information sense)
satisfying linear constraints, with closed forms where they exist and a
damped Newton dual solver where they do not. Ships the measure-theory
toolkit the updates rest on, executable consistency checks for
partition-based evidence, a quadratic-loss admissibility audit for
point forecasts, and an exact-vs-shortcut comparison for
certainty-factor style updating.
"""

from .axioms import (
    SKIP_MASS,
    AxiomReport,
    CellInfo,
    check_axiom4_full,
    check_axiom4b,
    random_reweighting_case,
)
from .certainty_factors import (
    EvidenceScenario,
    cf_approx_posterior,
    divergence_curve,
    jeffrey_posterior,
)
from .coherence import (
    ADMISSIBLE_DIST,
    AdmissibilityVerdict,
    ForecastSystem,
    WorldValuation,
    audit_admissibility,
    quadratic_loss,
    world_valuations,
)
from .constraints import (
    CondProb,
    Constraint,
    EventProb,
    Expectation,
    LinearForm,
    PartitionWeights,
    TriageVerdict,
    compile_all,
    compile_constraint,
    residual,
    triage_feasibility,
)
from .errors import (
    ConstructionError,
    DegenerateConditional,
    DomainError,
    InfeasibleConstraint,
    NonConvergence,
    ParseError,
    RelentError,
    SpaceMismatch,
    SupportViolation,
    ValidationError,
    ZeroMassEvent,
)
from .information import (
    conditional_entropy,
    entropy,
    mutual_information,
    relative_entropy,
    self_information,
)
from .scenario import (
    CondProbQuery,
    EntropyQuery,
    MutualInfoQuery,
    PosteriorQuery,
    ProbQuery,
    Query,
    Scenario,
    emit_report,
    parse,
    parse_file,
    run_queries,
    serialize,
)
from .solver import (
    Method,
    SolverOptions,
    UpdateReport,
    jeffrey_update,
    maxent_update,
)
from .spaces import (
    SUM_TOL,
    ZERO_MASS,
    Distribution,
    Event,
    JointDistribution,
    Partition,
    RandomVariable,
    SampleSpace,
    condition,
    conditional_prob,
    expectation,
    marginal,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # spaces
    "SampleSpace", "Event", "Distribution", "RandomVariable", "Partition",
    "JointDistribution", "condition", "conditional_prob", "expectation",
    "marginal", "ZERO_MASS", "SUM_TOL",
    # information
    "self_information", "entropy", "relative_entropy", "conditional_entropy",
    "mutual_information",
    # constraints
    "EventProb", "Expectation", "CondProb", "PartitionWeights", "Constraint",
    "LinearForm", "compile_constraint", "compile_all", "residual",
    "TriageVerdict", "triage_feasibility",
    # solver
    "maxent_update", "jeffrey_update", "SolverOptions",
    "UpdateReport", "Method",
    # axioms
    "CellInfo", "AxiomReport", "check_axiom4_full", "check_axiom4b",
    "random_reweighting_case", "SKIP_MASS",
    # coherence
    "ForecastSystem", "WorldValuation", "AdmissibilityVerdict",
    "world_valuations", "quadratic_loss", "audit_admissibility",
    "ADMISSIBLE_DIST",
    # certainty factors
    "EvidenceScenario", "jeffrey_posterior", "cf_approx_posterior",
    "divergence_curve",
    # scenarios
    "Scenario", "Query", "ProbQuery", "CondProbQuery", "EntropyQuery",
    "MutualInfoQuery", "PosteriorQuery", "parse", "parse_file", "serialize",
    "emit_report", "run_queries",
    # errors
    "RelentError", "ConstructionError", "SpaceMismatch", "ZeroMassEvent",
    "DomainError", "SupportViolation", "InfeasibleConstraint",
    "NonConvergence", "DegenerateConditional", "ParseError", "ValidationError",
]
