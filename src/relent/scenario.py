"""Declarative scenario files and deterministic report text.

A scenario is a UTF-8 JSON document describing a sample space, a prior,
posterior constraints, optional queries, and an optional forecast
system:

    {
      "version": 1,
      "space": ["rain", "dry"],
      "prior": "uniform",                    // or an aligned number array
      "constraints": [
        {"type": "event_prob", "event": ["rain"], "value": 0.8},
        {"type": "expectation", "variable": {"rain": 1, "dry": 0}, "value": 0.8},
        {"type": "cond_prob", "event": ["rain"], "given": ["rain", "dry"], "value": 0.8},
        {"type": "partition", "cells": [["rain"], ["dry"]], "weights": [0.8, 0.2]}
      ],
      "queries": [
        {"type": "prob", "event": ["rain"]},
        {"type": "cond_prob", "event": ["rain"], "given": ["rain", "dry"]},
        {"type": "entropy"},
        {"type": "mutual_information", "row_cells": [["rain"], ["dry"]],
         "col_cells": [["rain"], ["dry"]]},
        {"type": "posterior"}
      ],
      "forecasts": [{"event": ["rain"], "value": 0.7}]
    }

Each constraint and query kind is described once, by its row in
``_CONSTRAINT_KINDS`` or ``_QUERY_KINDS``; parsing, the unknown-key
check and ``serialize`` all read that row. Malformed JSON raises
ParseError with position; schema and invariant violations raise
ConstructionError with a distinct code naming the offense, the domain
constructors' own codes passing through unchanged. Reports are
line-oriented text with every float printed to ten significant digits,
so identical inputs yield byte-identical output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence, Union

import numpy as np

from .coherence import AdmissibilityVerdict, ForecastSystem
from .constraints import CondProb, Constraint, EventProb, Expectation, PartitionWeights
from .errors import ConstructionError, ParseError
from .information import entropy, mutual_information
from .solver import UpdateReport
from .spaces import (
    Distribution,
    Event,
    JointDistribution,
    Partition,
    RandomVariable,
    SampleSpace,
    conditional_prob,
)

LN2 = math.log(2.0)

TOP_LEVEL_KEYS = {"version", "space", "prior", "constraints", "queries", "forecasts"}


def fmt10(x: float) -> str:
    """Fixed report formatting: up to ten significant digits, round-trip stable."""
    return f"{float(x):.10g}"


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbQuery:
    event: Event


@dataclass(frozen=True)
class CondProbQuery:
    target: Event
    given: Event


@dataclass(frozen=True)
class EntropyQuery:
    pass


@dataclass(frozen=True)
class MutualInfoQuery:
    row: Partition
    col: Partition


@dataclass(frozen=True)
class PosteriorQuery:
    pass


Query = Union[ProbQuery, CondProbQuery, EntropyQuery, MutualInfoQuery, PosteriorQuery]


@dataclass(frozen=True)
class Scenario:
    space: SampleSpace
    prior: Distribution
    constraints: tuple[Constraint, ...]
    queries: tuple[Query, ...] = ()
    forecasts: ForecastSystem | None = None


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _number(x: Any, code: str, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConstructionError(code, f"{where} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ConstructionError(code, f"{where} is an integer too large for a float") from None


def _numbers(raw: list, code: str, where: str, keys: Iterable[object]) -> np.ndarray:
    """A JSON number array as floats, validated as a whole.

    Only on failure are the elements checked one by one, to name the first bad one.
    """
    if set(map(type, raw)) <= {int, float}:
        try:
            return np.array(raw, dtype=float)
        except OverflowError:
            pass
    return np.array([_number(x, code, f"{where}[{key}]") for key, x in zip(keys, raw)])


def _labels(x: Any, code: str, where: str) -> list[str]:
    if not isinstance(x, list) or not set(map(type, x)) <= {str}:
        raise ConstructionError(code, f"{where} must be an array of outcome labels, got {x!r}")
    return x


def _object_keys(obj: dict, allowed: set[str], code: str, where: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ConstructionError(code, f"{where} has unknown keys: {sorted(extra)}")


def _required(obj: dict, key: str, code: str, where: str) -> Any:
    if key not in obj:
        raise ConstructionError(code, f"{where} is missing required key {key!r}")
    return obj[key]


def _event(space: SampleSpace, labels: Any, code: str, where: str) -> Event:
    return Event(space, _labels(labels, code, where))


def _parse_partition(space: SampleSpace, cells: Any, code: str, where: str) -> Partition:
    if not isinstance(cells, list):
        raise ConstructionError(code, f"{where} must be an array of label arrays")
    events = tuple(
        _event(space, cell, code, f"{where}[{i}]") for i, cell in enumerate(cells)
    )
    return Partition(events)


def _variable(space: SampleSpace, mapping: Any, code: str, where: str) -> RandomVariable:
    if not isinstance(mapping, dict):
        raise ConstructionError(code, f"{where} must map labels to numbers")
    _numbers(list(mapping.values()), code, where, map(repr, mapping))
    return RandomVariable.from_mapping(space, mapping)


def _weights(space: SampleSpace, raw: Any, code: str, where: str) -> np.ndarray:
    if not isinstance(raw, list):
        raise ConstructionError(code, f"{where} must be an array of numbers")
    return _numbers(raw, code, where, range(len(raw)))


def _event_labels(e: Event) -> list[str]:
    return sorted(e.members, key=e.space.index.__getitem__)


# A field type is a (reader, writer) pair: the reader takes (space, JSON
# value, error code, location) and builds the domain value, the writer
# turns that value back into JSON.
_EVENT = (_event, _event_labels)
_CELLS = (_parse_partition, lambda p: [_event_labels(c) for c in p.cells])
_NUMBER = (lambda space, x, code, where: _number(x, code, where), float)
_VARIABLE = (_variable, lambda v: dict(zip(v.space.outcomes, v.values)))
_WEIGHTS = (_weights, list)

# "type" -> (class, fields); a field is (JSON key, attribute, field type,
# suffix of the <section>.bad_<suffix> code for a bad value), in the
# order of the class's constructor arguments.
_CONSTRAINT_KINDS = {
    "event_prob": (EventProb, (("event", "event", _EVENT, "event"),
                               ("value", "value", _NUMBER, "value"))),
    "expectation": (Expectation, (("variable", "variable", _VARIABLE, "variable"),
                                  ("value", "value", _NUMBER, "value"))),
    "cond_prob": (CondProb, (("event", "target", _EVENT, "event"),
                             ("given", "given", _EVENT, "event"),
                             ("value", "value", _NUMBER, "value"))),
    "partition": (PartitionWeights, (("cells", "partition", _CELLS, "cells"),
                                     ("weights", "weights", _WEIGHTS, "weights"))),
}
_QUERY_KINDS = {
    "prob": (ProbQuery, (("event", "event", _EVENT, "event"),)),
    "cond_prob": (CondProbQuery, (("event", "target", _EVENT, "event"),
                                  ("given", "given", _EVENT, "event"))),
    "entropy": (EntropyQuery, ()),
    "mutual_information": (MutualInfoQuery, (("row_cells", "row", _CELLS, "event"),
                                             ("col_cells", "col", _CELLS, "event"))),
    "posterior": (PosteriorQuery, ()),
}


def _parse_entry(space: SampleSpace, obj: Any, where: str, section: str, kinds: dict) -> Any:
    """Read one constraint or query object through its kind's row of ``kinds``."""
    if not isinstance(obj, dict):
        raise ConstructionError(f"{section}.not_object", f"{where} must be an object")
    kind = _required(obj, "type", f"{section}.missing_type", where)
    # a list or object "type" is unhashable, so look up strings only
    if not isinstance(kind, str) or kind not in kinds:
        raise ConstructionError(f"{section}.unknown_type", f"{where} has unknown type {kind!r}")
    cls, fields = kinds[kind]
    _object_keys(obj, {"type", *(f[0] for f in fields)}, f"{section}.unknown_key", where)
    values = [
        read(space, _required(obj, key, f"{section}.missing_key", where),
             f"{section}.bad_{suffix}", f"{where}.{key}")
        for key, _, (read, _), suffix in fields
    ]
    return cls(*values)


def _entry_to_json(obj: Any, kinds: dict) -> dict:
    """Write a constraint or query as its kind's row of ``kinds`` reads it."""
    for kind, (cls, fields) in kinds.items():
        if isinstance(obj, cls):
            doc = {"type": kind}
            doc.update((key, write(getattr(obj, attr))) for key, attr, (_, write), _ in fields)
            return doc
    raise TypeError(f"not a constraint or query: {obj!r}")


def parse(document: str) -> Scenario:
    """Parse and fully validate one scenario document."""
    try:
        data = json.loads(document)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno, column=e.colno) from e
    except ValueError as e:  # an integer literal past the interpreter's digit limit
        raise ParseError(str(e)) from e
    if not isinstance(data, dict):
        raise ConstructionError(
            "file.not_object", "the top level of a scenario must be a JSON object"
        )
    _object_keys(data, TOP_LEVEL_KEYS, "file.unknown_key", "the scenario")
    # JSON true parses to True, which equals 1 in Python
    if "version" in data and (isinstance(data["version"], bool) or data["version"] != 1):
        raise ConstructionError("file.bad_version", f"unsupported version {data['version']!r}")

    raw_space = _required(data, "space", "space.missing", "the scenario")
    space = SampleSpace(tuple(_labels(raw_space, "space.not_label_array", '"space"')))

    raw_prior = _required(data, "prior", "prior.missing", "the scenario")
    if raw_prior == "uniform":
        prior = Distribution.uniform(space)
    elif isinstance(raw_prior, list):
        weights = _numbers(raw_prior, "prior.bad_number", '"prior"', range(len(raw_prior)))
        prior = Distribution(space, weights)
    else:
        raise ConstructionError("prior.bad", '"prior" must be "uniform" or an array of numbers')

    raw_constraints = _required(data, "constraints", "constraints.missing", "the scenario")
    if not isinstance(raw_constraints, list):
        raise ConstructionError("constraints.not_array", '"constraints" must be an array')
    constraints = tuple(
        _parse_entry(space, obj, f'"constraints"[{i}]', "constraint", _CONSTRAINT_KINDS)
        for i, obj in enumerate(raw_constraints)
    )

    queries: tuple[Query, ...] = ()
    if "queries" in data:
        if not isinstance(data["queries"], list):
            raise ConstructionError("queries.not_array", '"queries" must be an array')
        queries = tuple(
            _parse_entry(space, obj, f'"queries"[{i}]', "query", _QUERY_KINDS)
            for i, obj in enumerate(data["queries"])
        )

    forecasts: ForecastSystem | None = None
    if "forecasts" in data:
        raw = data["forecasts"]
        if not isinstance(raw, list):
            raise ConstructionError("forecasts.not_array", '"forecasts" must be an array')
        events: list[Event] = []
        values: list[float] = []
        for i, entry in enumerate(raw):
            where = f'"forecasts"[{i}]'
            if not isinstance(entry, dict):
                raise ConstructionError("forecast.bad_entry", f"{where} must be an object")
            _object_keys(entry, {"event", "value"}, "forecast.bad_entry", where)
            events.append(_event(space, _required(entry, "event", "forecast.bad_entry", where),
                                 "forecast.bad_entry", f"{where}.event"))
            values.append(_number(_required(entry, "value", "forecast.bad_entry", where),
                                  "forecast.bad_entry", f"{where}.value"))
        forecasts = ForecastSystem(space, tuple(events), tuple(values))

    return Scenario(space, prior, constraints, queries, forecasts)


def parse_file(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def serialize(sc: Scenario) -> str:
    """Emit a scenario as canonical JSON; parse(serialize(sc)) == sc."""
    doc: dict[str, Any] = {
        "version": 1,
        "space": list(sc.space.outcomes),
        "prior": list(sc.prior.weights),
        "constraints": [_entry_to_json(c, _CONSTRAINT_KINDS) for c in sc.constraints],
    }
    if sc.queries:
        doc["queries"] = [_entry_to_json(q, _QUERY_KINDS) for q in sc.queries]
    if sc.forecasts is not None:
        doc["forecasts"] = [
            {"event": _event_labels(e), "value": v}
            for e, v in zip(sc.forecasts.events, sc.forecasts.forecasts)
        ]
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _info_value(nats: float, units: str) -> str:
    if units == "bits":
        return f"{fmt10(nats / LN2)} bits"
    return f"{fmt10(nats)} nats"


def distribution_lines(dist: Distribution) -> list[str]:
    """One indented ``label weight`` line per outcome, in space order."""
    return [f"  {label} {fmt10(w)}" for label, w in zip(dist.space.outcomes, dist.weights)]


def _emit_update(report: UpdateReport, units: str) -> list[str]:
    lines = [
        f"method: {report.method}",
        f"iterations: {report.iterations}",
        f"final_residual: {fmt10(report.final_residual)}",
        f"objective: {_info_value(report.objective, units)}",
    ]
    if report.multipliers:
        lines.append("multipliers: " + " ".join(fmt10(m) for m in report.multipliers))
    else:
        lines.append("multipliers: (none)")
    lines.append("posterior:")
    lines.extend(distribution_lines(report.posterior))
    return lines


def _emit_verdict(verdict: AdmissibilityVerdict, system: ForecastSystem | None) -> list[str]:
    lines = [f"admissible: {'yes' if verdict.admissible else 'no'}"]
    if not verdict.admissible:
        lines.append("dominating: " + " ".join(fmt10(v) for v in verdict.dominating))
    if system is not None:
        worlds = zip(system.space.outcomes, verdict.losses)
        if verdict.admissible:
            lines.extend(f"world {x}: loss {fmt10(b)}" for x, b in worlds)
        else:
            lines.extend(f"world {x}: loss {fmt10(b)} -> {fmt10(a)}"
                         for (x, b), a in zip(worlds, verdict.dominating_losses))
    if not verdict.admissible:
        lines.append(f"margin: {fmt10(verdict.margin)}")
    return lines


def emit_divergence(table: Iterable[tuple[float, float]]) -> str:
    """Render ``(q, divergence)`` pairs, as from ``divergence_curve``, one per line."""
    lines = ["q divergence"]
    lines.extend(f"{fmt10(q)} {fmt10(d)}" for q, d in table)
    return "\n".join(lines) + "\n"


def emit_report(
    report: UpdateReport | AdmissibilityVerdict,
    *,
    units: str = "nats",
    system: ForecastSystem | None = None,
) -> str:
    """Render an update report or an admissibility verdict as deterministic text.

    ``units`` converts the information values of an update report (and
    only those) to bits when set. For admissibility verdicts, pass the
    audited system to get per-world loss tables: the losses are the
    verdict's, the world names the system's.
    """
    if isinstance(report, UpdateReport):
        lines = _emit_update(report, units)
    elif isinstance(report, AdmissibilityVerdict):
        lines = _emit_verdict(report, system)
    else:
        raise TypeError(f"not an update report or admissibility verdict: {report!r}")
    return "\n".join(lines) + "\n"


def run_queries(dist: Distribution, queries: Sequence[Query], units: str = "nats") -> list[str]:
    """Answer each query against ``dist``, one report line per answer."""
    lines: list[str] = []
    for q in queries:
        if isinstance(q, ProbQuery):
            lines.append(f"P({q.event.describe()}) = {fmt10(dist.prob(q.event))}")
        elif isinstance(q, CondProbQuery):
            value = conditional_prob(dist, q.target, q.given)
            lines.append(
                f"P({q.target.describe()} | {q.given.describe()}) = {fmt10(value)}"
            )
        elif isinstance(q, EntropyQuery):
            lines.append(f"entropy = {_info_value(entropy(dist), units)}")
        elif isinstance(q, MutualInfoQuery):
            lines.append(
                f"mutual_information = {_info_value(_partition_mi(dist, q), units)}"
            )
        elif isinstance(q, PosteriorQuery):
            lines.append("distribution:")
            lines.extend(distribution_lines(dist))
        else:
            raise TypeError(f"not a query: {q!r}")
    return lines


def _partition_mi(dist: Distribution, q: MutualInfoQuery) -> float:
    """Mutual information between two partition-valued views of one space.

    Rows and columns are named by position: two cells can describe
    themselves alike (``{a, b}`` for the label "a, b" and for a and b),
    and the value does not depend on the names.
    """
    row_space = SampleSpace(tuple(map(str, range(len(q.row.cells)))))
    col_space = SampleSpace(tuple(map(str, range(len(q.col.cells)))))
    weights = np.array([[dist.prob(r.intersect(c)) for c in q.col.cells] for r in q.row.cells])
    return mutual_information(JointDistribution(row_space, col_space, weights))


__all__ = [
    "Scenario",
    "ProbQuery",
    "CondProbQuery",
    "EntropyQuery",
    "MutualInfoQuery",
    "PosteriorQuery",
    "Query",
    "parse",
    "parse_file",
    "serialize",
    "emit_report",
    "emit_divergence",
    "distribution_lines",
    "run_queries",
    "fmt10",
]
