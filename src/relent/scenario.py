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

Each top-level section is described once, by its row in ``_SECTIONS``,
and each constraint and query kind by its row in ``_CONSTRAINT_KINDS``
or ``_QUERY_KINDS``; parsing, the unknown-key checks and ``serialize``
read those rows. A document of at least ``STREAM_MIN_CHARS`` (2^18)
characters is built while it is decoded: the top level one member at a
time, ``"constraints"``, ``"queries"`` and ``"forecasts"`` one entry at a
time, through the same per-entry readers as the whole-document path, so
that a parse never holds the whole decoded document. A shorter document,
and any document that walk cannot finish, valid or not, is decoded whole
and then built; only that path raises, so errors do not depend on the
size.
Bytes that do not decode, malformed JSON and JSON that nests too deeply
raise ParseError, malformed JSON with position; schema and invariant
violations raise ConstructionError with a distinct code naming the
offense, the domain constructors' own codes passing through unchanged.
Reports are line-oriented text with every float printed to ten
significant digits, so identical inputs yield byte-identical output.
"""

from __future__ import annotations

import json
import math
import re
from functools import partial
from typing import Any, Callable, Iterable, Sequence, Union

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
    _Value,
    _require_same_space,
    conditional_prob,
)

LN2 = math.log(2.0)


def fmt10(x: float) -> str:
    """Fixed report formatting: up to ten significant digits, round-trip stable."""
    return f"{float(x):.10g}"


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


class ProbQuery(_Value):
    event: Event


class CondProbQuery(_Value):
    target: Event
    given: Event


class EntropyQuery(_Value):
    pass


class MutualInfoQuery(_Value):
    row: Partition
    col: Partition


class PosteriorQuery(_Value):
    pass


Query = Union[ProbQuery, CondProbQuery, EntropyQuery, MutualInfoQuery, PosteriorQuery]


class Scenario(_Value):
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
    # the space holds only strings, so a label of another type fails the
    # lookup: the labels' types are checked only once building has failed
    if isinstance(labels, list):
        try:
            return Event(space, labels)
        except ConstructionError:
            _labels(labels, code, where)
            raise
    return Event(space, _labels(labels, code, where))  # _labels raises


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
    values = _numbers(list(mapping.values()), code, where, map(repr, mapping))
    if tuple(mapping) == space.outcomes:  # keys in space order: the values are the array
        return RandomVariable(space, values)
    return RandomVariable.from_mapping(space, mapping)


def _weights(space: SampleSpace, raw: Any, code: str, where: str) -> np.ndarray:
    if not isinstance(raw, list):
        raise ConstructionError(code, f"{where} must be an array of numbers")
    return _numbers(raw, code, where, range(len(raw)))


# A field type is a (reader, writer) pair: the reader takes (space, JSON
# value, error code, location) and builds the domain value, the writer
# turns that value back into JSON.
_EVENT = (_event, lambda e: e.labels)
_CELLS = (_parse_partition, lambda p: [c.labels for c in p.cells])
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


def _decode(data: bytes | bytearray) -> str:
    """The text of JSON ``data``, decoded as ``json.loads`` decodes bytes (a UTF-8
    byte-order mark is dropped), or a ParseError naming the encoding and the offset."""
    encoding = json.detect_encoding(data)
    try:
        return data.decode(encoding, "surrogatepass")
    except UnicodeDecodeError as e:  # utf-8-sig counts offsets from after its 3-byte mark
        raise ParseError(f"the file is not {encoding.upper()}: {e.reason} at byte offset "
                         f"{e.start + 3 * (encoding == 'utf-8-sig')}") from e


def _read(path: str) -> str:
    """The text of the file at ``path``, decoded as :func:`parse` decodes bytes; the
    bytes are gone once it returns."""
    with open(path, "rb") as fh:
        data = fh.read()
    return _decode(data)


# An array section is read entry by entry: read(space, decoded entry, location)
# builds one entry, gather(space, list of built entries) the section's value.
_Read = Callable[[SampleSpace, Any, str], Any]
_Gather = Callable[[SampleSpace, list], Any]


def _entries(space: SampleSpace, raw: Any, name: str, read: _Read, gather: _Gather) -> Any:
    """The section ``name`` of the array ``raw``, each entry built by ``read``."""
    if not isinstance(raw, list):
        raise ConstructionError(f"{name}.not_array", f'"{name}" must be an array')
    return gather(space, [read(space, obj, f'"{name}"[{i}]') for i, obj in enumerate(raw)])


def _version(raw: Any) -> None:
    # JSON true parses to True, which equals 1 in Python
    if isinstance(raw, bool) or raw != 1:
        raise ConstructionError("file.bad_version", f"unsupported version {raw!r}")


def _prior(space: SampleSpace, raw: Any) -> Distribution:
    if raw == "uniform":
        return Distribution.uniform(space)
    if isinstance(raw, list):
        return Distribution(space, _numbers(raw, "prior.bad_number", '"prior"', range(len(raw))))
    raise ConstructionError("prior.bad", '"prior" must be "uniform" or an array of numbers')


def _forecast(space: SampleSpace, entry: Any, where: str) -> tuple[Event, float]:
    """One ``{"event", "value"}`` entry of "forecasts"; the system checks finiteness."""
    if not isinstance(entry, dict):
        raise ConstructionError("forecast.bad_entry", f"{where} must be an object")
    _object_keys(entry, {"event", "value"}, "forecast.bad_entry", where)
    return (_event(space, _required(entry, "event", "forecast.bad_entry", where),
                   "forecast.bad_entry", f"{where}.event"),
            _number(_required(entry, "value", "forecast.bad_entry", where),
                    "forecast.bad_entry", f"{where}.value"))


def _tuple(_: SampleSpace, values: list) -> tuple:
    return tuple(values)


def _book(space: SampleSpace, pairs: list[tuple[Event, float]]) -> ForecastSystem:
    """The forecast system of the ``(event, value)`` pairs ``_forecast`` reads."""
    return ForecastSystem(space, tuple(e for e, _ in pairs), tuple(v for _, v in pairs))


# Each top-level key, in the order its errors are reported: whether a document
# must have it, and the builder of its value from the space (None before
# "space") and its decoded value. The walk builds "constraints", "queries" and
# "forecasts", partials of _entries, one entry at a time from the partials'
# keywords.
_SECTIONS = {
    "version": (False, lambda _, raw: _version(raw)),
    "space": (True, lambda _, raw: SampleSpace(_labels(raw, "space.not_label_array", '"space"'))),
    "prior": (True, _prior),
    "constraints": (True, partial(_entries, name="constraints", gather=_tuple, read=partial(
        _parse_entry, section="constraint", kinds=_CONSTRAINT_KINDS))),
    "queries": (False, partial(_entries, name="queries", gather=_tuple, read=partial(
        _parse_entry, section="query", kinds=_QUERY_KINDS))),
    "forecasts": (False, partial(_entries, name="forecasts", read=_forecast, gather=_book)),
}


def _assemble(built: dict[str, Any]) -> Scenario:
    """The scenario of the sections built from a document, keyed as in it."""
    built.pop("version", None)  # checked, not kept
    return Scenario(**built)


def _scenario(data: Any) -> Scenario:
    """Build and validate a scenario from its decoded document."""
    if not isinstance(data, dict):
        raise ConstructionError(
            "file.not_object", "the top level of a scenario must be a JSON object"
        )
    _object_keys(data, _SECTIONS.keys(), "file.unknown_key", "the scenario")
    built: dict[str, Any] = {}
    for key, (required, build) in _SECTIONS.items():
        if required or key in data:
            raw = _required(data, key, f"{key}.missing", "the scenario")
            built[key] = build(built.get("space"), raw)
    return _assemble(built)


#: Texts of at least this many characters are built while they are
#: decoded (``_walk``); shorter ones are decoded whole first. From 2^18
#: characters the decoded form (5-8 times the text) is a few percent of a
#: launch's RSS; below it walking costs up to 13% more parse time.
STREAM_MIN_CHARS = 1 << 18

_WHITESPACE = re.compile(r"[ \t\n\r]*")  # the whitespace JSON allows between tokens
_raw_decode = json.JSONDecoder().raw_decode


class _Unwalkable(Exception):
    """A document ``_walk`` leaves to the whole-document path."""


def _token(text: str, i: int, allowed: str) -> tuple[str, int]:
    """The structural character at ``i`` or after the whitespace there, which must be
    one of ``allowed``, and the position after it and the whitespace that follows."""
    i = _WHITESPACE.match(text, i).end()
    c = text[i:i + 1]
    if not c or c not in allowed:
        raise _Unwalkable
    return c, _WHITESPACE.match(text, i + 1).end()


def _walk_entries(text: str, i: int, space: SampleSpace, name: str, read: _Read,
                  gather: _Gather) -> tuple[Any, int]:
    """The section ``name`` of the array at ``i``, each entry built as soon as it is
    decoded, and the position after the array."""
    _, i = _token(text, i, "[")
    values = []
    if text.startswith("]", i):
        return gather(space, values), i + 1
    while True:
        obj, i = _raw_decode(text, i)
        values.append(read(space, obj, f'"{name}"[{len(values)}]'))
        del obj  # before the next entry is decoded
        c, i = _token(text, i, ",]")
        if c == "]":
            return gather(space, values), i


def _walk(text: str) -> Scenario:
    """Build a scenario while its text is decoded: the top-level object one member at
    a time, ``"constraints"``, ``"queries"`` and ``"forecasts"`` one entry at a time.

    Raises as soon as the document is not one that the whole-document path
    builds from the same values: malformed or trailing text, a key that is
    unknown or repeated, a section before ``"space"``, a required section
    missing, or any error from a builder.
    """
    _, i = _token(text, 0, "{")
    built: dict[str, Any] = {}
    while True:
        key, i = _raw_decode(text, i)
        if (not isinstance(key, str) or key not in _SECTIONS or key in built
                or (key not in ("version", "space") and "space" not in built)):
            raise _Unwalkable
        _, i = _token(text, i, ":")
        build = _SECTIONS[key][1]
        if isinstance(build, partial):  # "constraints", "queries" or "forecasts"
            built[key], i = _walk_entries(text, i, built.get("space"), **build.keywords)
        else:
            raw, i = _raw_decode(text, i)
            built[key] = build(built.get("space"), raw)
            del raw  # before the next member is decoded
        c, i = _token(text, i, ",}")
        if c == "}":
            break
    if i != len(text) or any(required and key not in built
                             for key, (required, _) in _SECTIONS.items()):
        raise _Unwalkable
    return _assemble(built)


def parse(document: str | bytes | bytearray) -> Scenario:
    """Parse and fully validate one scenario document.

    Bytes are decoded as ``json.loads`` decodes them. A text of at least
    ``STREAM_MIN_CHARS`` characters is first walked, so that no more than
    one constraint, query or forecast is held decoded at a time. A document the walk
    cannot finish, valid or not, is decoded whole and then built, which
    reports every error.
    """
    if isinstance(document, (bytes, bytearray)):
        document = _decode(document)
    if len(document) >= STREAM_MIN_CHARS:
        try:
            return _walk(document)
        except (_Unwalkable, ValueError, RecursionError):  # ValueError: JSONDecodeError,
            pass  # ConstructionError; the whole-document path says what is wrong
    try:
        data = json.loads(document)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno, column=e.colno) from e
    except ValueError as e:  # an integer literal past the interpreter's digit limit
        raise ParseError(str(e)) from e
    except RecursionError:
        raise ParseError("the document nests too deeply to decode") from None
    return _scenario(data)


def parse_file(path: str) -> Scenario:
    """Parse and fully validate the scenario file at ``path``, whose bytes are decoded
    as :func:`parse` decodes bytes."""
    return parse(_read(path))


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
            {"event": e.labels, "value": v}
            for e, v in zip(sc.forecasts.events, sc.forecasts.forecasts)
        ]
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _check_units(units: str) -> None:
    if units not in ("nats", "bits"):
        raise ConstructionError("report.bad_units", f"units must be nats or bits, got {units!r}")


def _info_value(nats: float, units: str) -> str:
    if units == "bits":
        return f"{fmt10(nats / LN2)} bits"
    return f"{fmt10(nats)} nats"


def _table(row: str, columns: Sequence[Sequence]) -> str:
    """``row`` once per element of the equal-length ``columns``, in one % pass.

    "%.10g" % x is fmt10(x), and labels go in as arguments, so a % in a
    label is never read as a directive.
    """
    k, n = len(columns), len(columns[0])
    args = [None] * (k * n)
    for j, column in enumerate(columns):
        args[j::k] = column
    return "\n".join([row] * n) % tuple(args)


def distribution_block(dist: Distribution) -> str:
    """One indented ``label weight`` line per outcome, in space order, as one string."""
    return _table("  %s %.10g", (dist.space.outcomes, dist.array.tolist()))


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
    lines.append(distribution_block(report.posterior))
    return lines


def _emit_verdict(verdict: AdmissibilityVerdict) -> list[str]:
    outcomes = verdict.space.outcomes
    if verdict.admissible:
        return ["admissible: yes", _table("world %s: loss %.10g", (outcomes, verdict.losses))]
    return [
        "admissible: no",
        "dominating: " + " ".join(fmt10(v) for v in verdict.dominating),
        _table("world %s: loss %.10g -> %.10g",
               (outcomes, verdict.losses, verdict.dominating_losses)),
        f"margin: {fmt10(verdict.margin)}",
    ]


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
    only those) to bits when set. An admissibility verdict names its
    space, so it prints its per-world loss table unaided; ``system``, the
    audited forecast system, is optional and only checked against it.
    Raises :class:`ConstructionError` (``report.bad_units``) for units other
    than "nats" or "bits", and (``report.space_mismatch``) for a system on
    another space than the verdict's.
    """
    _check_units(units)
    if isinstance(report, UpdateReport):
        lines = _emit_update(report, units)
    elif isinstance(report, AdmissibilityVerdict):
        if system is not None:
            _require_same_space(system.space, report.space, "report", "audited system")
        lines = _emit_verdict(report)
    else:
        raise TypeError(f"not an update report or admissibility verdict: {report!r}")
    return "\n".join(lines) + "\n"


def run_queries(dist: Distribution, queries: Sequence[Query], units: str = "nats") -> list[str]:
    """Answer each query against ``dist``, one entry per answer.

    Each entry is one report line, except the posterior's, which spans
    a heading line and one line per outcome. ``units`` is "nats" or "bits".
    """
    _check_units(units)
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
            lines.append("distribution:\n" + distribution_block(dist))
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
    "distribution_block",
    "run_queries",
    "fmt10",
]
