"""Scenario parsing, serialization round-trips, and report formatting."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from relent.coherence import ForecastSystem
from relent.constraints import CondProb, EventProb, Expectation, PartitionWeights
from relent.cli import main
from relent.errors import ConstructionError, ParseError, ValidationError
from relent.information import entropy
from relent.scenario import (
    CondProbQuery,
    Scenario,
    EntropyQuery,
    MutualInfoQuery,
    PosteriorQuery,
    ProbQuery,
    emit_divergence,
    emit_report,
    fmt10,
    parse,
    parse_file,
    run_queries,
    serialize,
)
from relent.solver import maxent_update
from relent.spaces import Distribution, Event, Partition, RandomVariable, SampleSpace

from conftest import positive_distributions

RICH_DOCUMENT = """
{
  "version": 1,
  "space": ["a", "b", "c", "d"],
  "prior": [0.1, 0.2, 0.3, 0.4],
  "constraints": [
    {"type": "event_prob", "event": ["a", "b"], "value": 0.5},
    {"type": "expectation", "variable": {"a": 1, "b": 2, "c": 3, "d": 4}, "value": 2.5},
    {"type": "cond_prob", "event": ["a"], "given": ["a", "b"], "value": 0.25},
    {"type": "partition", "cells": [["a", "b"], ["c", "d"]], "weights": [0.5, 0.5]}
  ],
  "queries": [
    {"type": "prob", "event": ["a"]},
    {"type": "cond_prob", "event": ["a"], "given": ["a", "b"]},
    {"type": "entropy"},
    {"type": "mutual_information", "row_cells": [["a", "b"], ["c", "d"]],
     "col_cells": [["a", "c"], ["b", "d"]]},
    {"type": "posterior"}
  ],
  "forecasts": [
    {"event": ["a"], "value": 0.7},
    {"event": ["b", "c"], "value": 0.2}
  ]
}
"""


class TestParse:
    def test_rich_document_parses(self):
        sc = parse(RICH_DOCUMENT)
        assert sc.space.outcomes == ("a", "b", "c", "d")
        assert sc.prior.weights == (0.1, 0.2, 0.3, 0.4)
        kinds = tuple(type(c) for c in sc.constraints)
        assert kinds == (EventProb, Expectation, CondProb, PartitionWeights)
        assert isinstance(sc.queries[0], ProbQuery)
        assert isinstance(sc.queries[1], CondProbQuery)
        assert isinstance(sc.queries[2], EntropyQuery)
        assert isinstance(sc.queries[3], MutualInfoQuery)
        assert isinstance(sc.queries[4], PosteriorQuery)
        assert sc.forecasts is not None
        assert sc.forecasts.forecasts == (0.7, 0.2)

    def test_uniform_prior_expansion(self):
        sc = parse('{"space": ["x", "y"], "prior": "uniform", "constraints": []}')
        assert sc.prior.weights == (0.5, 0.5)

    def test_queries_and_forecasts_default_empty(self):
        sc = parse('{"space": ["x", "y"], "prior": "uniform", "constraints": []}')
        assert sc.queries == ()
        assert sc.forecasts is None

    def test_integer_weights_coerce_to_float(self):
        sc = parse('{"space": ["x", "y"], "prior": [1, 0], "constraints": []}')
        assert sc.prior.weights == (1.0, 0.0)

    def test_parse_file(self, tmp_path):
        path = tmp_path / "case.json"
        path.write_text(RICH_DOCUMENT, encoding="utf-8")
        assert parse_file(str(path)) == parse(RICH_DOCUMENT)

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse('{"space": ["a"],\n "prior": }')
        assert exc.value.line == 2
        assert exc.value.column is not None

    def test_malformed_json_not_a_validation_error(self):
        with pytest.raises(ParseError):
            parse("not json at all")


# one document per failure mode, each with its own code
REJECTIONS = [
    ("[1, 2]", "file.not_object"),
    ('{"space": ["a"], "prior": "uniform", "constraints": [], "extra": 1}',
     "file.unknown_key"),
    ('{"version": 2, "space": ["a"], "prior": "uniform", "constraints": []}',
     "file.bad_version"),
    ('{"version": true, "space": ["a"], "prior": "uniform", "constraints": []}',
     "file.bad_version"),
    ('{"prior": "uniform", "constraints": []}', "space.missing"),
    ('{"space": "a", "prior": "uniform", "constraints": []}', "space.not_label_array"),
    ('{"space": [1], "prior": "uniform", "constraints": []}', "space.not_label_array"),
    ('{"space": [], "prior": "uniform", "constraints": []}', "space.empty"),
    ('{"space": ["a", "a"], "prior": "uniform", "constraints": []}',
     "space.duplicate_label"),
    ('{"space": ["a"], "constraints": []}', "prior.missing"),
    ('{"space": ["a"], "prior": {"a": 1}, "constraints": []}', "prior.bad"),
    ('{"space": ["a"], "prior": [true], "constraints": []}', "prior.bad_number"),
    ('{"space": ["a", "b"], "prior": [0.5, 0.6], "constraints": []}',
     "dist.sum_not_one"),
    ('{"space": ["a", "b"], "prior": [1.0], "constraints": []}', "dist.length_mismatch"),
    ('{"space": ["a", "b"], "prior": [-0.5, 1.5], "constraints": []}',
     "dist.negative_weight"),
    ('{"space": ["a"], "prior": "uniform"}', "constraints.missing"),
    ('{"space": ["a"], "prior": "uniform", "constraints": {}}', "constraints.not_array"),
    ('{"space": ["a"], "prior": "uniform", "constraints": [17]}', "constraint.not_object"),
    ('{"space": ["a"], "prior": "uniform", "constraints": [{"event": ["a"]}]}',
     "constraint.missing_type"),
    ('{"space": ["a"], "prior": "uniform", "constraints": [{"type": "magic"}]}',
     "constraint.unknown_type"),
    ('{"space": ["a"], "prior": "uniform", "constraints": '
     '[{"type": "event_prob", "event": ["a"], "value": 1, "why": "x"}]}',
     "constraint.unknown_key"),
    ('{"space": ["a"], "prior": "uniform", "constraints": '
     '[{"type": "event_prob", "event": ["a"]}]}', "constraint.missing_key"),
    ('{"space": ["a"], "prior": "uniform", "constraints": '
     '[{"type": "event_prob", "event": ["zz"], "value": 1}]}', "event.unknown_label"),
    ('{"space": ["a"], "prior": "uniform", "constraints": '
     '[{"type": "event_prob", "event": "a", "value": 1}]}', "constraint.bad_event"),
    ('{"space": ["a"], "prior": "uniform", "constraints": '
     '[{"type": "event_prob", "event": ["a"], "value": true}]}', "constraint.bad_value"),
    ('{"space": ["a"], "prior": "uniform", "constraints": '
     '[{"type": "event_prob", "event": ["a"], "value": Infinity}]}',
     "constraint.not_finite"),
    ('{"space": ["a"], "prior": "uniform", "constraints": '
     '[{"type": "expectation", "variable": [1], "value": 1}]}', "constraint.bad_variable"),
    ('{"space": ["a", "b"], "prior": "uniform", "constraints": '
     '[{"type": "expectation", "variable": {"a": 1}, "value": 1}]}', "variable.not_total"),
    ('{"space": ["a"], "prior": "uniform", "constraints": '
     '[{"type": "expectation", "variable": {"a": 1, "zz": 2}, "value": 1}]}',
     "variable.unknown_label"),
    ('{"space": ["a", "b"], "prior": "uniform", "constraints": '
     '[{"type": "partition", "cells": "ab", "weights": [1.0]}]}', "constraint.bad_cells"),
    ('{"space": ["a", "b"], "prior": "uniform", "constraints": '
     '[{"type": "partition", "cells": [["a"], ["a", "b"]], "weights": [0.5, 0.5]}]}',
     "partition.overlapping_cells"),
    ('{"space": ["a", "b"], "prior": "uniform", "constraints": '
     '[{"type": "partition", "cells": [["a"]], "weights": [1.0]}]}',
     "partition.not_exhaustive"),
    ('{"space": ["a", "b"], "prior": "uniform", "constraints": '
     '[{"type": "partition", "cells": [["a"], ["b"]], "weights": [0.5, "x"]}]}',
     "constraint.bad_weights"),
    ('{"space": ["a", "b"], "prior": "uniform", "constraints": '
     '[{"type": "partition", "cells": [["a"], ["b"]], "weights": [0.6, 0.6]}]}',
     "constraint.sum_not_one"),
    ('{"space": ["a"], "prior": "uniform", "constraints": [], "queries": 5}',
     "queries.not_array"),
    ('{"space": ["a"], "prior": "uniform", "constraints": [], "queries": [5]}',
     "query.not_object"),
    ('{"space": ["a"], "prior": "uniform", "constraints": [], "queries": [{}]}',
     "query.missing_type"),
    ('{"space": ["a"], "prior": "uniform", "constraints": [], '
     '"queries": [{"type": "magic"}]}', "query.unknown_type"),
    ('{"space": ["a"], "prior": "uniform", "constraints": [], '
     '"queries": [{"type": "entropy", "base": 2}]}', "query.unknown_key"),
    ('{"space": ["a"], "prior": "uniform", "constraints": [], '
     '"queries": [{"type": "prob"}]}', "query.missing_key"),
    ('{"space": ["a"], "prior": "uniform", "constraints": [], '
     '"queries": [{"type": "prob", "event": "a"}]}', "query.bad_event"),
    ('{"space": ["a"], "prior": "uniform", "constraints": [], "forecasts": {}}',
     "forecasts.not_array"),
    ('{"space": ["a"], "prior": "uniform", "constraints": [], "forecasts": [3]}',
     "forecast.bad_entry"),
    ('{"space": ["a"], "prior": "uniform", "constraints": [], '
     '"forecasts": [{"event": ["a"], "value": NaN}]}', "forecast.not_finite"),
]


#: The whole line ``relent update`` writes to stderr for some documents of
#: REJECTIONS: a schema error, and errors raised inside the domain constructors.
STDERR_LINES = {
    "prior.bad_number": 'invalid input [prior.bad_number]: "prior"[0] must be a number, got True',
    "dist.sum_not_one": "invalid input [dist.sum_not_one]: weights sum to 1.1, not 1",
    "event.unknown_label": "invalid input [event.unknown_label]: event references labels "
                           "not in the space: ['zz']",
    "partition.overlapping_cells": "invalid input [partition.overlapping_cells]: outcomes "
                                   "in more than one cell: ['a']",
    "variable.not_total": "invalid input [variable.not_total]: no value for outcomes ['b']",
}


class TestRejection:
    @pytest.mark.parametrize("document,code", REJECTIONS, ids=[c for _, c in REJECTIONS])
    def test_rejected_with_code(self, document, code, tmp_path, capsys):
        with pytest.raises(ConstructionError) as exc:
            parse(document)
        assert exc.value.code == code
        if code in STDERR_LINES:
            path = tmp_path / "bad.json"
            path.write_text(document, encoding="utf-8")
            assert main(["update", str(path)]) == 3
            assert capsys.readouterr() == ("", STDERR_LINES[code] + "\n")

    @pytest.mark.parametrize("kind", [["event_prob"], {}, 3, None], ids=repr)
    @pytest.mark.parametrize("section,code", [("constraints", "constraint.unknown_type"),
                                              ("queries", "query.unknown_type")])
    def test_non_string_type_is_unknown(self, section, code, kind):
        doc = {"space": ["a"], "prior": "uniform", "constraints": [], section: [{"type": kind}]}
        with pytest.raises(ConstructionError) as exc:
            parse(json.dumps(doc))
        assert exc.value.code == code

    def test_validation_error_is_another_name_for_construction_error(self):
        assert ValidationError is ConstructionError

    def test_rejection_codes_cover_distinct_failures(self):
        # the table is the contract: every listed failure mode has a code,
        # and no two different schema offenses share one accidentally
        codes = [c for _, c in REJECTIONS]
        assert len(set(codes)) >= 35


#: JSON values that are not numbers a float can hold, plus NaN, which is
#: a number to the parser and is rejected by the value it builds.
BAD_ELEMENTS = st.sampled_from([True, False, "0.5", None, float("nan"), int("9" * 400)])


def first_bad_element(raw: list):
    """Reference loop: the index of the first element the parser must name, or None.

    This is the element-by-element check the parser made before it
    validated number arrays whole, extended to integers too large for a
    float.
    """
    for i, x in enumerate(raw):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            return i
        try:
            float(x)
        except OverflowError:
            return i
    return None


def expected_message(where: str, x) -> str:
    if isinstance(x, int) and not isinstance(x, bool):
        return f"{where} is an integer too large for a float"
    return f"{where} must be a number, got {x!r}"


@st.composite
def spoiled(draw, valid: list):
    """``valid`` with one to three bad elements put at random positions."""
    raw = list(valid)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        raw[draw(st.integers(min_value=0, max_value=len(raw) - 1))] = draw(BAD_ELEMENTS)
    return raw


class TestArrayValidation:
    """Whole-array validation rejects exactly what the element loop rejects."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_prior_names_the_first_bad_index(self, data):
        n = data.draw(st.integers(min_value=1, max_value=40))
        raw = data.draw(spoiled([1.0 / n] * n))
        doc = json.dumps({"space": [f"w{i}" for i in range(n)], "prior": raw,
                          "constraints": []})
        with pytest.raises(ConstructionError) as exc:
            parse(doc)
        first = first_bad_element(raw)
        if first is None:
            assert exc.value.code == "dist.not_finite"
        else:
            assert exc.value.code == "prior.bad_number"
            assert str(exc.value) == expected_message(f'"prior"[{first}]', raw[first])

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_variable_names_the_first_bad_key(self, data):
        n = data.draw(st.integers(min_value=1, max_value=40))
        labels = [f"w{i}" for i in range(n)]
        values = data.draw(spoiled([float(i) for i in range(n)]))
        doc = json.dumps({"space": labels, "prior": "uniform", "constraints": [
            {"type": "expectation", "variable": dict(zip(labels, values)), "value": 0.0}]})
        with pytest.raises(ConstructionError) as exc:
            parse(doc)
        first = first_bad_element(values)
        if first is None:
            assert exc.value.code == "variable.not_finite"
        else:
            assert exc.value.code == "constraint.bad_variable"
            where = f'"constraints"[0].variable[{labels[first]!r}]'
            assert str(exc.value) == expected_message(where, values[first])


@st.composite
def scenarios(draw):
    """A scenario with every constraint kind, every query kind and forecasts."""
    prior = draw(positive_distributions(min_size=2, max_size=6))
    space = prior.space
    numbers = st.floats(allow_nan=False, allow_infinity=False)
    events = st.sets(st.sampled_from(space.outcomes)).map(lambda s: Event(space, s))

    def partition():
        cell_of = draw(st.lists(st.integers(0, 2), min_size=len(space), max_size=len(space)))
        cells = [[x for x, c in zip(space.outcomes, cell_of) if c == k] for k in range(3)]
        return Partition.from_labels(space, [c for c in cells if c])

    cut = partition()
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(cut.cells),
                                 max_size=len(cut.cells))))
    variable = RandomVariable(space, tuple(draw(
        st.lists(numbers, min_size=len(space), max_size=len(space)))))
    one_of_each = [
        EventProb(draw(events), draw(numbers)),
        Expectation(variable, draw(numbers)),
        CondProb(draw(events), draw(events), draw(numbers)),
        PartitionWeights(cut, tuple(raw / raw.sum())),
    ]
    queries = [ProbQuery(draw(events)), CondProbQuery(draw(events), draw(events)),
               EntropyQuery(), MutualInfoQuery(partition(), partition()), PosteriorQuery()]
    book = draw(st.lists(st.tuples(events, numbers), min_size=1, max_size=4))
    forecasts = ForecastSystem(space, tuple(e for e, _ in book), tuple(v for _, v in book))
    return Scenario(space, prior, tuple(draw(st.permutations(one_of_each))),
                    tuple(draw(st.permutations(queries))), forecasts)


class TestRoundTrip:
    @seed(20261018)
    @given(scenarios())
    @settings(max_examples=80, deadline=None)
    def test_every_kind_round_trips(self, sc):
        text = serialize(sc)
        assert parse(text) == sc
        assert serialize(parse(text)) == text

    def test_parse_serialize_parse_fixed_point(self):
        first = parse(RICH_DOCUMENT)
        text = serialize(first)
        second = parse(text)
        assert second == first

    def test_serialize_is_byte_stable(self):
        sc = parse(RICH_DOCUMENT)
        assert serialize(sc) == serialize(parse(serialize(sc)))

    def test_serialized_events_in_space_order(self):
        sc = parse('{"space": ["z", "a"], "prior": "uniform", "constraints": '
                   '[{"type": "event_prob", "event": ["a", "z"], "value": 1}]}')
        doc = json.loads(serialize(sc))
        assert doc["constraints"][0]["event"] == ["z", "a"]

    def test_uniform_round_trips_through_explicit_weights(self):
        sc = parse('{"space": ["x", "y", "z"], "prior": "uniform", "constraints": []}')
        again = parse(serialize(sc))
        assert again.prior == sc.prior

    def test_awkward_floats_survive(self):
        sc = parse('{"space": ["x", "y", "z"], "prior": [0.1, 0.2, 0.7], '
                   '"constraints": []}')
        assert parse(serialize(sc)).prior.weights == (0.1, 0.2, 0.7)


class TestReports:
    def setup_method(self):
        self.space = SampleSpace(("rain", "dry"))
        self.prior = Distribution(self.space, (0.5, 0.5))

    def test_update_report_text(self):
        report = maxent_update(self.prior, [EventProb(Event(self.space, {"rain"}), 0.8)])
        text = emit_report(report)
        lines = text.splitlines()
        assert lines[0] == "method: jeffrey"
        assert "posterior:" in lines
        assert "  rain 0.8" in lines
        assert "  dry 0.2" in lines
        assert text.endswith("\n")

    def test_emission_is_deterministic(self):
        report = maxent_update(self.prior, [EventProb(Event(self.space, {"rain"}), 0.8)])
        assert emit_report(report) == emit_report(report)

    def test_no_op_report_echoes_prior(self):
        report = maxent_update(self.prior, [EventProb(Event(self.space, {"rain"}), 0.5)])
        text = emit_report(report)
        assert "method: no_op" in text
        assert "  rain 0.5" in text

    def test_units_divide_information_by_ln2(self):
        report = maxent_update(self.prior, [EventProb(Event(self.space, {"rain"}), 0.8)])
        nats_line = [l for l in emit_report(report).splitlines() if l.startswith("objective")][0]
        bits_line = [
            l for l in emit_report(report, units="bits").splitlines() if l.startswith("objective")
        ][0]
        nats = float(nats_line.split()[1])
        bits = float(bits_line.split()[1])
        assert bits == pytest.approx(nats / math.log(2.0), rel=1e-9)
        assert nats_line.endswith("nats")
        assert bits_line.endswith("bits")

    def test_divergence_table_text(self):
        table = ((0.0, 0.3), (0.5, 0.15), (1.0, 0.0))
        text = emit_divergence(table)
        assert text == "q divergence\n0 0.3\n0.5 0.15\n1 0\n"

    def test_emit_report_renders_only_reports_and_verdicts(self):
        with pytest.raises(TypeError):
            emit_report(((0.0, 0.3), (1.0, 0.0)))


class TestQueries:
    def setup_method(self):
        self.space = SampleSpace(("a", "b", "c", "d"))
        self.dist = Distribution(self.space, (0.5, 0.25, 0.125, 0.125))

    def test_prob_query_line(self):
        lines = run_queries(self.dist, [ProbQuery(Event(self.space, {"a", "b"}))])
        assert lines == ["P({a, b}) = 0.75"]

    def test_cond_prob_query_line(self):
        q = CondProbQuery(Event(self.space, {"a"}), Event(self.space, {"a", "b"}))
        lines = run_queries(self.dist, [q])
        assert lines == ["P({a} | {a, b}) = 0.6666666667"]

    def test_entropy_query_nats_and_bits(self):
        assert run_queries(self.dist, [EntropyQuery()]) == ["entropy = 1.213007566 nats"]
        assert run_queries(self.dist, [EntropyQuery()], units="bits") == [
            "entropy = 1.75 bits"
        ]

    def test_mutual_information_of_identical_partitions_is_entropy(self):
        cells = Partition.from_labels(self.space, (("a",), ("b",), ("c", "d")))
        q = MutualInfoQuery(cells, cells)
        line = run_queries(self.dist, [q])[0]
        value = float(line.split()[2])
        coarse = Distribution(SampleSpace(("x", "y", "z")), (0.5, 0.25, 0.25))
        # the report line carries ten significant digits
        assert value == pytest.approx(entropy(coarse), abs=1e-9)

    def test_independent_partitions_have_zero_mutual_information(self):
        rows = Partition.from_labels(self.space, (("a", "b"), ("c", "d")))
        cols = Partition.from_labels(self.space, (("a", "c"), ("b", "d")))
        flat = Distribution(self.space, (0.25, 0.25, 0.25, 0.25))
        line = run_queries(flat, [MutualInfoQuery(rows, cols)])[0]
        assert float(line.split()[2]) == pytest.approx(0.0, abs=1e-12)

    def test_mutual_information_of_cells_that_describe_alike(self):
        # the cell {"a, b"} and the cell {a, b} both describe as "{a, b}"
        space = SampleSpace(("a, b", "a", "b", "c"))
        rows = Partition.from_labels(space, (("a, b",), ("a", "b"), ("c",)))
        cols = Partition.from_labels(space, (("a, b", "a"), ("b", "c")))
        lines = run_queries(Distribution.uniform(space), [MutualInfoQuery(rows, cols)])
        assert lines == ["mutual_information = 0.3465735903 nats"]

    def test_posterior_query_lists_distribution(self):
        lines = run_queries(self.dist, [PosteriorQuery()])
        assert lines[0] == "distribution:"
        assert lines[1] == "  a 0.5"
        assert len(lines) == 5


class TestFormatting:
    def test_fmt10_examples(self):
        assert fmt10(0.1) == "0.1"
        assert fmt10(1.0 / 3.0) == "0.3333333333"
        assert fmt10(2.0 / 3.0) == "0.6666666667"
        assert fmt10(1.0) == "1"
        assert fmt10(-0.5) == "-0.5"

    def test_admissibility_rendering_with_losses(self):
        from relent.coherence import ForecastSystem, audit_admissibility

        space = SampleSpace(("s1", "s2"))
        fs = ForecastSystem(
            space,
            (Event(space, {"s1"}), Event(space, {"s2"})),
            (0.7, 0.7),
        )
        verdict = audit_admissibility(fs)
        text = emit_report(verdict, system=fs)
        lines = text.splitlines()
        assert lines[0] == "admissible: no"
        assert lines[1].startswith("dominating: 0.5 0.5")
        assert "world s1: loss 0.58 -> 0.5" in lines
        assert lines[-1].startswith("margin: 0.08")

    def test_partition_constraint_reports_jeffrey_method(self):
        space = SampleSpace(("a", "b", "c", "d"))
        prior = Distribution(space, (0.2, 0.3, 0.3, 0.2))
        part = Partition.from_labels(space, (("a", "b"), ("c", "d")))
        report = maxent_update(prior, [PartitionWeights(part, (0.8, 0.2))])
        assert "method: jeffrey" in emit_report(report)
