"""Scenario parsing, serialization round-trips, and report formatting."""

import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from relent.coherence import ForecastSystem
from relent.constraints import CondProb, EventProb, Expectation, PartitionWeights
from relent.cli import main
from relent.demos import DEMOS, demo_die, demo_mycin
from relent.errors import ConstructionError, ParseError, ValidationError
from relent.information import entropy
import relent.scenario as scenario_module
from relent.scenario import (
    CondProbQuery,
    Scenario,
    EntropyQuery,
    MutualInfoQuery,
    PosteriorQuery,
    ProbQuery,
    distribution_block,
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

from conftest import distributions, positive_distributions

def traced_peak(load) -> int:
    """The most memory that tracemalloc sees allocated at once while ``load`` runs."""
    tracemalloc.start()
    try:
        load()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_DIE = SampleSpace(tuple(f"face{k}" for k in range(1, 7)))
_DIE_PRIOR = Distribution.uniform(_DIE)
_DIE_SIX = _DIE.subset("face6")

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

    def test_in_order_and_shuffled_expectations_give_the_same_bits(self):
        rng = np.random.default_rng(5)
        labels = [f"w{i}" for i in range(50)]
        # ints, floats and values that round when read
        values = [int(v) if i % 3 == 0 else float(v) / 7.0
                  for i, v in enumerate(rng.integers(-10**17, 10**17, size=50))]
        ordered = dict(zip(labels, values))
        shuffled = {labels[i]: values[i] for i in rng.permutation(50)}
        assert list(shuffled) != list(ordered)
        arrays = []
        for variable in (ordered, shuffled):
            doc = {"space": labels, "prior": "uniform", "constraints": [
                {"type": "expectation", "variable": variable, "value": 0.0}]}
            arrays.append(parse(json.dumps(doc)).constraints[0].variable.array)
        assert arrays[0].tobytes() == arrays[1].tobytes()
        assert arrays[0].tolist() == [float(v) for v in values]

    def test_parse_file(self, tmp_path):
        path = tmp_path / "case.json"
        path.write_text(RICH_DOCUMENT, encoding="utf-8")
        assert parse_file(str(path)) == parse(RICH_DOCUMENT)

    def test_file_that_is_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "case.json"
        text = RICH_DOCUMENT.encode()
        offset = text.index(b'"d"')
        path.write_bytes(text[:offset] + b"\xff" + text[offset:])
        with pytest.raises(ParseError) as exc:
            parse_file(str(path))
        assert str(exc.value) == f"the file is not UTF-8: invalid start byte at byte offset {offset}"
        assert exc.value.line is None
        # JSON's rule picks UTF-16-BE for a leading NUL; the odd length cuts it short,
        # and the file and its bytes fail alike
        path.write_bytes(b'\x00{"space": ["a"]}')
        for read in (lambda: parse_file(str(path)), lambda: parse(path.read_bytes())):
            with pytest.raises(ParseError) as exc:
                read()
            assert str(exc.value) == "the file is not UTF-16-BE: truncated data at byte offset 16"

    def test_file_with_a_utf8_bom_is_read_as_parse_reads_its_bytes(self, tmp_path):
        path = tmp_path / "die.json"
        path.write_bytes("\ufeff".encode() + (ROOT / "scenarios" / "die.json").read_bytes())
        sc = parse_file(str(path))
        report = maxent_update(sc.prior, sc.constraints)
        text = emit_report(report) + "\n".join(run_queries(report.posterior, sc.queries)) + "\n"
        assert text.encode() == (ROOT / "tests" / "golden" / "update_die.out").read_bytes()

    @pytest.mark.parametrize("padding", [0, scenario_module.STREAM_MIN_CHARS],
                             ids=["whole", "walked"])
    def test_bytes_are_decoded_as_json_loads_decodes_them(self, padding):
        document = (RICH_DOCUMENT + " " * padding).encode()
        assert parse(document) == parse(bytearray(document)) == parse(RICH_DOCUMENT)
        assert parse("\ufeff".encode() + document) == parse(RICH_DOCUMENT)  # the UTF-8 BOM
        assert parse((RICH_DOCUMENT + " " * padding).encode("utf-16")) == parse(RICH_DOCUMENT)

    @pytest.mark.parametrize("padding", [0, scenario_module.STREAM_MIN_CHARS],
                             ids=["whole", "walked"])
    def test_bytes_that_are_not_utf8_are_a_parse_error(self, padding):
        text = (RICH_DOCUMENT + " " * padding).encode()
        offset = text.index(b'"d"')
        with pytest.raises(ParseError) as exc:
            parse(text[:offset] + b"\xff" + text[offset:])
        assert str(exc.value) == f"the file is not UTF-8: invalid start byte at byte offset {offset}"
        with pytest.raises(ParseError) as exc:  # offsets count the byte-order mark
            parse(b"\xef\xbb\xbf" + text[:offset] + b"\xff" + text[offset:])
        assert str(exc.value) == (
            f"the file is not UTF-8-SIG: invalid start byte at byte offset {offset + 3}")
        assert exc.value.line is None

    def test_parse_file_releases_each_section_as_it_is_built(self, tmp_path):
        # walked, each raw member and each raw constraint or query is gone once
        # its value exists, so the peak stays near the decode's
        n = 20_000
        labels = [f"outcome_{i:06d}" for i in range(n)]
        half, rest = labels[: n // 2], labels[n // 2:]
        doc = {"space": labels, "prior": [1 / n] * n, "constraints": [
            {"type": "event_prob", "event": half, "value": 0.4},
            {"type": "expectation", "variable": {x: i % 7 for i, x in enumerate(labels)},
             "value": 3.5},
            {"type": "cond_prob", "event": labels[::3], "given": half, "value": 0.3},
            {"type": "partition", "cells": [half, rest], "weights": [0.4, 0.6]},
        ], "queries": [{"type": "prob", "event": labels[::2]}]}
        path = tmp_path / "large.json"
        path.write_text(json.dumps(doc), encoding="utf-8")

        assert path.stat().st_size >= scenario_module.STREAM_MIN_CHARS
        decode = traced_peak(lambda: json.loads(path.read_text(encoding="utf-8")))
        build = traced_peak(lambda: parse_file(str(path)))
        assert build / decode <= 1.15

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse('{"space": ["a"],\n "prior": }')
        assert exc.value.line == 2
        assert exc.value.column is not None

    def test_malformed_json_not_a_validation_error(self):
        with pytest.raises(ParseError):
            parse("not json at all")

    @pytest.mark.parametrize("document", ["[" * 100_000, '{"space": ' + "[" * 100_000],
                             ids=["bare", "in_space"])
    def test_deep_nesting_is_a_parse_error(self, document):
        with pytest.raises(ParseError) as exc:
            parse(document)
        assert str(exc.value) == "the document nests too deeply to decode"
        assert exc.value.line is None


ROOT = Path(__file__).resolve().parent.parent
#: Every scenario document the golden cases read.
GOLDEN_DOCUMENTS = sorted(
    str(p.relative_to(ROOT))
    for p in [*ROOT.glob("scenarios/*.json"), *ROOT.glob("tests/golden/*.json")]
    if p.name != "cases.json"
)
#: Entries that no section accepts, the last one nested past the decoder's depth.
BAD_ENTRIES = ["17", '{"type": "magic"}', '{"type": "prob"}', '{"type": "entropy", "x": 1}',
               '{"type": "event_prob", "event": [1, "zz"], "value": 0.5}',
               '{"type": "event_prob", "event": ["zz"], "value": 0.5}', "[" * 5000]
#: Forecast entries that "forecasts" rejects, %s standing for a good entry's event:
#: not an object, an unknown key, no event, no value, an unknown label, a bool,
#: string or NaN value, and nesting past the decoder's depth.
BAD_FORECASTS = ["17", '{"event": %s, "value": 0.5, "why": 1}', '{"value": 0.5}',
                 '{"event": %s}', '{"event": ["zz"], "value": 0.5}', '{"event": %s, "value": true}',
                 '{"event": %s, "value": "0.5"}', '{"event": %s, "value": NaN}', "[" * 5000]


def _render(members: list[tuple[str, str]]) -> str:
    return "{" + ", ".join(f"{json.dumps(key)}: {value}" for key, value in members) + "}"


def mutants(text: str, rng: random.Random) -> list[str]:
    """``text`` and seeded variants of it, valid or not, one or more per kind of change."""
    members = [(key, json.dumps(value)) for key, value in json.loads(text).items()]
    keys = [key for key, _ in members]

    def put(member, at=None):
        out = list(members)
        out.insert(rng.randrange(len(out) + 1) if at is None else at, member)
        return _render(out)

    def replaced(key, value):
        return _render([(k, value if k == key else v) for k, v in members])

    out = [text, " \n" + text + "\n\t "]
    for _ in range(3):
        out.append(_render(rng.sample(members, len(members))))
    duplicate = rng.choice(members)
    # the last of two members counts: a space named again in another order
    # at the end must not leave the sections before it built on the first
    respaced = ("space", json.dumps(json.loads(dict(members)["space"])[::-1]))
    out += [put(duplicate), put(duplicate, at=len(members)), put(respaced, at=len(members)),
            put(("extra", "1")), _render([("version", "2"), *members, ("version", "1")])]
    for version in ("2", "true", '"1"', "null", "1.0"):
        out.append(replaced("version", version) if "version" in keys else put(("version", version)))
    out += [text + tail for tail in (" x", "{}", ",", "]")]
    out += [text[:rng.randrange(len(text))] for _ in range(6)]
    for section, bads in (("constraints", BAD_ENTRIES), ("queries", BAD_ENTRIES),
                          ("forecasts", BAD_FORECASTS)):
        if section not in keys:
            continue
        raw = json.loads(dict(members)[section])
        entries = [json.dumps(e) for e in raw]
        for bad in bads:
            if "%s" in bad:
                bad %= json.dumps(rng.choice(raw)["event"])
            k = rng.randrange(len(entries) + 1)
            out.append(replaced(section, "[" + ", ".join([*entries[:k], bad, *entries[k + 1:]]) + "]"))
    for value in ("{}", '"x"', "null", "5"):
        out.append(replaced("constraints", value))
    space = dict(members)["space"]
    rest = [m for m in members if m[0] != "space"]
    at = next(i for i, (k, _) in enumerate(rest) if k == "constraints") + 1
    out.append(_render([*rest[:at], ("space", space), *rest[at:]]))
    out.append(text.replace('"space"', '"sp\\u0061ce"', 1))
    out.append("\ufeff" + text)
    return out


def parse_outcome(text: str):
    """The scenario ``parse`` builds from ``text`` and its canonical JSON, or the
    type, code, message and position of the error it raises."""
    try:
        sc = parse(text)
    except (ConstructionError, ParseError) as e:
        return type(e), getattr(e, "code", None), str(e), getattr(e, "line", None), getattr(
            e, "column", None)
    return sc, serialize(sc)


class TestStreaming:
    """The walk over a large document and the whole-document path build the same."""

    @pytest.mark.parametrize("name", GOLDEN_DOCUMENTS)
    def test_walk_and_whole_document_agree(self, name, monkeypatch):
        text = (ROOT / name).read_text(encoding="utf-8")
        cases = mutants(text, random.Random(f"{name}:7"))
        walked = []
        for doc in cases:
            monkeypatch.setattr(scenario_module, "STREAM_MIN_CHARS", len(doc) + 1)
            whole = parse_outcome(doc)
            monkeypatch.setattr(scenario_module, "STREAM_MIN_CHARS", 0)
            assert parse_outcome(doc) == whole, doc[:200]
            try:
                scenario_module._walk(doc)
                walked.append(doc)
            except Exception:
                pass
        # the walk itself builds the golden document, with or without outer
        # whitespace, and never a document the whole-document path rejects
        assert cases[0] in walked and cases[1] in walked
        assert all(isinstance(parse_outcome(doc)[0], Scenario) for doc in walked)

    def test_size_selects_the_path(self, monkeypatch):
        walks = []
        real_walk = scenario_module._walk

        def walk(text):
            walks.append(len(text))
            return real_walk(text)

        reference = parse(RICH_DOCUMENT)
        monkeypatch.setattr(scenario_module, "_walk", walk)
        for threshold, expected in ((len(RICH_DOCUMENT), [len(RICH_DOCUMENT)]),
                                    (len(RICH_DOCUMENT) + 1, [])):
            walks.clear()
            monkeypatch.setattr(scenario_module, "STREAM_MIN_CHARS", threshold)
            assert parse(RICH_DOCUMENT) == reference
            assert walks == expected

    def test_walk_holds_one_decoded_entry_at_a_time(self, tmp_path):
        # 400 event constraints over 2000 outcomes, 1.98 MB of text: decoded whole
        # it peaks at 14.6 MB, walked at 4.0 MB (ratio 0.27), the text read from
        # the file and the 0.8 MB of built event masks; 0/1 float indicators
        # would hold 6.4 MB and read 0.61
        labels = [f"w{i:05d}" for i in range(2000)]
        doc = {"version": 1, "space": labels, "prior": "uniform", "constraints": [
            {"type": "event_prob", "event": labels[k % 7::7] + labels[:k], "value": 0.5}
            for k in range(400)]}
        path = tmp_path / "many.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert path.stat().st_size >= scenario_module.STREAM_MIN_CHARS

        decode = traced_peak(lambda: json.loads(path.read_text(encoding="utf-8")))
        build = traced_peak(lambda: parse_file(str(path)))
        assert build / decode <= 0.4

    def test_walk_holds_one_decoded_forecast_at_a_time(self, tmp_path):
        # a book over 4096 worlds with 12 bit events and their 12 neighbouring
        # conjunctions, 0.37 MB of text: its decode peaks at 2.94 MB and its walked
        # parse at 1.19 MB (ratio 0.40), most of that the text and the bytes it was
        # read from; with "forecasts" decoded as one member the walked parse peaked
        # at 3.50 MB (1.19), as the whole-document path does (3.54 MB, 1.20)
        k = 12
        labels = [f"w{i:04d}" for i in range(2 ** k)]
        events = [[x for i, x in enumerate(labels) if i >> a & 1] for a in range(k)]
        events += [[x for i, x in enumerate(labels) if i >> a & i >> (a + 1) % k & 1]
                   for a in range(k)]
        doc = {"version": 1, "space": labels, "prior": "uniform", "constraints": [],
               "forecasts": [{"event": e, "value": 0.25 + j / 100} for j, e in enumerate(events)]}
        path = tmp_path / "book.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert path.stat().st_size >= scenario_module.STREAM_MIN_CHARS

        decode = traced_peak(lambda: json.loads(path.read_text(encoding="utf-8")))
        book = traced_peak(lambda: parse_file(str(path)))
        assert book / decode <= 0.5
        assert parse_file(str(path)).forecasts.forecasts == tuple(
            f["value"] for f in doc["forecasts"])


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

    def test_partition_weights_that_are_no_array(self):
        doc = ('{"space": ["a", "b"], "prior": "uniform", "constraints": '
               '[{"type": "partition", "cells": [["a"], ["b"]], "weights": 0.5}]}')
        with pytest.raises(ConstructionError) as exc:
            parse(doc)
        assert exc.value.code == "constraint.bad_weights"
        assert str(exc.value) == '"constraints"[0].weights must be an array of numbers'

    @pytest.mark.parametrize("kind", [["event_prob"], {}, 3, None], ids=repr)
    @pytest.mark.parametrize("section,code", [("constraints", "constraint.unknown_type"),
                                              ("queries", "query.unknown_type")])
    def test_non_string_type_is_unknown(self, section, code, kind):
        doc = {"space": ["a"], "prior": "uniform", "constraints": [], section: [{"type": kind}]}
        with pytest.raises(ConstructionError) as exc:
            parse(json.dumps(doc))
        assert exc.value.code == code

    @pytest.mark.parametrize("section,field,code", [
        ("constraints", '{"type": "event_prob", "event": %s, "value": 0.5}',
         "constraint.bad_event"),
        ("constraints", '{"type": "cond_prob", "event": ["a"], "given": %s, "value": 0.5}',
         "constraint.bad_event"),
        ("constraints", '{"type": "partition", "cells": [%s], "weights": [1]}',
         "constraint.bad_cells"),
        ("queries", '{"type": "prob", "event": %s}', "query.bad_event"),
        ("forecasts", '{"event": %s, "value": 0.5}', "forecast.bad_entry"),
    ])
    def test_non_string_label_is_a_bad_event_beside_an_unknown_one(self, section, field, code):
        # the unknown label alone would be event.unknown_label; the label that
        # is no string makes the whole field malformed
        entries = {"constraints": "[]", section: "[" + field % '[1, "zz"]' + "]"}
        doc = '{"space": ["a"], "prior": "uniform", %s}' % ", ".join(
            f'"{key}": {value}' for key, value in entries.items())
        with pytest.raises(ConstructionError) as exc:
            parse(doc)
        assert exc.value.code == code
        assert str(exc.value).endswith("must be an array of outcome labels, got [1, 'zz']")

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
        assert "\n".join(lines) == "\n".join(
            ["distribution:", "  a 0.5", "  b 0.25", "  c 0.125", "  d 0.125"]
        )

    def test_an_object_that_is_not_a_query_is_a_type_error(self):
        with pytest.raises(TypeError, match=r"^not a query: 'entropy'$"):
            run_queries(self.dist, [EntropyQuery(), "entropy"])


@pytest.mark.parametrize("units", ["BITS", "kelvin", "", None])
@pytest.mark.parametrize("render", [
    lambda units: emit_report(maxent_update(_DIE_PRIOR, [EventProb(_DIE_SIX, 0.5)]), units=units),
    lambda units: run_queries(_DIE_PRIOR, [ProbQuery(_DIE_SIX)], units),
    lambda units: demo_die(units),
    lambda units: DEMOS["mycin"](units),
], ids=["emit_report", "run_queries", "demo_die", "demo_mycin"])
def test_units_other_than_nats_or_bits_are_rejected(render, units):
    # any value but "bits" used to print nats, even where no information value is shown
    with pytest.raises(ConstructionError) as ei:
        render(units)
    assert ei.value.code == "report.bad_units"
    assert str(ei.value) == f"units must be nats or bits, got {units!r}"


def test_mycin_demo_in_bits_is_its_text_in_nats():
    # its gaps are probabilities, not information values
    assert DEMOS["mycin"] is demo_mycin
    assert demo_mycin("bits") == demo_mycin("nats") == demo_mycin()


def test_serializing_an_object_that_is_not_a_constraint_is_a_type_error():
    sc = parse(RICH_DOCUMENT)
    bogus = Scenario(sc.space, sc.prior, (*sc.constraints, "event_prob"))
    with pytest.raises(TypeError, match=r"^not a constraint or query: 'event_prob'$"):
        serialize(bogus)


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

    @pytest.mark.parametrize("worlds", [1, 2, 3], ids=["fewer", "same", "more"])
    def test_a_system_with_another_number_of_worlds_is_rejected(self, worlds):
        from relent.coherence import ForecastSystem, audit_admissibility

        space = SampleSpace(("s1", "s2"))
        verdict = audit_admissibility(ForecastSystem(
            space, (Event(space, {"s1"}), Event(space, {"s2"})), (0.7, 0.7)))
        other = SampleSpace(tuple(f"t{k}" for k in range(worlds)))
        # used to raise a bare ValueError from the table's slice assignment, and a system
        # of the same size lent its world names to the table
        with pytest.raises(ConstructionError) as ei:
            emit_report(verdict, system=ForecastSystem(other, (other.whole(),), (1.0,)))
        assert ei.value.code == "report.space_mismatch"
        assert str(ei.value) == "audited system lives on a different sample space"

    @pytest.mark.parametrize("dominated", [False, True], ids=["admissible", "dominated"])
    def test_world_table_matches_the_per_line_reference(self, dominated):
        from relent.coherence import ForecastSystem, audit_admissibility

        # labels that a format template would misread
        space = SampleSpace(("100%", "%s", "{}", "%(x)s %d", "%%"))
        events = (Event(space, {"100%", "%s"}), Event(space, {"%s", "{}"}),
                  Event(space, {"{}", "%(x)s %d", "%%"}))
        if dominated:
            fs = ForecastSystem(space, events, (0.93, 0.71, 0.123456789012))
        else:
            dist = Distribution(space, (0.1, 0.2, 0.3, 0.15, 0.25))
            fs = ForecastSystem.from_distribution(dist, events)
        verdict = audit_admissibility(fs)
        assert verdict.admissible != dominated
        worlds = zip(space.outcomes, verdict.losses)
        if dominated:
            reference = ["admissible: no",
                         "dominating: " + " ".join(fmt10(v) for v in verdict.dominating)]
            reference += [f"world {x}: loss {fmt10(b)} -> {fmt10(a)}"
                          for (x, b), a in zip(worlds, verdict.dominating_losses)]
            reference.append(f"margin: {fmt10(verdict.margin)}")
        else:
            reference = ["admissible: yes"]
            reference += [f"world {x}: loss {fmt10(b)}" for x, b in worlds]
        assert emit_report(verdict, system=fs) == "\n".join(reference) + "\n"
        # the verdict names its worlds, so the audited system adds nothing to the text
        assert emit_report(verdict) == emit_report(verdict, system=fs)

    @pytest.mark.parametrize("weights", [
        (0.0, 1.0, 1e-300, 5e-324, 0.0),  # zero, one, tiny and subnormal weights
        (0.1, 0.2, 1.0 / 3.0, 0.15, 0.2166666666666667),
    ], ids=["extremes", "ordinary"])
    def test_distribution_block_matches_the_per_line_reference(self, weights):
        # labels that a format template would misread
        space = SampleSpace(("100%", "%s", "{}", "%(x)s", "%%"))
        dist = Distribution(space, weights)
        reference = [f"  {x} {fmt10(w)}" for x, w in zip(space.outcomes, weights)]
        assert distribution_block(dist) == "\n".join(reference)
        assert emit_report(maxent_update(dist, [])).endswith(
            "posterior:\n" + "\n".join(reference) + "\n")
        assert run_queries(dist, [PosteriorQuery()]) == [
            "\n".join(["distribution:", *reference])]

    @given(distributions())
    def test_distribution_block_matches_fmt10_per_line(self, dist):
        reference = [f"  {x} {fmt10(w)}" for x, w in zip(dist.space.outcomes, dist.weights)]
        assert distribution_block(dist) == "\n".join(reference)

    def test_partition_constraint_reports_jeffrey_method(self):
        space = SampleSpace(("a", "b", "c", "d"))
        prior = Distribution(space, (0.2, 0.3, 0.3, 0.2))
        part = Partition.from_labels(space, (("a", "b"), ("c", "d")))
        report = maxent_update(prior, [PartitionWeights(part, (0.8, 0.2))])
        assert "method: jeffrey" in emit_report(report)
