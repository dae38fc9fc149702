"""Command-line behavior: exit codes, report text, determinism."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import relent
from relent import errors
from relent.axioms import AxiomReport
from relent.cli import main
from relent.errors import RelentError
from relent.solver import SolverOptions, maxent_update

from conftest import JOINTLY_INFEASIBLE_PINS, JOINTLY_INFEASIBLE_PRIOR

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DIE = str(SCENARIOS / "die.json")
TIGER = str(SCENARIOS / "tiger.json")
BOOK = str(SCENARIOS / "overconfident_book.json")
IMPOSSIBLE = str(SCENARIOS / "impossible_target.json")
# an event pinned near 0.95 whose prior mass is about 0.01, plus an expectation
DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA.parent / "golden"
LINE_SEARCH_INFEASIBLE = str(DATA / "line_search_infeasible.json")
LINE_SEARCH_FEASIBLE = str(DATA / "line_search_feasible.json")


def test_every_exported_name_resolves():
    assert [name for name in relent.__all__ if not hasattr(relent, name)] == []


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUpdate:
    def test_die_scenario_succeeds(self, capsys):
        code, out, err = run_main(capsys, "update", DIE)
        assert code == 0
        assert "method: dual_newton" in out
        assert "  face6 0.3474940658" in out
        assert "P({face6}) = 0.3474940658" in out
        assert err == ""

    def test_output_is_byte_identical_across_runs(self, capsys):
        _, first, _ = run_main(capsys, "update", DIE)
        _, second, _ = run_main(capsys, "update", DIE)
        assert first == second

    def test_tiger_scenario_reports_conditional(self, capsys):
        code, out, _ = run_main(capsys, "update", TIGER)
        assert code == 0
        assert "P({tiger_door1} | {tiger_door1, tiger_door2}) = 0.4" in out

    def test_units_flag_rescales_objective(self, capsys):
        _, nats_out, _ = run_main(capsys, "update", DIE)
        _, bits_out, _ = run_main(capsys, "update", DIE, "--units", "bits")
        nats = float(next(l for l in nats_out.splitlines() if l.startswith("objective")).split()[1])
        bits = float(next(l for l in bits_out.splitlines() if l.startswith("objective")).split()[1])
        assert bits == pytest.approx(nats / math.log(2.0), rel=1e-9)

    def test_a_negative_zero_prior_weight_prints_as_zero(self, capsys, tmp_path):
        # P({b}) = 0.5 is met by the prior, so update prints the prior, as info does
        path = tmp_path / "negative_zero.json"
        path.write_text('{"space": ["a", "b", "c"], "prior": [-0.0, 0.5, 0.5], "constraints": '
                        '[{"type": "event_prob", "event": ["b"], "value": 0.5}], "queries": '
                        '[{"type": "posterior"}]}', encoding="utf-8")
        for command in ("update", "info"):
            code, out, err = run_main(capsys, command, str(path))
            assert (code, err) == (0, "")
            assert "\n  a 0\n  b 0.5\n  c 0.5\n" in out
            assert "-0" not in out

    def test_infeasible_target_exits_2_with_certificate(self, capsys):
        code, out, err = run_main(capsys, "update", IMPOSSIBLE)
        assert code == 2
        assert out == (
            "infeasible\ncertificate: row 0: target 1.2 lies outside [0.0, 1.0], its range on "
            "the outcomes still possible (witness y = +e_0)\n")
        assert err != ""

    @pytest.mark.parametrize("constraint, expected_code, expected_line", [
        ({"type": "event_prob", "event": ["a"], "value": 1.2}, 2,
         "certificate: row 0: target 1.2 lies outside [0.0, 1.0]"),
        ({"type": "event_prob", "event": ["a"], "value": 1.0 + 5e-11}, 0,
         "method: conditionalization"),
        ({"type": "event_prob", "event": ["a"], "value": -5e-11}, 0,
         "method: conditionalization"),
        ({"type": "cond_prob", "event": ["a"], "given": ["a", "b"], "value": 1.2}, 2,
         "certificate: conditioning event of P({a} | {a, b}) = 1.2 has zero posterior"),
        ({"type": "cond_prob", "event": ["a"], "given": ["a", "b"], "value": -0.3}, 2,
         "certificate: conditioning event of P({a} | {a, b}) = -0.3 has zero posterior"),
        ({"type": "cond_prob", "event": ["a"], "given": ["a", "b", "c"], "value": 1.2}, 2,
         "certificate: row 0: target 0.0 lies outside"),
        # the float 1 + 1e-10 lies 1.0000000827e-10 above 1, a hair beyond tol
        ({"type": "event_prob", "event": ["a"], "value": 1.0 + 1e-10}, 2,
         "certificate: row 0: target 1.0000000001 lies outside [0.0, 1.0]"),
    ])
    def test_probability_targets_are_judged_by_their_rows(
        self, capsys, tmp_path, constraint, expected_code, expected_line
    ):
        # within tol of [0, 1] a target pins like any row; beyond it, the row's
        # stake or the degenerate conditional is the certificate
        doc = {"version": 1, "space": ["a", "b", "c"], "prior": [1 / 3, 1 / 3, 1 / 3],
               "constraints": [constraint]}
        path = tmp_path / "target.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_main(capsys, "update", str(path))
        assert code == expected_code
        assert expected_line in out

    def test_jointly_infeasible_pins_exit_2(self, capsys, tmp_path):
        doc = {
            "version": 1,
            "space": [f"w{i}" for i in range(7)],
            "prior": list(JOINTLY_INFEASIBLE_PRIOR),
            "constraints": [
                {"type": "event_prob", "event": list(labels), "value": v}
                for labels, v in JOINTLY_INFEASIBLE_PINS
            ],
        }
        path = tmp_path / "pins.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_main(capsys, "update", str(path))
        assert code == 2
        assert out.startswith("infeasible\ncertificate: dual multipliers")
        assert err != ""

    def test_zero_target_on_certain_event_exits_2(self, capsys, tmp_path):
        doc = {
            "version": 1,
            "space": ["rain", "dry"],
            "prior": [1.0, 0.0],
            "constraints": [{"type": "event_prob", "event": ["rain"], "value": 0.0}],
        }
        path = tmp_path / "certain.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_main(capsys, "update", str(path))
        assert code == 2
        assert out.startswith("infeasible\ncertificate: ")
        assert err != ""

    @pytest.mark.parametrize("prior, event", [
        ([0.2] * 5, ["a", "b", "c", "d", "e"]),
        ([0.6, 0.4, 0.0, 0.0, 0.0], ["a", "b"]),
    ], ids=["whole_space", "whole_support"])
    def test_event_certain_under_every_posterior_exits_2(self, capsys, tmp_path, prior, event):
        doc = {
            "version": 1,
            "space": ["a", "b", "c", "d", "e"],
            "prior": prior,
            "constraints": [{"type": "event_prob", "event": event, "value": 0.5}],
        }
        path = tmp_path / "certain.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_main(capsys, "update", str(path))
        assert code == 2
        assert out == (
            "infeasible\ncertificate: row 0: target 0.5 lies outside [1.0, 1.0], its range "
            "on the outcomes still possible (witness y = -e_0)\n"
        )
        assert err != ""

    def test_conditional_met_only_by_emptying_its_given_event_exits_2(self, capsys, tmp_path):
        doc = {
            "version": 1,
            "space": ["a", "b", "c"],
            "prior": [0.5, 0.5, 0.0],
            "constraints": [
                {"type": "cond_prob", "event": ["a"], "given": ["a", "c"], "value": 0.3}
            ],
        }
        path = tmp_path / "vacuous.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_main(capsys, "update", str(path))
        assert code == 2
        assert out.startswith("infeasible\ncertificate: conditioning event of P({a} | {a, c})")
        assert err != ""

    def test_failing_query_prints_only_the_certificate(self, capsys, tmp_path):
        doc = {
            "version": 1,
            "space": ["a", "b", "c"],
            "prior": "uniform",
            "constraints": [{"type": "event_prob", "event": ["a"], "value": 0.0}],
            "queries": [
                {"type": "prob", "event": ["b"]},
                {"type": "cond_prob", "event": ["b"], "given": ["a"]},
            ],
        }
        path = tmp_path / "zero_given.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_main(capsys, "update", str(path))
        assert code == 2
        assert out == "infeasible\ncertificate: conditioning event {a} has probability 0.0\n"
        assert err != ""

    def test_weight_admitted_within_tol_on_a_massless_cell_exits_0(self, capsys, tmp_path):
        # 5e-11 on the massless {c} lies within tol; the rows left after its pin leave
        # more than ZERO_MASS unassigned, so the dual answers, not Jeffrey's closed form
        doc = tmp_path / "massless_cell.json"
        doc.write_text(json.dumps({
            "space": ["a", "b", "c"], "prior": [0.5, 0.5, 0.0],
            "constraints": [{"type": "partition", "cells": [["a"], ["b"], ["c"]],
                             "weights": [0.7, 0.3 - 5e-11, 5e-11]}],
        }), encoding="utf-8")
        code, out, err = run_main(capsys, "update", str(doc))
        assert (code, err) == (0, "")
        assert "method: dual_newton" in out

    @pytest.mark.parametrize("eps, expected", [(5e-11, 0), (1.5e-10, 0), (2.5e-10, 2), (1e-9, 2)])
    def test_complementary_targets_apart_by_eps(self, capsys, tmp_path, eps, expected):
        # P(a) = 0.3 and P(b or c) = 0.7 + eps: the two rows sum to 1 on every outcome, so
        # a gap within |y|_1 tol = 2e-10 of the stake y = e_0 + e_1 is spread over both
        # targets, and a wider one is certified by that stake
        doc = tmp_path / "pair.json"
        doc.write_text(json.dumps({
            "space": ["a", "b", "c"], "prior": "uniform",
            "constraints": [{"type": "event_prob", "event": ["a"], "value": 0.3},
                            {"type": "event_prob", "event": ["b", "c"], "value": 0.7 + eps}],
        }), encoding="utf-8")
        code, out, err = run_main(capsys, "update", str(doc))
        assert code == expected
        if expected == 0:
            assert err == ""
            assert float(re.search(r"final_residual: (\S+)", out).group(1)) <= 1e-10
            return
        assert out.startswith("infeasible\ncertificate: active rows [0, 1] are dependent")
        terms = re.search(r"\(witness y = (.*) over the active rows\)", out).group(1)
        y = dict((int(j), float(c)) for c, j in re.findall(r"([+-][^*\s]+)\*e_(\d+)", terms))
        rows, targets = [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]], [0.3, 0.7 + eps]
        stake = [sum(y[j] * rows[j][i] for j in y) for i in range(3)]
        missed = sum(y[j] * targets[j] for j in y) - stake[0]
        assert max(stake) - min(stake) <= 1e-15
        assert abs(missed) > sum(map(abs, y.values())) * 1e-10

    def test_non_convergence_exits_4(self, capsys):
        code, _, err = run_main(capsys, "update", DIE, "--max-iter", "1")
        assert code == 4
        assert "did not converge" in err

    def test_line_search_past_a_tiny_step_exits_2_when_infeasible(self, capsys):
        code, out, err = run_main(capsys, "update", LINE_SEARCH_INFEASIBLE)
        assert code == 2
        assert out.startswith("infeasible\ncertificate: dual multipliers")
        assert err != ""

    def test_line_search_past_a_tiny_step_exits_0_when_feasible(self, capsys):
        code, out, err = run_main(capsys, "update", LINE_SEARCH_FEASIBLE)
        assert code == 0
        assert out.startswith("method: dual_newton\niterations: 7\n")
        assert err == ""

    def test_missing_file_exits_3(self, capsys):
        code, _, err = run_main(capsys, "update", str(SCENARIOS / "no_such.json"))
        assert code == 3
        assert "cannot read" in err

    def test_malformed_json_exits_3_with_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"space": ["a"],\n "prior": }', encoding="utf-8")
        code, _, err = run_main(capsys, "update", str(bad))
        assert code == 3
        assert "line 2" in err

    def test_deep_nesting_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "deep.json"
        bad.write_text('{"space": ' + "[" * 100_000, encoding="utf-8")
        code, out, err = run_main(capsys, "update", str(bad))
        assert (code, out, err) == (3, "", "parse error: the document nests too deeply to decode\n")

    def test_invalid_scenario_exits_3_with_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"space": ["a", "b"], "prior": [0.5, 0.6], "constraints": []}',
                       encoding="utf-8")
        assert run_main(capsys, "update", str(bad)) == (
            3, "", "invalid input [dist.sum_not_one]: weights sum to 1.1, not 1\n")

    @pytest.mark.parametrize("fields, expected", [
        ('"prior": [%s, 0.5], "constraints": []',
         'invalid input [prior.bad_number]: "prior"[0] is an integer too large for a float'),
        ('"prior": "uniform", "constraints": [{"type": "expectation", '
         '"variable": {"a": 1, "b": %s}, "value": 1}]',
         "invalid input [constraint.bad_variable]: \"constraints\"[0].variable['b'] "
         "is an integer too large for a float"),
    ], ids=["prior", "variable"])
    def test_integer_too_large_for_a_float_exits_3(self, capsys, tmp_path, fields, expected):
        bad = tmp_path / "bad.json"
        bad.write_text('{"space": ["a", "b"], ' + fields % ("9" * 400) + "}", encoding="utf-8")
        assert run_main(capsys, "update", str(bad)) == (3, "", expected + "\n")

    def test_integer_past_the_digit_limit_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"space": ["a", "b"], "prior": [%s, 0.5], "constraints": []}'
                       % ("1" * 5000), encoding="utf-8")
        code, _, err = run_main(capsys, "update", str(bad))
        assert code == 3
        assert err.startswith("parse error")

    def test_file_that_is_not_utf8_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"space": ["a", "\xff"], "prior": "uniform", "constraints": []}')
        assert run_main(capsys, "update", str(bad)) == (
            3, "", "parse error: the file is not UTF-8: invalid start byte at byte offset 17\n")
        bad.write_bytes(b'\x00{"space": ["a"]}')  # JSON's rule picks UTF-16-BE for a leading NUL
        assert run_main(capsys, "update", str(bad)) == (
            3, "", "parse error: the file is not UTF-16-BE: truncated data at byte offset 16\n")

    def test_file_with_a_utf8_bom_reads_as_the_file_without_it(self, capsys, tmp_path):
        path = tmp_path / "die.json"
        path.write_bytes(b"\xef\xbb\xbf" + Path(DIE).read_bytes())
        golden = SCENARIOS.parent / "tests" / "golden" / "update_die.out"
        assert run_main(capsys, "update", str(path)) == (0, golden.read_text(encoding="utf-8"), "")

    def test_file_with_an_encoded_surrogate_exits_3(self, capsys, tmp_path):
        # files are decoded as parse decodes bytes ("surrogatepass"), so the label
        # is read and then rejected
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"space": ["a\xed\xa0\x80", "b"], "prior": "uniform", "constraints": []}')
        assert run_main(capsys, "update", str(bad)) == (
            3, "", "invalid input [space.bad_label]: outcome label 'a\\ud800' is not writable text\n")

    def test_label_that_cannot_be_written_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"space": ["a\\ud800", "b"], "prior": "uniform", "constraints": [], '
                       '"queries": [{"type": "posterior"}]}', encoding="utf-8")
        assert run_main(capsys, "update", str(bad)) == (
            3, "", "invalid input [space.bad_label]: outcome label 'a\\ud800' is not writable text\n")

    def test_weights_past_the_float_range_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"space": ["a", "b"], "prior": [1e308, 1e308], "constraints": []}',
                       encoding="utf-8")
        assert run_main(capsys, "update", str(bad)) == (
            3, "", "invalid input [dist.sum_not_one]: weights sum to inf, not 1\n")

    def test_bad_tol_flag_exits_3(self, capsys):
        for tol in ("-1", "nan", "inf"):
            with pytest.raises(SystemExit) as exc:
                main(["update", DIE, "--tol", tol])
            assert exc.value.code == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("usage:")
            assert f"must be a positive finite number, got {tol}" in captured.err

    @pytest.mark.parametrize("flag, text, complaint", [
        ("--tol", "abc", "'abc' is not a number"),
        ("--max-iter", "2.5", "'2.5' is not an integer"),
    ])
    def test_flag_that_is_no_number_exits_3_with_usage(self, capsys, flag, text, complaint):
        with pytest.raises(SystemExit) as exc:
            main(["update", DIE, flag, text])
        assert exc.value.code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: relent update ")
        assert err.endswith(f"relent update: error: argument {flag}: {complaint}\n")

    def test_any_other_relent_error_exits_3(self, capsys, monkeypatch):
        def failing(*args):
            raise RelentError("something else went wrong")

        monkeypatch.setattr("relent.cli.maxent_update", failing)
        assert run_main(capsys, "update", DIE) == (3, "", "error: something else went wrong\n")

    @pytest.mark.parametrize("cls", dict.fromkeys(  # ValidationError names ConstructionError
        c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, RelentError)
    ), ids=lambda c: c.__name__)
    def test_every_error_class_has_an_exit_status(self, capsys, monkeypatch, cls):
        # main() turns every error class into an exit status, never a traceback
        def failing(*args):
            raise cls("x.y", "z") if cls is errors.ConstructionError else cls("z")

        monkeypatch.setattr("relent.cli.maxent_update", failing)
        code, _, err = run_main(capsys, "update", DIE)
        assert code in (2, 3, 4)
        assert "Traceback" not in err

    def test_tol_and_max_iter_flags_reach_the_solver(self, capsys, monkeypatch):
        seen = []

        def recording(prior, constraints, options):
            seen.append(options)
            return maxent_update(prior, constraints, options)

        monkeypatch.setattr("relent.cli.maxent_update", recording)
        code, out, _ = run_main(capsys, "update", DIE, "--tol", "1e-6", "--max-iter", "4")
        assert code == 0 and "method: dual_newton" in out
        assert run_main(capsys, "update", DIE)[0] == 0
        assert seen == [SolverOptions(tol=1e-6, max_iter=4), SolverOptions()]

    def test_zero_max_iter_flag_exits_3(self):
        with pytest.raises(SystemExit) as exc:
            main(["update", DIE, "--max-iter", "0"])
        assert exc.value.code == 3


class TestInfo:
    def test_reports_prior_and_entropy(self, capsys):
        code, out, _ = run_main(capsys, "info", DIE)
        assert code == 0
        assert "outcomes: 6" in out
        assert "entropy = 1.791759469 nats" in out

    def test_bits_units(self, capsys):
        code, out, _ = run_main(capsys, "info", DIE, "--units", "bits")
        assert code == 0
        assert "entropy = 2.584962501 bits" in out

    def test_queries_answered_against_prior(self, capsys):
        _, out, _ = run_main(capsys, "info", TIGER)
        assert "P({tiger_door1} | {tiger_door1, tiger_door2}) = 0.4" in out

    def test_mutual_information_of_cells_that_describe_alike(self, capsys, tmp_path):
        # the cells ["a, b"] and ["a", "b"] both describe as "{a, b}"
        doc = {"space": ["a, b", "a", "b", "c"], "prior": "uniform", "constraints": [],
               "queries": [{"type": "mutual_information",
                            "row_cells": [["a, b"], ["a", "b"], ["c"]],
                            "col_cells": [["a, b", "a"], ["b", "c"]]}]}
        path = tmp_path / "alike.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_main(capsys, "info", str(path))
        assert code == 0
        assert out.endswith("mutual_information = 0.3465735903 nats\n")
        assert err == ""


class TestAudit:
    def test_dominated_book_exits_2(self, capsys):
        code, out, err = run_main(capsys, "audit", BOOK)
        assert code == 2
        assert "admissible: no" in out
        assert "dominating: 0.5 0.5" in out
        assert out.rstrip().endswith("margin: 0.08")
        assert "dominated" in err

    def test_admissible_book_exits_0(self, capsys, tmp_path):
        doc = ('{"space": ["a", "b"], "prior": "uniform", "constraints": [], '
               '"forecasts": [{"event": ["a"], "value": 0.3}, '
               '{"event": ["b"], "value": 0.7}]}')
        path = tmp_path / "fair.json"
        path.write_text(doc, encoding="utf-8")
        code, out, _ = run_main(capsys, "audit", str(path))
        assert code == 0
        assert "admissible: yes" in out
        assert "world a: loss" in out

    def test_book_just_outside_the_hull_exits_0(self, capsys, tmp_path):
        # 1.5e-9 beyond each coordinate of (0.5, 0.5): the true margin is
        # ~1e-18, below the rounding of the losses, so no dominator can be
        # checked and the book is reported admissible (not exit 3)
        doc = ('{"space": ["s1", "s2"], "prior": "uniform", "constraints": [], '
               '"forecasts": [{"event": ["s1"], "value": 0.5000000015}, '
               '{"event": ["s2"], "value": 0.5000000015}]}')
        path = tmp_path / "edge.json"
        path.write_text(doc, encoding="utf-8")
        code, out, err = run_main(capsys, "audit", str(path))
        assert code == 0
        assert out == "admissible: yes\nworld s1: loss 0.5\nworld s2: loss 0.5\n"
        assert err == ""

    def test_scenario_without_forecasts_exits_3(self, capsys):
        assert run_main(capsys, "audit", DIE) == (
            3, "", 'invalid input [forecasts.missing]: audit needs a "forecasts" section\n')

    def test_unfinished_hull_projection_exits_4(self, capsys, monkeypatch):
        # one major step leaves the dominated book's projection far from the hull's
        # nearest point; reported admissible, it would exit 0 with no dominator
        monkeypatch.setattr("relent.coherence.MAX_MAJOR_STEPS", 1)
        code, out, err = run_main(capsys, "audit", str(GOLDEN / "audit_dominated_64.json"))
        assert (code, out) == (4, "")
        assert re.fullmatch(r"did not converge: the hull projection stopped after 1 major steps "
                            r"with gap \S+ above \S+\n", err)


class TestAxioms:
    def test_summary_line_and_exit_0(self, capsys):
        code, out, err = run_main(capsys, "axioms", "--trials", "5", "--seed", "7")
        assert code == 0
        assert out == "axiom4b: 5/5 passed, max_deviation ≤ 1e-8\n"
        assert err == ""

    def test_seed_determinism(self, capsys):
        _, first, _ = run_main(capsys, "axioms", "--trials", "3", "--seed", "11")
        _, second, _ = run_main(capsys, "axioms", "--trials", "3", "--seed", "11")
        assert first == second

    def test_failed_trial_exits_4_with_the_worst_deviation(self, capsys, monkeypatch):
        calls = []

        def second_trial_fails(prior, part, weights, tol):
            calls.append(None)
            return AxiomReport(tol, ((0, 0.25 if len(calls) == 2 else 0.0),))

        monkeypatch.setattr("relent.cli.check_axiom4b", second_trial_fails)
        assert run_main(capsys, "axioms", "--trials", "3") == (
            4, "axiom4b: 2/3 passed, max_deviation = 0.25\n",
            "property trials failed; see report\n")

    def test_zero_trials_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["axioms", "--trials", "0"])
        assert exc.value.code == 3

    def test_negative_seed_exits_3(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["axioms", "--seed", "-1"])
        assert exc.value.code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: relent axioms ")
        assert err.endswith(
            "relent axioms: error: argument --seed: must be at least 0, got -1\n")


class TestCompare:
    def test_table_matches_closed_form(self, capsys):
        code, out, _ = run_main(capsys, "compare", "0.9", "0.3", "--grid-steps", "6")
        assert code == 0
        assert "q divergence" in out
        assert "0.8 0.06" in out
        assert out.splitlines()[-1] == "1 0"

    def test_out_of_range_probability_exits_3(self, capsys):
        code, _, err = run_main(capsys, "compare", "1.5", "0.3")
        assert code == 3
        assert "[scenario.bad_probability]" in err

    def test_single_grid_step_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "0.9", "0.3", "--grid-steps", "1"])
        assert exc.value.code == 3


class TestDemos:
    @pytest.mark.parametrize("name", ["die", "tiger", "coin", "mycin"])
    def test_demo_runs_and_is_deterministic(self, capsys, name):
        code, first, err = run_main(capsys, "demo", name)
        assert code == 0
        assert first
        assert err == ""
        _, second, _ = run_main(capsys, "demo", name)
        assert first == second

    def test_tiger_demo_shows_preserved_conditional(self, capsys):
        _, out, _ = run_main(capsys, "demo", "tiger")
        assert "P(door1 | tiger) before: 0.4" in out
        assert "P(door1 | tiger) after:  0.4" in out

    def test_mycin_demo_worked_example(self, capsys):
        _, out, _ = run_main(capsys, "demo", "mycin")
        assert "exact 0.78, shortcut 0.72, gap 0.06" in out

    def test_unknown_demo_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "lottery"])
        assert exc.value.code == 3


class TestParserShell:
    def test_no_arguments_exits_3(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 3

    def test_unknown_command_exits_3(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 3

    def test_console_script_is_wired_up(self):
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys; from relent.cli import main; sys.exit(main(['demo', 'die']))"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "posterior mean: 4.5" in result.stdout
