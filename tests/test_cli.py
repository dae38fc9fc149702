"""Command-line behavior: exit codes, report text, determinism."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from relent.cli import main

from conftest import JOINTLY_INFEASIBLE_PINS, JOINTLY_INFEASIBLE_PRIOR

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DIE = str(SCENARIOS / "die.json")
TIGER = str(SCENARIOS / "tiger.json")
BOOK = str(SCENARIOS / "overconfident_book.json")
IMPOSSIBLE = str(SCENARIOS / "impossible_target.json")
# an event pinned near 0.95 whose prior mass is about 0.01, plus an expectation
DATA = Path(__file__).resolve().parent / "data"
LINE_SEARCH_INFEASIBLE = str(DATA / "line_search_infeasible.json")
LINE_SEARCH_FEASIBLE = str(DATA / "line_search_feasible.json")


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

    def test_infeasible_target_exits_2_with_certificate(self, capsys):
        code, out, err = run_main(capsys, "update", IMPOSSIBLE)
        assert code == 2
        assert out.startswith("infeasible\n")
        assert "certificate: " in out
        assert "outside [0, 1]" in out
        assert err != ""

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
        assert out.startswith("method: dual_newton\niterations: 11\n")
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

    def test_bad_tol_flag_exits_3(self):
        with pytest.raises(SystemExit) as exc:
            main(["update", DIE, "--tol", "-1"])
        assert exc.value.code == 3

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
