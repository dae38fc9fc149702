"""Report bytes pinned to files: every case must reproduce its stdout and exit code exactly.

The files under ``tests/golden/`` were written by an earlier version of
relent and checked in, so a change that moves a single byte of a report
(a digit of a residual, a multiplier, a label order) fails here, not
just a change that makes two runs disagree. ``midsize.json`` is a
500-outcome document with every constraint and query kind; its targets
were read off a tilted copy of its prior, so the constraint set is
feasible and the dual solver answers it. ``update_conditioning.json``
pins every row to a face (an event target of 1, a cell weight of 0), so
its report is the prior conditioned on that face, and so is
``update_partition_pin.json``'s, whose cell weights (1, 0) leave no row
once triage pins them, whatever the fast paths. A case that exits 0
writes nothing to stderr.
"""

import json
from pathlib import Path

import pytest

from relent.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, capsys, monkeypatch):
    case = CASES[name]
    monkeypatch.chdir(ROOT)
    code = main(case["argv"])
    out, err = capsys.readouterr()
    assert code == case["exit"]
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()
    if code == 0:
        assert err == ""


def test_every_golden_file_has_a_case():
    outs = {p.stem for p in GOLDEN.glob("*.out")}
    assert outs == set(CASES)
