"""Known wrong answers, pinned as strict xfails until the fix that flips each one.

Each update case runs through the library and through ``relent update``, with the
fast paths on and off. A fix turns its xfails into passes, and ``strict`` then
fails the run until the case joins ``FIXED``, whose cases run as plain tests.
"""

import functools
import os
import subprocess
import sys

import numpy as np
import pytest

from relent.cli import main
from relent.constraints import CondProb, EventProb
from relent.errors import DegenerateConditional, InfeasibleConstraint
from relent.scenario import Scenario, serialize
from relent.solver import SolverOptions, maxent_update
from relent.spaces import Distribution, SampleSpace

from sweep import _contingency_table

ABC = SampleSpace(("a", "b", "c"))
A_OR_B = ABC.subset("a", "b")
ABCD = SampleSpace(("a", "b", "c", "d"))
_SNAP_PRIOR = np.array([0.36199459, 0.48180977, 0.0, 0.15619563])

# name: (prior, constraints, expected exit code, the exception a refusal must raise or the
# posterior a success must reach or None)
CASES = {
    # every exactly feasible posterior has P(a or b) = 0, so no conditional is met but
    # vacuously; today the dual returns a posterior with P(a or b) = 1.8e-10 at exit 0
    "conditional_pair": (
        Distribution.uniform(ABC),
        (CondProb(ABC.subset("a"), A_OR_B, 0.8), CondProb(ABC.subset("b"), A_OR_B, 0.8)),
        2, DegenerateConditional),
    # within tol of 1, so b goes to zero and a or b keeps its mass; today triage pins
    # the face off a or b and the update ends DegenerateConditional
    "conditional_above_one_within_tol": (
        Distribution.uniform(ABC), (CondProb(ABC.subset("a"), A_OR_B, 1 + 5e-11),),
        0, (0.5, 0.0, 0.5)),
    # P(d) must be 0; a posterior within tol exists, but the dependent-row snap asks
    # for P(d) < 0 and the dual ends NonConvergence at 1.126e-10 after 200 steps
    "snap_off_a_reachable_face": (
        Distribution.from_array(ABCD, _SNAP_PRIOR / _SNAP_PRIOR.sum()),
        (EventProb(ABCD.subset("b", "d"), 0.42081132703341695),
         CondProb(ABCD.subset("c"), ABCD.subset("a", "c", "d"), 0.0),
         EventProb(ABCD.subset("a", "c", "d"), 0.579188672816583),
         EventProb(ABCD.subset("a", "c"), 0.579188672816583)),
        0, None),
    # P(a) + P(b) <= 1, so some row stays at least 2.5e-10 off, beyond tol; the dual's
    # multipliers lam are a stake whose lam . b exceeds max_i (A^T lam)_i by over |lam|_1 tol
    "near_boundary_joint_infeasibility": (
        Distribution.uniform(ABC),
        (EventProb(ABC.subset("a"), 0.5 + 5e-10), EventProb(ABC.subset("b"), 0.5)),
        2, InfeasibleConstraint),
}

#: the cases a fix has flipped
FIXED = {"near_boundary_joint_infeasibility"}

open_repro = pytest.mark.xfail(strict=True, reason="open correctness repro (ROADMAP items 2-4)")
both_settings = pytest.mark.parametrize("fast", [True, False], ids=["fast", "slow"])
every_case = pytest.mark.parametrize(
    "name", [pytest.param(name, marks=() if name in FIXED else open_repro) for name in CASES])


@both_settings
@every_case
def test_library(name, fast):
    prior, constraints, code, expected = CASES[name]
    options = SolverOptions(use_fast_paths=fast)
    if code == 2:
        with pytest.raises(expected):
            maxent_update(prior, constraints, options)
        return
    report = maxent_update(prior, constraints, options)
    assert report.final_residual <= options.tol
    if expected is not None:
        np.testing.assert_allclose(report.posterior.array, expected, rtol=0, atol=1e-9)


@both_settings
@every_case
def test_cli(name, fast, tmp_path, monkeypatch, capsys):
    prior, constraints, code, _ = CASES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(serialize(Scenario(prior.space, prior, constraints)), encoding="utf-8")
    monkeypatch.setattr("relent.cli.SolverOptions",
                        functools.partial(SolverOptions, use_fast_paths=fast))
    assert main(["update", str(path)]) == code
    if code == 0:
        out = capsys.readouterr().out
        assert float(out.split("final_residual: ")[1].split("\n")[0]) <= SolverOptions().tol


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="OpenBLAS caps its threads at the CPU count, so one CPU shows no split")
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="report bytes depend on the BLAS thread count (ROADMAP item 18)")
def test_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 300 partition rows over 1000 outcomes: large enough for a threaded gemm
    path = tmp_path / "table.json"
    path.write_text(serialize(_contingency_table(np.random.default_rng(18))), encoding="utf-8")
    outputs = []
    for threads in ("1", "2"):
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from relent.cli import main; sys.exit(main())",
             "update", str(path)],
            capture_output=True, timeout=300,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
        )
        if run.returncode != 0:  # not the pinned failure, so not absorbed by the xfail
            raise RuntimeError(f"relent update exited {run.returncode}: {run.stderr!r}")
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
