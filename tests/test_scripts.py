"""Each script under ``scripts/`` runs end to end with small arguments.

The scripts import from the package like any outside caller, so these
runs catch a name that moved or left the package's top level.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CASES = [
    (["audit_axiom4.py", "--trials", "3", "--full"], "failures: 0", "worst deviation: "),
    (["audit_axiom4.py", "--trials", "3"], "failures: 0", "worst deviation: "),
    (["sweep_cf_divergence.py", "--steps", "2", "--q-steps", "3"],
     "worst gap 1 at P(H|E)=0, P(H|not E)=1, q=0", "max deviation from closed form: 0"),
    (["run_die_update.py", "--mean", "4.5", "--faces", "6"],
     "posterior mean: 4.5", "weight ratio face(k+1)/face(k): 1.449253995 (spread "),
]


@pytest.mark.parametrize("argv,second_last,last_prefix", CASES,
                         ids=[" ".join(argv) for argv, _, _ in CASES])
def test_script_runs(argv, second_last, last_prefix):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-2] == second_last
    assert lines[-1].startswith(last_prefix)
