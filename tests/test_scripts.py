"""The experiment scripts run from any working directory, at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, cwd):
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONPATH", "RSAT_THREADS")}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("name, args, expected", [
    # c * n = 454.5: m rounds half up, as clause_count does everywhere
    ("coupling_check.py", ["--pairs", "5", "--n", "303", "--c", "1.5"],
     ["# n=303 m=455 c=3/2", "dyadic ladder: 0/700 monotonicity violations"]),
    ("snake_hunt.py", ["--n", "40", "--c", "4", "--trials", "5", "--budget", "20000"],
     ["# snakes found in 4/5 trials"]),
    ("transition_curves.py", ["--n", "30", "--trials", "5"],
     ["k,v,n,m,c,trials,sat,p_hat,ci_lo,ci_hi,seed", "# crossing finite:2: c ~ 1.467"]),
], ids=["coupling_check", "snake_hunt", "transition_curves"])
def test_script_runs_outside_the_repo(name, args, expected, tmp_path):
    proc = run_script(name, *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for line in expected:
        assert line in proc.stdout + proc.stderr
