"""Smoke test of the experiment scripts: each runs as its own process on
the package source and prints a line it is known to print."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUNS = [
    (["run_goldbach_survey.py", "--hi", "2000"],
     "surveyed 332 values of n in [9, 2000]"),
    (["run_minor_major_contrast.py", "--n", "100000", "--samples", "20"],
     "n=100000  W=6  b=5  Q=132.5"),
    (["run_transference_demo.py", "--n", "30003"],
     '    "n": 30003,'),
]


def test_scripts_run():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for (script, *argv), line in RUNS:
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (script, proc.stderr)
        assert line in proc.stdout.splitlines(), script
