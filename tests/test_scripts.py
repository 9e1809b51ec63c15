"""The example scripts run end to end against the source tree."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, expected",
    [
        ("verify_dual_orbit.py", "total rank: 28"),
        ("exchange_vs_blocks.py", "remainder-fraction: 0.5"),
        ("run_survey.py --n 5 --max-weights 3", "13 patterns, 0 feasible, 3 undecided"),
    ],
)
def test_script_runs(script, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    name, *args = script.split()
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout
