"""The example scripts run end to end against the source tree."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    name, *args = script.split()
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "script, expected",
    [
        ("verify_dual_orbit.py", "total rank: 28"),
        ("exchange_vs_blocks.py", "remainder-fraction: 0.5"),
        ("run_survey.py --n 5 --max-weights 3", "13 patterns, 0 feasible, 3 undecided"),
    ],
)
def test_script_runs(script, expected):
    done = run_script(script)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout


@pytest.mark.parametrize(
    "script, message",
    [
        ("run_survey.py --families bogus", "error: unknown error family 'bogus'"),
        ("run_survey.py --n 0", "error: n must be at least 1, got 0"),
        ("run_survey.py --families +", "error: at least one error family is required"),
    ],
)
def test_script_reports_bad_input_without_traceback(script, message):
    """Bad input ends like the CLI: one error line on stderr, exit 2."""
    done = run_script(script)
    assert done.returncode == 2
    assert done.stderr.startswith(message)
    assert "Traceback" not in done.stderr
    assert done.stdout == ""
