"""The example scripts run end to end against the source tree."""

from __future__ import annotations

import json
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


def _result(path, seed, ops_per_probe, workload="verify-ruskai9", machine=None):
    """A perfbench result file with only the fields a BENCH record reads."""
    metrics = {"ops_per_probe": (ops_per_probe, "1/probe"), "verdict_p50_probes": (2.5, "probe"),
               "setup_s": (0.2, "s"), "peak_rss_mib": (40.0, "MiB")}
    path.write_text(json.dumps({
        "workload": workload, "seed": seed, "seconds": 1.0, "trace": 0,
        "machine": machine or {"nproc": 2, "commit": None}, "attempted": 4, "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return path


def test_bench_record_judges_two_result_files(tmp_path):
    """The record carries each run, each side's quartiles and compare's verdict."""
    before = _result(tmp_path / "before.json", 7, 0.4)
    after = _result(tmp_path / "after.json", 7, 0.2)
    out = tmp_path / "BENCH_test.json"
    done = run_script(f"bench_record.py {before} {after} --out {out}")
    assert done.returncode == 0, done.stderr
    assert "verify-ruskai9 ops_per_probe: 0.4 -> 0.2, won 0/1, worse" in done.stdout
    entry = json.loads(out.read_text())["workloads"]["verify-ruskai9"]
    ops = entry["metrics"]["ops_per_probe"]
    assert ops["before"] == {"q1": 0.4, "median": 0.4, "q3": 0.4}
    assert (ops["won"], ops["pairs"], ops["verdict"], ops["bound"]) == (0, 1, "worse", 0.25)
    assert entry["metrics"]["setup_s"]["verdict"] == "unchanged"
    assert entry["after"]["seeds"] == [7] and entry["after"]["seconds"] == [1.0]
    assert entry["after"]["runs"][0]["metrics"]["ops_per_probe"] == 0.2
    assert entry["after"]["machine"] == [{"nproc": 2, "commit": None}]


@pytest.mark.parametrize(
    "second, message",
    [
        (
            {"machine": {"source_sha256": "bbb"}},
            "mixes source trees: aaa: 1.json; bbb: 2.json",
        ),
        (
            {"workload": "smoke", "machine": {"source_sha256": "aaa"}},
            "holds workloads that BENCHMARK.json does not declare: 2.json (smoke)",
        ),
    ],
)
def test_bench_record_refuses_a_mixed_side(tmp_path, second, message):
    """A side that pools runs of two source trees, or a workload the
    benchmark does not declare, exits 2 naming the files, and no record is
    written."""
    side = tmp_path / "after"
    side.mkdir()
    _result(side / "1.json", 7, 0.2, machine={"source_sha256": "aaa"})
    _result(side / "2.json", 8, 0.2, **second)
    before = _result(tmp_path / "before.json", 7, 0.4)
    out = tmp_path / "BENCH_test.json"
    done = run_script(f"bench_record.py {before} {side} --out {out}")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: {side} {message}\n"
    assert not out.exists()
