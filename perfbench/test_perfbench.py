"""Self-tests of the benchmark, at tiny sizes (rep3 and five-qubit).

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import dataclasses
import io
import json
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import pytest

import worker  # puts the package sources on sys.path first
import compare
import run
import tracing
import workloads
from exqec import builtin_code, cli, parse_code, serialize_code

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def test_smoke_run_prints_every_declared_metric():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench("--workload", "smoke", "--seed", "5", "--seconds", "1",
                      "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [e["name"] for e in SPEC[section]]
        for entry in SPEC[section]:
            assert result["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_benchmark_alone_exits_nonzero_without_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "smoke", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_verdict_gate_catches_a_wrong_expected_fact(tmp_path):
    commands = {c.key: c for c in workloads.setup("smoke", 3, tmp_path)}
    right = commands["dmatrix five-qubit pauli"]
    wrong = dataclasses.replace(right, expect={**right.expect, "total rank": "17"})
    record, _, _ = worker.run_loop([right], False, 0, 0.0)
    assert record["failures"] == []
    record, _, _ = worker.run_loop([wrong], False, 0, 0.0)
    assert record["failures"] == [
        {"command": wrong.key, "problems": ["total rank: expected '17', got '16'"]}
    ]


def test_speed_probe_clock_leaves_out_the_probes():
    with worker.SpeedProbe() as speed:
        start, clock_start = perf_counter(), speed.clock()
        while perf_counter() - start < 0.35:
            pass
        wall, clocked = perf_counter() - start, speed.clock() - clock_start
    assert len(speed.samples) >= 3  # one at entry, then every PROBE_PERIOD_S
    assert clocked == pytest.approx(wall - sum(speed.samples), abs=0.01)


def _span(tr, name, parent, seconds, **counts):
    with tr.span(name, parent) as s:
        pass
    s.end = s.start + seconds
    s.counts.update(counts)
    return s


def test_self_time_arithmetic():
    tr = tracing.Tracer()
    tr.command = 0
    root = _span(tr, "cli.run", None, 10.0)
    _span(tr, "codes.build", root.id, 0.5)
    verify = _span(tr, "klverify.verify", root.id, 5.0)
    gram = _span(tr, "klverify.gram", verify.id, 4.0)
    _span(tr, "errorops.apply", gram.id, 1.0, images=4, distinct_images=3)
    _span(tr, "qstate.inner_product", gram.id, 2.0)
    _span(tr, "klverify.rank", verify.id, 0.5)
    solve = _span(tr, "codesearch.solve", root.id, 3.0, method="grid", patterns=1)
    _span(tr, "codesearch.gate", solve.id, 1.0, gate_calls=1)
    _span(tr, "cli.emit", root.id, 0.25)
    m = {k: v for k, (v, _) in tracing.layer_metrics(tr.spans, 20.0).items()}
    assert m["klverify.check_s"] == 0.5  # 5 - 4 - 0.5
    assert m["klverify.gram_self_s"] == 1.0  # 4 - 1 - 2
    assert m["codesearch.solver_self_s"] == 2.0  # 3 - 1
    assert m["codesearch.solve_s.grid"] == 3.0
    assert m["cli.overhead_s"] == 1.5  # 10 - (0.5 + 5 + 3)
    assert m["trace.unattributed_s"] == 1.25  # overhead less the emit span
    assert m["errorops.distinct_ratio"] == 0.75
    assert m["trace.overhead_ratio"] == 2.0
    assert list(m) == [e["name"] for e in SPEC["per_layer"]]


def test_spans_are_scaled_to_the_median_probe_time():
    tr = tracing.Tracer()
    tr.command = 0
    for ref in (1.0, 1.0, 2.0):  # the last command ran at half speed
        _span(tr, "cli.run", None, 4.0).ref = ref
    m = {k: v for k, (v, _) in tracing.layer_metrics(tr.spans, 12.0).items()}
    assert m["trace.command_s"] == (4.0 + 4.0 + 2.0) / 3
    assert m["trace.overhead_ratio"] == 1.0  # raw times


def _facts(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.run(argv)
    facts = workloads.parse_facts(out.getvalue())
    keep = ("correctable", "violations", "rank", "total rank", "findings", "kind")
    return code, {k: facts[k] for k in keep if k in facts}


def test_relabelled_codes_keep_the_builtin_facts(tmp_path):
    for seed in (7, 8):
        paths = workloads.write_codes(("shor9", "five-qubit", "ruskai9"), seed, tmp_path)
        rng = random.Random(seed)
        for name in ("shor9", "five-qubit", "ruskai9"):
            code = workloads.relabelled_code(name, rng)
            assert parse_code(Path(paths[name]).read_text()).words == code.words
            assert serialize_code(code) == Path(paths[name]).read_text()
        assert parse_code(Path(paths["ruskai9"]).read_text()).words == \
            builtin_code("ruskai9").words
        for name, args in (("shor9", ["--errors", "pauli+exchange"]),
                           ("five-qubit", ["--errors", "pauli"])):
            for op in ("verify", "dmatrix"):
                assert _facts([op, "--codefile", paths[name], *args]) == \
                    _facts([op, "--code", name, *args])
        for name in ("shor9", "five-qubit", "ruskai9"):
            assert _facts(["stab-check", paths[name]]) == _facts(["stab-check", name])


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.1, 9.9]
    assert compare.verdict(base, [v * 1.3 for v in base], "higher", 0.1)[0] == "improved"
    assert compare.verdict(base, [v * 0.7 for v in base], "higher", 0.1)[0] == "worse"
    assert compare.verdict(base, list(reversed(base)), "higher", 0.1)[0] == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(base, noisy, "lower", 0.1)[0] == "unresolved"
    result, won, pairs = compare.verdict(base, [v * 0.7 for v in base], "lower", 0.1)
    assert (result, won, pairs) == ("improved", 10, 10)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 99) is None
    assert run.tail_percentile(list(range(100)))[0] == 90.0
    assert run.tail_percentile(list(range(1000)))[0] == 99.0
