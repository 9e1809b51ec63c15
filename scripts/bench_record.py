#!/usr/bin/env python3
"""Write a BENCH record: two sides of untraced perfbench runs as one JSON file.

    python3 scripts/bench_record.py BEFORE AFTER --out BENCH_name.json

BEFORE and AFTER are perfbench result files or directories of them
(``.perfbench/results`` of a checkout).  Each side must hold the runs of
one source tree (one ``machine.source_sha256``) on workloads that
``BENCHMARK.json`` declares: a directory that also holds runs of another
commit, or the self-tests' ``smoke`` runs, exits 2 naming the files.
Runs are paired in file order and
judged against the bounds of ``BENCHMARK.json`` with perfbench's own
``compare.quartiles`` and ``compare.verdict``, as ``run.py --compare``
does.  Per workload the record keeps the seeds and run lengths, every
run's end-to-end metrics and failures, each side's quartiles per metric,
the pairs the second side won, the verdict, and every run's ``machine``
record.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from compare import _by_workload, quartiles, verdict  # noqa: E402


class MixedSide(Exception):
    pass


def load_side(path: Path, workloads: set[str]) -> list[dict]:
    """The runs of one side, as ``compare.load`` reads them; raises
    ``MixedSide`` naming the files when they hold more than one
    ``machine.source_sha256`` or a workload not in ``workloads``."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text()) for f in files]
    by_source: dict[str | None, list[str]] = {}
    undeclared = []
    for f, run in zip(files, runs):
        by_source.setdefault(run["machine"].get("source_sha256"), []).append(f.name)
        if run["workload"] not in workloads:
            undeclared.append(f"{f.name} ({run['workload']})")
    if len(by_source) > 1:
        groups = "; ".join(f"{sha}: {', '.join(names)}" for sha, names in by_source.items())
        raise MixedSide(f"{path} mixes source trees: {groups}")
    if undeclared:
        raise MixedSide(
            f"{path} holds workloads that BENCHMARK.json does not declare: {', '.join(undeclared)}"
        )
    return runs


def _side(runs: list[dict], names: list[str]) -> dict:
    return {
        "seeds": [r["seed"] for r in runs],
        "seconds": [r["seconds"] for r in runs],
        "runs": [
            {"seed": r["seed"], "attempted": r["attempted"], "failed": r["failed"],
             "metrics": {name: r["metrics"][name]["value"] for name in names}}
            for r in runs
        ],
        "machine": [r["machine"] for r in runs],
    }


def record(before: list[dict], after: list[dict], spec: dict) -> dict:
    sides = _by_workload(before), _by_workload(after)
    names = [entry["name"] for entry in spec["end_to_end"]]
    workloads = {}
    for workload in sorted(set(sides[0]) & set(sides[1])):
        a_runs, b_runs = sides[0][workload], sides[1][workload]
        metrics = {}
        for entry in spec["end_to_end"]:
            name = entry["name"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            result, won, pairs = verdict(a, b, entry["better"], entry["bound"])
            metrics[name] = {
                "unit": entry["unit"], "better": entry["better"], "bound": entry["bound"],
                **{side: dict(zip(("q1", "median", "q3"), quartiles(values)))
                   for side, values in (("before", a), ("after", b))},
                "won": won, "pairs": pairs, "verdict": result,
            }
        workloads[workload] = {
            "metrics": metrics,
            "before": _side(a_runs, names),
            "after": _side(b_runs, names),
        }
    return {"workloads": workloads}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {entry["name"] for entry in spec["workloads"]}
    try:
        before, after = (load_side(path, workloads) for path in (args.before, args.after))
    except MixedSide as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = record(before, after, spec)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for workload, entry in out["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload} {name}: {m['before']['median']:.4g} -> "
                  f"{m['after']['median']:.4g}, won {m['won']}/{m['pairs']}, {m['verdict']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
