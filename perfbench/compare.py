"""Compare two sets of untraced runs against the benchmark's own bounds.

Each side is a result file or a directory of them.  For every workload
and end-to-end metric one row gives each side's median and quartiles, the
pairs the second side won (runs paired in file order; ties count for
neither) and a verdict:

- ``unresolved``: either side's quartile spread exceeds the bound, unless
  every run of the second side beats every run of the first;
- ``improved``: at least ten pairs, the second side wins nine tenths of
  them and its median is better by more than the first side's quartile
  spread;
- ``worse``: the second side's median is worse by more than the bound;
- ``unchanged``: otherwise.

It also lists every command whose stdout digest differs between the sides.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float):
    """(verdict, pairs won by b, pairs counted) for one metric."""
    sign = 1 if better == "higher" else -1
    beats = lambda x, y: sign * (x - y) > 0  # noqa: E731
    pairs = list(zip(a, b))
    won = sum(beats(y, x) for x, y in pairs)
    qa, qb = quartiles(a), quartiles(b)
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
    all_better = all(beats(y, x) for x in a for y in b)
    worse_by = -sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    if spread > bound and not all_better:
        result = "unresolved"
    elif len(pairs) >= 10 and won >= 0.9 * len(pairs) \
            and sign * (qb[1] - qa[1]) > qa[2] - qa[0]:
        result = "improved"
    elif worse_by > bound:
        result = "worse"
    else:
        result = "unchanged"
    return result, won, len(pairs)


def _by_workload(runs: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for run in runs:
        if not run["trace"]:
            out.setdefault(run["workload"], []).append(run)
    return out


def _digests(runs: list[dict]) -> dict[tuple, set]:
    out: dict[tuple, set] = {}
    for run in runs:
        for key, digest in run["sha256"].items():
            out.setdefault((run["seed"], key), set()).add(digest)
    return out


def report(before: list[dict], after: list[dict], spec: dict) -> str:
    a_runs, b_runs = _by_workload(before), _by_workload(after)
    lines = [f"{'workload':<15} {'metric':<18} {'before q1/med/q3':<30} "
             f"{'after q1/med/q3':<30} {'won':>6}  verdict"]
    for workload in sorted(set(a_runs) & set(b_runs)):
        for entry in spec["end_to_end"]:
            name = entry["name"]
            a = [r["metrics"][name]["value"] for r in a_runs[workload]]
            b = [r["metrics"][name]["value"] for r in b_runs[workload]]
            result, won, pairs = verdict(a, b, entry["better"], entry["bound"])
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
            lines.append(f"{workload:<15} {name:<18} {fmt(quartiles(a)):<30} "
                         f"{fmt(quartiles(b)):<30} {won:>2}/{pairs:<3}  {result}")
    for workload in sorted(set(a_runs) ^ set(b_runs)):
        lines.append(f"{workload:<15} only on one side; not compared")
    lines.append("stdout digests that differ (same workload, seed and command):")
    differ = 0
    for workload in sorted(set(a_runs) & set(b_runs)):
        sides = [_digests(side[workload]) for side in (a_runs, b_runs)]
        for seed, key in sorted(set(sides[0]) & set(sides[1])):
            da, db = (sorted(d[(seed, key)]) for d in sides)
            if da != db:
                differ += 1
                lines.append(f"  {workload} seed {seed} / {key}: "
                             f"{','.join(da)} -> {','.join(db)}")
    if not differ:
        lines.append("  none")
    return "\n".join(lines)
