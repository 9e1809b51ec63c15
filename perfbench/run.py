"""Benchmark of the ``exqec`` CLI: verdict throughput, set-up and memory.

Run from the repository root::

    python3 perfbench/run.py --workload verify-ruskai9 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare BEFORE AFTER

A run starts the workload in fresh interpreters (``worker.py``): a few
that only set up, to time set-up, and one that also drives ``cli.run``
in-process for ``--seconds`` as one closed-loop client.  It prints each
metric by name and unit, writes a result file under ``.perfbench/results``
and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``)
that ``BENCHMARK.json`` declares.  ``--compare`` prints one row per
workload and end-to-end metric for two result files or directories.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench"
# set-up-only interpreters started before and after the measured one in an
# untraced run; with its own set-up that makes five samples, median setup_s
SETUP_ONLY_EACH_SIDE = 2
# one client and no extra threads: numerical libraries stay single-threaded
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# a run must end within this many seconds
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _spawn(args, setup_only: bool, deadline: float):
    """Start a worker; return (seconds until it is ready, its record or None)."""
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env={**os.environ, **WORKER_ENV})
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(cmd)}")
    return setup, None if setup_only else json.loads(rest.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _commit() -> str | None:
    """HEAD of the checkout's own git directory, when it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over the package sources, to name the code a result measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def tail_percentile(values: list[float]):
    """(percentile, value) of the highest of p90, p99, p99.9 with at least
    ten samples beyond it, or None when even p90 has fewer."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for per_mille in (900, 990, 999):
        rank = -(-n * per_mille // 1000)  # nearest rank, 1-based
        if n - rank >= 10:
            best = (per_mille / 10, ordered[rank - 1])
    return best


def end_to_end(record: dict, setups: list[float]) -> dict:
    """The declared end-to-end metrics of one untraced run, ``name -> (value, unit)``.

    Command times are counted in probes: each divided by the reference
    task's time measured while it ran (``worker.SpeedProbe``).
    """
    scaled = [d / ref for _, d, ref in record["samples"]]
    return {
        "ops_per_probe": (len(scaled) / sum(scaled), "1/probe"),
        "verdict_p50_probes": (statistics.median(scaled), "probe"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (record["peak_rss_mib"], "MiB"),
    }


def wall_times(record: dict) -> dict:
    """Command times in seconds, as the client saw them."""
    durations = [d for _, d, _ in record["samples"]]
    refs = [ref for _, _, ref in record["samples"] if ref is not None]
    tail = tail_percentile(durations)
    return {
        "ops_per_s": len(durations) / sum(durations),
        "verdict_p50_s": statistics.median(durations),
        "verdict_tail_s": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "probe_p50_s": statistics.median(refs) if refs else None,
    }


def _declared(spec: dict, computed: dict, section: str) -> dict:
    """The metrics ``BENCHMARK.json`` declares in ``section``, as JSON values."""
    out = {}
    for entry in spec[section]:
        value, unit = computed[entry["name"]]
        if unit != entry["unit"]:
            raise BenchError(f"{entry['name']}: measured in {unit}, declared {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": unit}
    extra = set(computed) - set(out)
    if extra:
        raise BenchError(f"metrics missing from BENCHMARK.json {section}: {sorted(extra)}")
    return out


def run(args) -> int:
    if not (ROOT / "src" / "exqec" / "__init__.py").is_file():
        print(f"error: no exqec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    deadline = time.monotonic() + RUN_LIMIT_S
    machine = {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "loadavg_start": os.getloadavg(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }
    extra = 0 if args.trace else SETUP_ONLY_EACH_SIDE
    setups = [_spawn(args, True, deadline)[0] for _ in range(extra)]
    setup, record = _spawn(args, False, deadline)
    setups.append(setup)
    setups += [_spawn(args, True, deadline)[0] for _ in range(extra)]
    machine["loadavg_end"] = os.getloadavg()
    machine.update(record.pop("versions"))

    attempted = len(record["samples"])
    failed = len(record["failures"])
    wall = wall_times(record)
    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace} commands={attempted} wall={record['wall_s']:.3f}s"]
    if args.trace:
        metrics = _declared(spec, {k: (v["value"], v["unit"]) for k, v in
                                   record.pop("per_layer").items()}, "per_layer")
        for name, m in metrics.items():
            lines.append(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    else:
        metrics = _declared(spec, end_to_end(record, setups), "end_to_end")
        tail = wall["verdict_tail_s"]
        lines += [
            f"  {'ops_per_s':<18} {wall['ops_per_s']:.6g} 1/s  {attempted} commands, one client",
            f"  {'verdict_p50_s':<18} {wall['verdict_p50_s']:.6g} s  n={attempted}",
            f"  {'verdict_tail_s':<18} "
            + (f"{tail['value']:.6g} s  p{tail['percentile']:g}, n={attempted}" if tail else
               f"- s  not reported: n={attempted} leaves <10 samples beyond p90"),
            f"  {'probe_p50_s':<18} {wall['probe_p50_s']:.6g} s  reference task, median",
        ]
        notes = {"ops_per_probe": "in probes", "verdict_p50_probes": "in probes",
                 "setup_s": f"median of {len(setups)}"}
        for name, m in metrics.items():
            lines.append(f"  {name:<18} {m['value']:.6g} {m['unit']}  {notes.get(name, '')}")
    lines.append(f"  {'failed_ratio':<18} {failed / attempted:.6g} ratio  "
                 f"{failed} of {attempted}")
    share = record["repeated_image_share"]
    lines.append(f"  repeated error images: "
                 + ("none computed" if share is None else f"{share:.4f} of all images"))
    for failure in record["failures"][:10]:
        lines.append(f"  FAILED {failure['command']}: {'; '.join(failure['problems'])}")

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "setup_samples_s": setups,
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "failed_ratio": failed / attempted, "wall_times": wall, **record,
    }
    path.write_text(json.dumps(full, indent=1) + "\n")
    lines.append(f"  result file: {path.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                    help="compare two result files or directories of them")
    args = ap.parse_args(argv)
    if args.compare:
        print(compare.report(*(compare.load(Path(p)) for p in args.compare),
                             json.loads(SPEC.read_text())))
        return 0
    if not args.workload:
        ap.error("--workload is required unless --compare is given")
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
