"""One workload in a fresh interpreter: set up, then run the closed loop.

Started by ``run.py``.  Prints ``ready`` once ``exqec`` is imported and the
workload's inputs are written, so the parent can time set-up, and then,
unless ``--setup-only`` is given, one JSON line with the run's raw record.
One client: the next command starts when the previous one returns.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import random
import resource
import signal
import statistics
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import exqec  # noqa: E402
from exqec import cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


# On a shared 2-vCPU virtual machine, pure-Python speed changes by up to 2x
# within seconds, so raw command times differ that much between runs.  A
# fixed reference task, timed from a timer signal every PROBE_PERIOD_S
# seconds while commands run, tracks those swings: sparse exact inner
# products over dicts of Fractions, the kind of work the verifier does.  A
# probe timed only between commands misses swings inside a 4-s command;
# sampled inside it, one command's repeats spread by 5-9% instead of 24-31%.
PROBE_PERIOD_S = 0.1
PROBE_ROUNDS = 3  # about 1 ms of work, so sampling costs about 1%
_PROBE_A = {i * 7919 % 4096: Fraction(i % 13 + 1, i % 7 + 1) for i in range(600)}
_PROBE_B = {i * 104729 % 4096: Fraction(i % 11 + 1, i % 5 + 2) for i in range(600)}


def reference_task() -> float:
    """Seconds the reference task takes now (collector paused, so the
    program's heap does not change its cost)."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(PROBE_ROUNDS):
            acc = Fraction(0)
            for k, a in _PROBE_A.items():
                b = _PROBE_B.get(k)
                if b is not None:
                    acc += a * b
        return perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    """Times the reference task now and then every ``PROBE_PERIOD_S`` seconds.

    ``samples`` holds each probe's seconds, oldest first, and ``spent`` the
    seconds all probes took.  ``clock()`` is ``perf_counter`` stopped while
    a probe runs, so a command timed with it does not count the probes that
    interrupted it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, *_):
        start = perf_counter()
        self.samples.append(reference_task())
        self.spent += perf_counter() - start

    def clock(self) -> float:
        return perf_counter() - self.spent

    def reference(self, since: int) -> float:
        """Mean of the probes from index ``since`` on, or the latest probe
        if none has run since."""
        return statistics.fmean(self.samples[since:] or self.samples[-1:])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def _execute(cmd, digests: dict, tracer, clock):
    """Run one command; return (problems, seconds by ``clock``, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with tracer.span("cli.run", None) if tracer else nullcontext() as root:
        start = clock()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                exit_code = cli.run(cmd.argv())
        except SystemExit as exc:
            exit_code = exc.code
        except Exception:  # a crashing command is a failed command; keep going
            exit_code = None
            err.write(traceback.format_exc())
        elapsed = clock() - start
    stdout = out.getvalue()
    data = stdout.encode()
    problems = workloads.verdict_problems(cmd, exit_code, stdout, err.getvalue())
    digest = hashlib.sha256(data).hexdigest()
    if digests.setdefault(cmd.key, digest) != digest:
        problems.append("stdout differs from this command's first run")
    if tracer is not None and not problems:
        root.counts["output_bytes"] = len(data)
        try:
            replayed = tracing.replay(tracer, cmd, root.id)
        except tracing.ReplayMismatch as exc:
            problems.append(f"replay: {exc}")
        else:
            if replayed != stdout:
                problems.append("replayed stages print other bytes than the command")
    return problems, elapsed, stdout


def _stream(commands, shuffle: bool, rng: random.Random):
    """The commands cycle after cycle, each cycle reshuffled if asked."""
    while True:
        cycle = list(commands)
        if shuffle:
            rng.shuffle(cycle)
        yield from cycle


def run_loop(commands, shuffle: bool, seed: int, seconds: float, trace: bool = False):
    """Run commands one after another until ``seconds`` have passed.

    Each sample is (command key, seconds, reference seconds): the mean of
    the probes that ran during the command, or the latest one before it if
    none did.  Returns the run's record, the last stdout of each command
    and the tracer (None unless ``trace``).
    """
    samples, failures, digests, outputs = [], [], {}, {}
    t0 = perf_counter()
    with SpeedProbe() as speed:
        tracer = tracing.Tracer(speed) if trace else None
        for cmd in _stream(commands, shuffle, random.Random(seed)):
            if tracer is not None:
                tracer.command = len(samples)
            seen = len(speed.samples)
            problems, elapsed, outputs[cmd.key] = _execute(cmd, digests, tracer, speed.clock)
            samples.append([cmd.key, elapsed, speed.reference(seen)])
            if problems:
                failures.append({"command": cmd.key, "problems": problems})
            if perf_counter() - t0 >= seconds:
                break
    record = {
        "t0": t0,
        "wall_s": perf_counter() - t0,
        "samples": samples,
        "failures": failures,
        "sha256": digests,
        "output_bytes": {key: len(text.encode()) for key, text in outputs.items()},
    }
    return record, outputs, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if not Path(exqec.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported exqec from {exqec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    commands = workloads.setup(args.workload, args.seed, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    record, outputs, tracer = run_loop(commands, workloads.WORKLOADS[args.workload].shuffle,
                                       args.seed, args.seconds, bool(args.trace))
    record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t0 = record.pop("t0")
    if tracer is not None:
        metrics = tracing.layer_metrics(tracer.spans, record["wall_s"])
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        record["spans"] = tracer.export(t0)
        ratio = metrics["errorops.distinct_ratio"][0] if metrics["errorops.images"][0] else None
        record["repeated_image_share"] = None if ratio is None else 1 - ratio
    else:
        pairs = [pair for cmd in commands if cmd.key in outputs
                 for pair in tracing.gram_inputs(cmd, outputs[cmd.key])]
        record["repeated_image_share"] = tracing.repeated_image_share(pairs)
    record["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
