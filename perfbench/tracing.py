"""Traced run: per-layer spans recorded from the benchmark's own code.

Nothing in the program is instrumented.  Each command first runs through
``cli.run``; that call is the command's root span.  The benchmark then
replays the command's stages by calling each module's public functions on
the same inputs, one span per call, and checks that the replayed stages
print the same bytes as the command did.  A call the program makes inside
another (``gram_tensor`` inside ``verify_kl``) is timed on its own after
the outer call and linked to it as its child, so a span's self time is
its duration minus the durations of its children.
"""

from __future__ import annotations

import io
import itertools
import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

from exqec import codes, codesearch, errorops, klverify, qstate, stabcheck

SOLVER_METHODS = ("sign-definite", "exact-linear", "linear-program", "grid")
_FAMILIES = {"pauli": "single_pauli", "exchange": "exchange", "identity": "identity_only"}
# the families `search` and `survey` solve for, and those the solver's
# re-verification gate adds
_SEARCH_FAMILIES = ("single_pauli",)
_GATE_FAMILIES = ("single_pauli", "exchange")


class ReplayMismatch(Exception):
    """The replayed stages disagree with the command they replay."""


@dataclass
class Span:
    """One timed call.  ``probed`` is the time speed probes took inside it
    and ``ref`` the mean probe time while it ran (None without probes)."""

    id: int
    name: str
    parent: int | None
    command: int
    start: float
    end: float = 0.0
    probed: float = 0.0
    ref: float | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start - self.probed


class Tracer:
    """Spans kept in memory for the whole run; ``command`` tags new spans.

    With a ``worker.SpeedProbe`` each span leaves out the probes that ran
    inside it and records their mean time, so ``layer_metrics`` can put
    spans timed at different machine speeds on one scale.
    """

    def __init__(self, speed=None):
        self.spans: list[Span] = []
        self.command = -1
        self.speed = speed

    @contextmanager
    def span(self, name: str, parent: int | None):
        speed = self.speed
        seen, spent = (len(speed.samples), speed.spent) if speed else (0, 0.0)
        s = Span(len(self.spans), name, parent, self.command, perf_counter())
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            if speed:
                s.probed = speed.spent - spent
                s.ref = speed.reference(seen)

    def export(self, origin: float) -> list[dict]:
        """Spans as plain records, times in seconds since ``origin``."""
        out = []
        for s in self.spans:
            rec = asdict(s)
            rec["start"] -= origin
            rec["end"] -= origin
            out.append(rec)
        return out


# ---------------------------------------------------------------------------
# replay of one command's stages
# ---------------------------------------------------------------------------

def replay(tr: Tracer, cmd, root: int) -> str:
    """Replay ``cmd``'s stages under span ``root``; return what it prints."""
    return _REPLAYS[cmd.op](tr, cmd, root)


def _emit(title: str, lines: list[str]) -> str:
    # the CLI's human output format
    buf = io.StringIO()
    print(title, file=buf)
    for line in lines:
        print("  " + line, file=buf)
    return buf.getvalue()


def _read_code(params):
    code = codes.parse_code(Path(params["code"]).read_text())
    return code.to_float() if params.get("mode") == "float" else code


def _load_code(tr, params, parent):
    with tr.span("codes.build", parent):
        return _read_code(params)


def error_set(spec: str, n: int):
    """The error set a ``--errors`` argument names."""
    parts = spec.strip().split("+")
    if all(part in _FAMILIES for part in parts):
        return errorops.basic_error_set(n, tuple(_FAMILIES[part] for part in parts))
    return errorops.ErrorSet.from_ops(n, errorops.parse_error_ops(spec.strip(), n))


def _timed_error_set(tr, make, parent):
    with tr.span("errorops.errorset", parent) as s:
        errors = make()
    s.counts["ops"] = len(errors)
    return errors


def _verify_kl(tr, code, errors, parent):
    name = "klverify.verify" if code.mode == "exact" else "klverify.float_verify"
    with tr.span(name, parent) as s:
        report = klverify.verify_kl(code, errors)
    s.counts["violations"] = len(report.violations)
    return report, s


def image_key(image):
    """Equal keys exactly when two images are the same vector."""
    if image.mode == "exact":
        return frozenset(image.terms.items())
    return image.dense.tobytes()


def _inner_product_counts(images, values) -> dict:
    counts = {"inner_products": len(values), "term_pairs": 0,
              "max_den_bits": 0, "radicand_keys": []}
    if images[0].mode != "exact":
        return counts
    supports = [img.support() for img in images]
    counts["term_pairs"] = sum(
        len(supports[x] & supports[y])
        for x in range(len(images)) for y in range(x, len(images))
    )
    keys = set()
    bits = 0
    for v in values:
        for r, re, im in v.parts:
            keys.add(r)
            bits = max(bits, re.denominator.bit_length(), im.denominator.bit_length())
    counts["max_den_bits"] = bits
    counts["radicand_keys"] = sorted(keys)
    return counts


def _verify_children(tr, code, errors, report, verify_span):
    """Replay the calls ``verify_kl`` makes: the Gram tensor (its operator
    applications and inner products) and, when correctable, the rank."""
    with tr.span("klverify.gram", verify_span.id) as g:
        tensor = klverify.gram_tensor(code, errors)
    w = len(code.words)
    size = len(errors) * w
    g.counts["gram_entries"] = size * size
    with tr.span("errorops.apply", g.id) as a:
        images = [errorops.apply(op, word) for op in errors.ops for word in code.words]
    a.counts["images"] = len(images)
    a.counts["distinct_images"] = len({image_key(img) for img in images})
    with tr.span("qstate.inner_product", g.id) as ip:
        values = [
            qstate.inner_product(images[x], images[y])
            for x in range(size) for y in range(x, size)
        ]
    ip.counts.update(_inner_product_counts(images, values))
    expected = [
        tensor.entry(x // w, x % w, y // w, y % w)
        for x in range(size) for y in range(x, size)
    ]
    if values != expected:
        raise ReplayMismatch("replayed inner products differ from gram_tensor")
    if report.d_matrix is not None:
        with tr.span("klverify.rank", verify_span.id):
            rank = report.d_matrix.rank()
        if rank != report.rank:
            raise ReplayMismatch(f"replayed rank {rank} differs from {report.rank}")


def _replay_verify(tr, cmd, root):
    p = cmd.params
    code = _load_code(tr, p, root)
    errors = _timed_error_set(tr, lambda: error_set(p["errors"], code.n), root)
    report, vspan = _verify_kl(tr, code, errors, root)
    _verify_children(tr, code, errors, report, vspan)
    if cmd.op == "verify" or not report.correctable:
        with tr.span("cli.emit", root):
            return _emit(f"{cmd.op} {code.label}", report.to_lines())
    d = report.d_matrix
    with tr.span("klverify.dblocks", root):
        blocks = klverify.d_blocks(d)
    with tr.span("cli.emit", root):
        lines = [f"size: {d.size}"]
        for i, row in enumerate(d.entries):
            for j, value in enumerate(row):
                lines.append(f"d[{d.labels[i]},{d.labels[j]}]: {value}")
        return _emit(f"dmatrix {code.label}", lines + blocks.to_lines())


def _replay_stab_check(tr, cmd, root):
    p = cmd.params
    code = _load_code(tr, p, root)
    if "witness" in p:
        a, b = (int(mask, 2) for mask in p["witness"])
        with tr.span("stabcheck.witness", root):
            report = stabcheck.eigenvector_witness(code, errorops.PauliString(code.n, a, b, 0))
        title = f"witness {code.label}"
    else:
        with tr.span("stabcheck.scan", root) as s:
            report = stabcheck.stabilizer_scan(code)
        s.counts["classes"] = report.scanned
        s.counts["findings"] = len(report.findings)
        title = f"stab-check {code.label}"
    with tr.span("cli.emit", root):
        return _emit(title, report.to_lines())


def _gate_code(pattern, result):
    """The code the solver's re-verification gate checks for ``result``."""
    code = codesearch.realize_code(pattern, result.coefficients, result.squares)
    return code.to_float() if result.squares is None else code


def _gate(tr, pattern, result, parent):
    """The solver's re-verification of a feasible result, replayed."""
    with tr.span("codesearch.gate", parent) as g:
        with tr.span("codesearch.realize", g.id):
            code = _gate_code(pattern, result)
        errors = _timed_error_set(
            tr, lambda: errorops.basic_error_set(pattern.n, _GATE_FAMILIES), g.id
        )
        report, vspan = _verify_kl(tr, code, errors, g.id)
    g.counts["gate_calls"] = 1
    _verify_children(tr, code, errors, report, vspan)
    if not report.correctable:
        raise ReplayMismatch(f"gate rejects feasible pattern {pattern.describe()}")


def _solve(tr, pattern, parent):
    with tr.span("codesearch.solve", parent) as s:
        result = codesearch.solve_coefficients(pattern, _SEARCH_FAMILIES)
    s.counts.update(patterns=1, feasible=int(result.feasible), method=result.method)
    if result.feasible:
        _gate(tr, pattern, result, s.id)
    return result


def _search_pattern(params):
    def weights(text):
        return frozenset(int(tok) for tok in text.split(","))

    return codesearch.SupportPattern(
        params["n"], weights(params["support0"]), weights(params["support1"]))


def _replay_search(tr, cmd, root):
    pattern = _search_pattern(cmd.params)
    result = _solve(tr, pattern, root)
    with tr.span("cli.emit", root):
        return _emit(f"search {pattern.describe()}", result.to_lines())


def survey_patterns(n: int, max_weights: int) -> list:
    """The patterns ``codesearch.survey_patterns`` solves, in its order."""
    seen, patterns = set(), []
    for size in range(1, max_weights + 1):
        for combo in itertools.combinations(range(n + 1), size):
            mirror = tuple(sorted(n - k for k in combo))
            key = min(combo, mirror)
            if set(combo) & set(mirror) or key in seen:
                continue
            seen.add(key)
            patterns.append(codesearch.SupportPattern(n, frozenset(combo), frozenset(mirror)))
    patterns.sort(key=lambda p: (len(p.word0), tuple(sorted(p.word0))))
    return patterns


def _replay_survey(tr, cmd, root):
    p = cmd.params
    results = [_solve(tr, pat, root) for pat in survey_patterns(p["n"], p["max_weights"])]
    with tr.span("cli.emit", root):
        lines = [f"patterns: {len(results)}"]
        for result in results:
            lines.extend(result.to_lines())
        lines.append(f"feasible-count: {sum(r.feasible for r in results)}")
        return _emit(f"survey n={p['n']}", lines)


_REPLAYS = {
    "verify": _replay_verify,
    "dmatrix": _replay_verify,
    "stab-check": _replay_stab_check,
    "search": _replay_search,
    "survey": _replay_survey,
}


# ---------------------------------------------------------------------------
# share of repeated error images, measured without tracing
# ---------------------------------------------------------------------------

def gram_inputs(cmd, stdout: str):
    """The (code, error set) pairs whose Gram tensors ``cmd`` computes.

    For ``search`` and ``survey`` these are the gate's inputs: the patterns
    the output reports feasible are solved again and realized.
    """
    p = cmd.params
    if cmd.op in ("verify", "dmatrix"):
        code = _read_code(p)
        return [(code, error_set(p["errors"], code.n))]
    if cmd.op not in ("search", "survey"):
        return []
    feasible, current = set(), None
    for line in stdout.splitlines():
        key, _, value = line.strip().partition(": ")
        if key == "pattern":
            current = value
        elif key == "feasible" and value == "true":
            feasible.add(current)
    if cmd.op == "search":
        patterns = [_search_pattern(p)]
    else:
        patterns = survey_patterns(p["n"], p["max_weights"])
    return [
        (_gate_code(pattern, codesearch.solve_coefficients(pattern, _SEARCH_FAMILIES)),
         errorops.basic_error_set(pattern.n, _GATE_FAMILIES))
        for pattern in patterns if pattern.describe() in feasible
    ]


def repeated_image_share(pairs) -> float | None:
    """1 - distinct/total over every error image of every (code, errors) pair."""
    total = distinct = 0
    for code, errors in pairs:
        keys = [image_key(errorops.apply(op, w)) for op in errors.ops for w in code.words]
        total += len(keys)
        distinct += len(set(keys))
    return 1 - distinct / total if total else None


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(spans: list[Span], loop_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced run, as ``name -> (value, unit)``.

    Times and counts are means per command; ``distinct_ratio``,
    ``max_den_bits`` and ``radicand_keys`` cover the whole run.  Each span's
    time is scaled from the probe time measured while it ran to the run's
    median probe time, so a call and its replayed parts, timed seconds
    apart while the machine's speed changed, are compared at one speed.
    """
    by_id = {s.id: s for s in spans}
    refs = [s.ref for s in spans if s.ref is not None]
    speed = statistics.median(refs) if refs else None

    def seconds(s):
        return s.duration if speed is None or s.ref is None else s.duration * speed / s.ref

    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += seconds(s)
    roots = [s for s in spans if s.parent is None]
    n = len(roots)
    top = [s for s in spans if s.parent is not None and by_id[s.parent].parent is None]

    def total(name):
        return sum(seconds(s) for s in spans if s.name == name)

    def self_total(name):
        return sum(seconds(s) - child_time[s.id] for s in spans if s.name == name)

    def count(key):
        return sum(s.counts.get(key, 0) for s in spans)

    command_s = sum(seconds(s) for s in roots)
    library_top = sum(seconds(s) for s in top if s.name != "cli.emit")
    images = count("images")
    keys = set()
    for s in spans:
        keys.update(s.counts.get("radicand_keys", ()))

    per = lambda x: x / n  # noqa: E731
    m = {
        "cli.overhead_s": (per(command_s - library_top), "s"),
        "cli.emit_s": (per(total("cli.emit")), "s"),
        "cli.output_bytes": (per(count("output_bytes")), "bytes"),
        "codes.build_s": (per(total("codes.build")), "s"),
        "errorops.errorset_s": (per(total("errorops.errorset")), "s"),
        "errorops.ops": (per(count("ops")), "count"),
        "errorops.apply_s": (per(total("errorops.apply")), "s"),
        "errorops.images": (per(images), "count"),
        "errorops.distinct_images": (per(count("distinct_images")), "count"),
        "errorops.distinct_ratio": (count("distinct_images") / images if images else 0.0, "ratio"),
        "qstate.inner_product_s": (per(total("qstate.inner_product")), "s"),
        "qstate.inner_products": (per(count("inner_products")), "count"),
        "qstate.term_pairs": (per(count("term_pairs")), "count"),
        "qstate.max_den_bits": (max((s.counts.get("max_den_bits", 0) for s in spans), default=0), "bits"),
        "qstate.radicand_keys": (len(keys), "count"),
        "klverify.gram_s": (per(total("klverify.gram")), "s"),
        "klverify.gram_self_s": (per(self_total("klverify.gram")), "s"),
        "klverify.gram_entries": (per(count("gram_entries")), "count"),
        "klverify.check_s": (per(self_total("klverify.verify")), "s"),
        "klverify.violations": (per(count("violations")), "count"),
        "klverify.rank_s": (per(total("klverify.rank")), "s"),
        "klverify.dblocks_s": (per(total("klverify.dblocks")), "s"),
        "klverify.float_verify_s": (per(total("klverify.float_verify")), "s"),
        "stabcheck.scan_s": (per(total("stabcheck.scan")), "s"),
        "stabcheck.classes": (per(count("classes")), "count"),
        "stabcheck.findings": (per(count("findings")), "count"),
        "stabcheck.witness_s": (per(total("stabcheck.witness")), "s"),
        "codesearch.solve_s": (per(total("codesearch.solve")), "s"),
    }
    for method in SOLVER_METHODS:
        m[f"codesearch.solve_s.{method}"] = (per(sum(
            seconds(s) for s in spans
            if s.name == "codesearch.solve" and s.counts.get("method") == method
        )), "s")
    m.update({
        "codesearch.patterns": (per(count("patterns")), "count"),
        "codesearch.feasible": (per(count("feasible")), "count"),
        "codesearch.gate_s": (per(total("codesearch.gate")), "s"),
        "codesearch.gate_calls": (per(count("gate_calls")), "count"),
        "codesearch.solver_self_s": (per(self_total("codesearch.solve")), "s"),
        "trace.command_s": (per(command_s), "s"),
        "trace.unattributed_s": (per(sum(seconds(s) - child_time[s.id] for s in roots)), "s"),
        "trace.ops_per_s": (n / loop_wall, "1/s"),
        "trace.overhead_ratio": (loop_wall / sum(s.duration for s in roots), "ratio"),
        "trace.spans": (per(len(spans)), "count"),
    })
    return m
