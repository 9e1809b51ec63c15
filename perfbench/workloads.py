"""Workloads: the inputs each run generates, its command cycle and the
verdict facts every command must reproduce.

The seed picks one qubit relabelling per code.  The relabelled code is
built with ``apply_permutation`` and written with ``serialize_code`` as a
code file, so the program sees only files and argv.  Relabelling changes
no verdict fact (correctability, violation count, rank, stabilizer count),
so the pinned facts below are those of the builtin codes.

Why these workloads:

- ``verify-ruskai9``: exact Gram work over mixed radicands {1, 7} where
  only 56 of the 128 error images are distinct; the workload that work
  shared between Gram inputs shows on.
- ``survey-n7``: the pattern solver; it mostly bypasses the Gram engine,
  so a Gram change should leave it unchanged.
- ``small-codes``: short commands that use the verifier in other ways
  (violation path, float mode, operator-list validation, stabilizer scan,
  one pattern search).
- ``smoke``: rep3 and five-qubit only; the self-tests run it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from exqec import Code, builtin_code, serialize_code
from exqec.qstate import QubitPermutation, apply_permutation

# the 27 single-qubit Paulis and the 36 exchanges of nine qubits, in the
# order ``basic_error_set`` uses, as one explicit ``--errors`` list
_NINE_QUBIT_OPS = ", ".join(
    [f"E({j},{k})" for j in range(1, 10) for k in range(j + 1, 10)]
    + [f"{kind}{q}" for kind in "XYZ" for q in range(1, 10)]
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation with the facts its output must show.

    ``key`` names the command independently of the generated file paths;
    digests and samples are recorded under it.  ``expect`` maps ``exit`` to
    the exit code and any other key to the value of the first
    ``key: value`` line of that name in stdout.
    """

    key: str
    op: str  # verify | dmatrix | stab-check | search | survey
    params: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)

    def argv(self) -> list[str]:
        p = self.params
        head = ["--mode", "float"] if p.get("mode") == "float" else []
        if self.op in ("verify", "dmatrix"):
            return head + [self.op, "--codefile", p["code"], "--errors", p["errors"]]
        if self.op == "stab-check":
            witness = ["--witness", *p["witness"]] if "witness" in p else []
            return ["stab-check", p["code"], *witness]
        if self.op == "search":
            return ["search", "--n", str(p["n"]), "--support0", p["support0"],
                    "--support1", p["support1"]]
        if self.op == "survey":
            return ["survey", "--n", str(p["n"]), "--max-weights", str(p["max_weights"])]
        raise ValueError(f"unknown command op {self.op!r}")


def relabelled_code(name: str, rng: random.Random) -> Code:
    """The builtin code with its qubits relabelled by a seeded permutation."""
    code = builtin_code(name)
    image = list(range(1, code.n + 1))
    rng.shuffle(image)
    perm = QubitPermutation(tuple(image))
    return Code(code.n, tuple(apply_permutation(w, perm) for w in code.words), code.label)


def write_codes(names, seed: int, workdir: Path) -> dict[str, str]:
    """Write one seed-relabelled code file per builtin name; return the paths."""
    rng = random.Random(seed)
    paths = {}
    for name in names:
        path = workdir / f"{name}.code"
        path.write_text(serialize_code(relabelled_code(name, rng)))
        paths[name] = str(path)
    return paths


def _verify(key, code, errors, expect, mode="exact", op="verify"):
    return Command(key, op, {"code": code, "errors": errors, "mode": mode}, expect)


def _verify_ruskai9(f):
    return [
        _verify("verify ruskai9 pauli+exchange", f["ruskai9"], "pauli+exchange",
                {"exit": 0, "correctable": "true", "violations": "0", "rank": "28"}),
        _verify("dmatrix ruskai9", f["ruskai9"], "pauli+exchange",
                {"exit": 0, "size": "64", "total rank": "28"}, op="dmatrix"),
    ]


def _survey_n7(f):
    return [
        Command("survey n7", "survey", {"n": 7, "max_weights": 3},
                {"exit": 0, "patterns": "32", "feasible-count": "5"}),
    ]


def _small_codes(f):
    shor_fails = {"exit": 1, "correctable": "false", "violations": "162"}
    return [
        _verify("verify shor9 pauli+exchange", f["shor9"], "pauli+exchange", shor_fails),
        _verify("verify ruskai9 pauli", f["ruskai9"], "pauli",
                {"exit": 0, "correctable": "true", "violations": "0", "rank": "28"}),
        _verify("verify shor9 op-list", f["shor9"], _NINE_QUBIT_OPS, shor_fails),
        _verify("dmatrix five-qubit pauli", f["five-qubit"], "pauli",
                {"exit": 0, "size": "16", "total rank": "16"}, op="dmatrix"),
        _verify("float verify ruskai9 pauli+exchange", f["ruskai9"], "pauli+exchange",
                {"exit": 0, "correctable": "true", "rank": "28"}, mode="float"),
        _verify("float dmatrix shor9", f["shor9"], "pauli+exchange", shor_fails,
                mode="float", op="dmatrix"),
        Command("stab-check shor9", "stab-check", {"code": f["shor9"]},
                {"exit": 1, "findings": "255"}),
        Command("stab-check ruskai9", "stab-check", {"code": f["ruskai9"]},
                {"exit": 0, "findings": "0"}),
        Command("stab-check five-qubit", "stab-check", {"code": f["five-qubit"]},
                {"exit": 1, "findings": "15"}),
        Command("witness ruskai9 all-Z", "stab-check",
                {"code": f["ruskai9"], "witness": ("000000000", "111111111")},
                {"exit": 0, "kind": "word_mismatch"}),
        Command("search n7 0,5/2,7", "search",
                {"n": 7, "support0": "0,5", "support1": "2,7"},
                {"exit": 0, "feasible": "true"}),
    ]


def _smoke(f):
    return [
        _verify("verify rep3 pauli", f["rep3"], "pauli",
                {"exit": 1, "correctable": "false", "violations": "12"}),
        _verify("dmatrix five-qubit pauli", f["five-qubit"], "pauli",
                {"exit": 0, "size": "16", "total rank": "16"}, op="dmatrix"),
        _verify("float verify five-qubit pauli", f["five-qubit"], "pauli",
                {"exit": 0, "correctable": "true", "rank": "16"}, mode="float"),
        Command("stab-check rep3", "stab-check", {"code": f["rep3"]},
                {"exit": 1, "findings": "3"}),
        Command("witness five-qubit all-Z", "stab-check",
                {"code": f["five-qubit"], "witness": ("00000", "11111")},
                {"exit": 0, "kind": "word_mismatch"}),
        Command("search n5 0,5/2", "search", {"n": 5, "support0": "0,5", "support1": "2"},
                {"exit": 1, "feasible": "false", "method": "sign-definite"}),
    ]


@dataclass(frozen=True)
class Workload:
    codes: tuple[str, ...]  # builtin codes to relabel and write
    commands: object  # paths by code name -> list[Command], one cycle
    shuffle: bool  # reorder each cycle with the seeded generator


WORKLOADS = {
    "verify-ruskai9": Workload(("ruskai9",), _verify_ruskai9, False),
    "survey-n7": Workload((), _survey_n7, False),
    "small-codes": Workload(("shor9", "ruskai9", "five-qubit"), _small_codes, True),
    "smoke": Workload(("rep3", "five-qubit"), _smoke, True),
}


def setup(name: str, seed: int, workdir: Path) -> list[Command]:
    """Generate the workload's inputs under ``workdir``; return one cycle."""
    workload = WORKLOADS[name]
    return workload.commands(write_codes(workload.codes, seed, workdir))


def parse_facts(stdout: str) -> dict[str, str]:
    """First value of every ``key: value`` line of a command's stdout."""
    facts: dict[str, str] = {}
    for line in stdout.splitlines():
        key, sep, value = line.strip().partition(": ")
        if sep and key not in facts:
            facts[key] = value
    return facts


def verdict_problems(cmd: Command, exit_code, stdout: str, stderr: str) -> list[str]:
    """How a command's result differs from its pinned facts; empty if it does not."""
    facts = {"exit": exit_code, **parse_facts(stdout)}
    problems = [
        f"{key}: expected {want!r}, got {facts.get(key)!r}"
        for key, want in cmd.expect.items()
        if facts.get(key) != want
    ]
    if stderr:
        problems.append(f"stderr: {stderr.strip()[:200]}")
    return problems
