from __future__ import annotations

import hashlib
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from exqec import _gram, cli, klverify
from exqec.cli import entry, run
from exqec.codes import BUILTIN_CODES, Code, builtin_code, serialize_code
from exqec.errorops import ErrorSet, basic_error_set, parse_error_ops
from exqec.qstate import InnerProductValue, QubitPermutation, apply_permutation


def invoke(capsys, *argv):
    rc = run(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ------------------------------------------------------------------- verify


def test_verify_positive_exit_and_keys(capsys):
    rc, out, _ = invoke(
        capsys, "verify", "--code", "ruskai9", "--errors", "pauli+exchange"
    )
    assert rc == 0
    assert out.startswith("verify ruskai9\n")
    assert "  correctable: true" in out
    assert "  rank: 28" in out
    assert "  dimension-used: 56 of 512" in out


def test_verify_negative_exit(capsys):
    rc, out, _ = invoke(
        capsys, "verify", "--code", "shor9", "--errors", "pauli+exchange"
    )
    assert rc == 1
    assert "correctable: false" in out
    rc, _, _ = invoke(capsys, "verify", "--code", "shor9", "--errors", "pauli")
    assert rc == 0


def test_verify_explicit_error_list(capsys):
    rc, out, _ = invoke(
        capsys, "verify", "--code", "shor9", "--errors", "I, Z7, E(3,4)"
    )
    assert rc == 1
    assert "violations: 2" in out
    assert "d[Z7,E(3,4)] differs between word 1 and word 0" in out


def test_verify_strict_flag(capsys):
    rc, _, _ = invoke(capsys, "verify", "--code", "five-qubit", "--strict")
    assert rc == 0
    rc, out, _ = invoke(
        capsys, "verify", "--code", "ruskai9", "--errors", "pauli+exchange", "--strict"
    )
    assert rc == 1
    assert "strict: true" in out


def test_verify_float_mode(capsys):
    rc, out, _ = invoke(
        capsys, "--mode", "float", "verify", "--code", "ruskai9",
        "--errors", "pauli+exchange",
    )
    assert rc == 0
    assert "tolerance: 1e-09" in out


def test_verify_codefile(tmp_path, capsys):
    path = tmp_path / "pair.code"
    path.write_text("qubits: 1\nword 0:\n1 |0>\nword 1:\n1 |1>\n")
    rc, out, _ = invoke(capsys, "verify", "--codefile", str(path), "--errors", "identity")
    assert rc == 0
    assert "correctable: true" in out


# ----------------------------------------------------------- dmatrix / gram


def test_dmatrix_output(capsys):
    rc, out, _ = invoke(capsys, "dmatrix", "--code", "ruskai9")
    assert rc == 0
    assert "size: 64" in out
    assert "d[I,E(1,2)]: 4" in out
    assert "d[X1,X2]: 3/2" in out
    assert "total rank: 28" in out
    rc, _, _ = invoke(capsys, "dmatrix", "--code", "shor9")
    assert rc == 1


@pytest.mark.parametrize("name, n, rank", [("five-qubit", 5, 16), ("ruskai9", 9, 28)])
def test_dmatrix_with_interleaved_families(capsys, name, n, rank):
    """An operator list in qubit order (X1, Y1, Z1, X2, ...) gives one block
    per run of a family, and the D rows print as ``verify`` finds them."""
    ops = ", ".join(f"{p}{k}" for k in range(1, n + 1) for p in "XYZ")
    rc, out, _ = invoke(capsys, "verify", "--code", name, "--errors", ops)
    assert rc == 0
    assert f"  rank: {rank}\n" in out
    rc, out, _ = invoke(capsys, "dmatrix", "--code", name, "--errors", ops)
    assert rc == 0
    size = 3 * n + 1
    assert f"  size: {size}\n" in out
    assert sum(line.startswith("  d[") for line in out.splitlines()) == size * size
    assert "  d[X1,X1]: " in out and f"  d[Z{n},Z{n}]: " in out
    blocks = [line.split(":")[0] for line in out.splitlines() if line.startswith("  block ")]
    assert blocks == ["  block 0"] + [f"  block {p}" for _ in range(n) for p in "XYZ"]
    assert f"  total rank: {size}\n" in out


def test_gram_output(capsys):
    rc, out, _ = invoke(capsys, "gram", "--code", "rep3", "--errors", "identity")
    assert rc == 0
    lines = [line.strip() for line in out.splitlines()[1:]]
    assert lines == [
        "g[I w0, I w0]: 1",
        "g[I w0, I w1]: 0",
        "g[I w1, I w0]: 0",
        "g[I w1, I w1]: 1",
    ]


# Per-entry reference printers: D read from ``d.entries`` and the Gram tensor
# from ``tensor.entry``, one f-string per entry.


def _reference_out(lines, title, output):
    if output == "human":
        return "\n  ".join([title, *lines]) + "\n"
    return "\n".join(lines) + "\n" if lines else ""


def reference_dmatrix(code, errors, output):
    report = klverify.verify_kl(code, errors)
    title = f"dmatrix {code.label}"
    if not report.correctable:
        return 1, _reference_out(report.to_lines(), title, output)
    d = report.d_matrix
    lines = [f"size: {d.size}"]
    for label_p, row in zip(d.labels, d.entries):
        lines += [f"d[{label_p},{label_q}]: {v}" for label_q, v in zip(d.labels, row)]
    lines += klverify.d_blocks(d).to_lines()
    return 0, _reference_out(lines, title, output)


def reference_gram(code, errors, output):
    tensor = klverify.gram_tensor(code, errors)
    w = tensor.num_words
    lines = [
        f"g[{label_p} w{i}, {label_q} w{j}]: {tensor.entry(p, i, q, j)}"
        for p, label_p in enumerate(errors.labels)
        for i in range(w)
        for q, label_q in enumerate(errors.labels)
        for j in range(w)
    ]
    return 0, _reference_out(lines, f"gram {code.label}", output)


_FAMILIES = {"pauli": "single_pauli", "exchange": "exchange", "identity": "identity_only"}


def _operator_list(n):
    """An explicit list with a cyclic qubit permutation and an exchange."""
    cycle = " ".join(map(str, [*range(2, n + 1), 1]))
    return f"I, X1 Z{n}, P({cycle}), Y{n} E(1,2)"


@pytest.mark.parametrize(
    "command, reference", [("dmatrix", reference_dmatrix), ("gram", reference_gram)]
)
@pytest.mark.parametrize("spec", ["pauli", "pauli+exchange", "exchange", "identity", "list"])
@pytest.mark.parametrize("name", sorted(BUILTIN_CODES))
def test_table_output_matches_per_entry_reference(capsys, name, spec, command, reference):
    """``dmatrix`` and ``gram`` print each distinct row once, byte for byte
    what one f-string per entry prints, in both modes and both outputs."""
    exact = builtin_code(name)
    n = exact.n
    if spec == "list":
        spec = _operator_list(n)
        errors = ErrorSet.from_ops(n, parse_error_ops(spec, n))
    else:
        errors = basic_error_set(n, families=tuple(_FAMILIES[f] for f in spec.split("+")))
    for mode, code in (("exact", exact), ("float", exact.to_float())):
        for output in ("human", "structured"):
            argv = ["--mode", mode, "--output", output, command, "--code", name]
            rc, out, _ = invoke(capsys, *argv, "--errors", spec)
            assert (rc, out) == reference(code, errors, output), (mode, output)


def test_dmatrix_renders_each_distinct_row_and_value_once(capsys, monkeypatch):
    """ruskai9's D has 64 rows but 28 distinct rows of ids: ``dmatrix``
    builds one ``column + text`` tail list per distinct row and calls
    ``str`` once per distinct id."""
    errors = basic_error_set(9, families=("single_pauli", "exchange"))
    ids, _ = klverify.verify_kl(builtin_code("ruskai9"), errors).d_matrix.table
    assert ids.shape == (64, 64) and len(set(map(tuple, ids.tolist()))) == 28
    joined, rendered = [], []

    class Column(str):
        def __add__(self, text):
            joined.append(text)
            return str.__add__(self, text)

    def counted_columns(table, heads, columns, sep):
        return table_lines(table, heads, [Column(c) for c in columns], sep)

    table_lines, value_str = cli._table_lines, InnerProductValue.__str__
    monkeypatch.setattr(cli, "_table_lines", counted_columns)
    monkeypatch.setattr(InnerProductValue, "__str__", lambda v: rendered.append(v) or value_str(v))
    rc, out, _ = invoke(capsys, "dmatrix", "--code", "ruskai9")
    assert rc == 0
    assert sum(line.startswith("  d[") for line in out.splitlines()) == 64 * 64
    assert len(joined) == 28 * 64
    assert len(rendered) == len(set(ids.ravel().tolist()))


# --------------------------------------------------------------- stab-check


def test_stab_check_exit_codes(capsys):
    rc, out, _ = invoke(capsys, "stab-check", "ruskai9")
    assert rc == 0
    assert "nontrivially-stabilized: false" in out
    rc, out, _ = invoke(capsys, "stab-check", "shor9")
    assert rc == 1
    assert "findings: 255" in out


def test_stab_check_witness(capsys):
    rc, out, _ = invoke(
        capsys, "stab-check", "ruskai9", "--witness", "000000000", "111111111"
    )
    assert rc == 0
    assert "kind: word_mismatch" in out
    rc, out, _ = invoke(
        capsys, "stab-check", "shor9", "--witness", "000000000", "110000000"
    )
    assert rc == 1
    assert "kind: stabilizes" in out


def test_stab_check_witness_integer_masks(capsys):
    rc, out, _ = invoke(capsys, "stab-check", "rep3", "--witness", "0", "0b011")
    assert rc == 1
    assert "element: IZZ" in out


# ------------------------------------------------------------ search/survey


def test_search_feasible(capsys):
    rc, out, _ = invoke(
        capsys, "search", "--n", "9", "--support0", "0,6", "--support1", "3,9"
    )
    assert rc == 0
    assert "feasible: true" in out
    assert "square a_0^2: 1/4" in out


def test_search_infeasible(capsys):
    rc, out, _ = invoke(
        capsys, "search", "--n", "9", "--support0", "0", "--support1", "9"
    )
    assert rc == 1
    assert "method: sign-definite" in out


def test_search_undecided_exits_one(capsys):
    rc, out, _ = invoke(
        capsys, "search", "--n", "5", "--support0", "0,1,3", "--support1", "2,4,5"
    )
    assert rc == 1
    assert "  feasible: undecided\n  method: undecided\n" in out
    assert "the squares are not pinned" in out
    assert "certificate:" not in out


def test_survey_small(capsys):
    rc, out, _ = invoke(capsys, "survey", "--n", "4", "--max-weights", "1")
    assert rc == 0
    assert "patterns: 2" in out
    assert "feasible-count: 0" in out


# ------------------------------------------------------------- demo / bounds


def test_demo_shor(capsys):
    rc, out, _ = invoke(capsys, "demo-shor")
    assert rc == 0
    assert "sample 0: psi-coefficient 0.5, remainder-fraction 0.5" in out
    assert "detected-z-qubits: 7 8 9" in out
    rc2, out2, _ = invoke(capsys, "--seed", "9", "demo-shor", "--samples", "1")
    assert rc2 == 0
    assert "samples: 1" in out2


@pytest.mark.parametrize("seed", [0, 5])
def test_demo_shor_moves_only_in_rounding_noise(capsys, seed):
    """Every line but the last is exact; the last holds rounding noise."""
    rc, out, _ = invoke(capsys, "--seed", str(seed), "demo-shor")
    assert rc == 0
    *lines, noise = out.splitlines()
    assert lines == [
        "demo-shor",
        f"  seed: {seed}",
        "  samples: 3",
        *(f"  sample {i}: psi-coefficient 0.5, remainder-fraction 0.5" for i in range(3)),
        "  detected-z-qubits: 7 8 9",
        "  code-fraction: 0.25",
        "  single-pauli-fraction: 0.25",
        "  remainder-fraction: 0.5",
    ]
    label, code, code_tag, pauli, pauli_tag = noise.split()
    assert (label, code_tag, pauli_tag) == ("remainder-orthogonality:", "(code),", "(single-pauli)")
    assert float(code) < 1e-14 and float(pauli) < 1e-14


def test_bounds(capsys):
    rc, out, _ = invoke(capsys, "bounds", "--scenario", "single_bit")
    assert rc == 0
    assert "min_n: 5" in out
    rc, out, _ = invoke(capsys, "bounds", "--scenario", "irrep_proposal")
    assert "min_n: 9" in out
    rc, out, _ = invoke(capsys, "bounds", "--scenario", "single_bit", "--n", "64")
    assert rc == 0
    assert out.splitlines()[-2].startswith("  n=64: ")


# -------------------------------------------------------------- output modes


def test_structured_output_has_no_decoration(capsys):
    rc, out, _ = invoke(
        capsys, "--output", "structured", "verify", "--code", "rep3",
        "--errors", "identity",
    )
    assert rc == 0
    assert out.splitlines()[0] == "correctable: true"
    assert not any(line.startswith(" ") for line in out.splitlines())


def test_output_is_deterministic(capsys):
    args = ("dmatrix", "--code", "ruskai9")
    rc1, out1, _ = invoke(capsys, *args)
    rc2, out2, _ = invoke(capsys, *args)
    assert (rc1, out1) == (rc2, out2)


@pytest.mark.parametrize(
    "argv, rc, digest",
    [
        (
            "dmatrix --code ruskai9 --errors pauli+exchange",
            0,
            "7f72190ba0eebbbb6ae0c8d6a54f09fbb4a21d24adce909e7c6a878d7ed95e2c",
        ),
        (
            "verify --code shor9 --errors pauli+exchange",
            1,
            "974afb4a9628e761d3cca8380a04615863f0cb4a16a6b3a33e10a1b15e9e8e72",
        ),
        (
            # exact mode with a positive tolerance: every entry shor9 gets
            # wrong under pauli+exchange is off by 4
            "--tol 4.5 verify --code shor9",
            0,
            "45208932242941fb55af85f18c694c0885f59ede6091bed83a4c577cff671ae6",
        ),
        (
            "gram --code rep3 --errors pauli",
            0,
            "b3320812dc97fd2943ea170662c4c96049d5e6f194b1b1a04be305beea1d9695",
        ),
        (
            "verify --code ruskai9 --errors pauli --strict",
            1,
            "7a12566825acf791f34e6f9d9dbe7001a7aca98fd159549cf7e1f10484fd7e68",
        ),
        (
            "dmatrix --code five-qubit --errors pauli",
            0,
            "2fb5cc84b10f4cac4aabaf735650e8a8f9ce001a2bc41249b5e6e0c07a22d972",
        ),
        (
            'dmatrix --code ruskai9 --errors "Y1 Z1, P(2 3 4 5 6 7 8 9 1), '
            'X2 E(1,2), Z9 Y9 X9, E(3,4) E(4,5)"',
            0,
            "139050e1c8e309a2451f90d9ef4bbe72316c58b0d1c4d90f19e4b4dee3af352e",
        ),
        (
            '--mode float dmatrix --code ruskai9 --errors "Y1 Z1, '
            'P(2 3 4 5 6 7 8 9 1), X2 E(1,2), Z9 Y9 X9, E(3,4) E(4,5)"',
            0,
            "ba841625502f70becba43adc88185a4db58d1c62da4416a151ac6b0d7f2dabd1",
        ),
        (
            'gram --code rep3 --errors "X1 Z2, P(3 1 2), Y3 E(1,3)"',
            0,
            "afe5d23d2a1631659ba18b3e51eb9f9e273061ad0e72dcecc29336aa472e7160",
        ),
        (
            '--mode float gram --code shor9 --errors '
            '"X1 Z2 E(3,4), P(9 8 7 6 5 4 3 2 1), Y5 Y6"',
            0,
            "d7ee3de328f30ec96f77be9d3a341059c7437a7a944e06b1919b88800b9c56d5",
        ),
        (
            "--mode float gram --code rep3 --errors pauli",
            0,
            "5bae147ae5c2fbc4bb19043f288a415a5c3189378164a8d7a5e9e7af3546a415",
        ),
        (
            # 216 strict violations
            "--mode float verify --code ruskai9 --errors pauli --strict",
            1,
            "6e2d801313813f1b768e5615ce99be4e9e8352a7220a6fe23156def74f99aa7e",
        ),
        (
            # prints 8.44e-17, which moves with any change in float rounding
            "demo-shor",
            0,
            "081577e444ba4b6f6f2433bbfb07b3dc802a9f1558fcb16f4b177ef03000e40a",
        ),
        (
            # sign-definite and exact-linear rows, exact gates
            "survey --n 9 --max-weights 2",
            0,
            "5aa9382f0d53b39fef56dc0774b3c38c23324188493ef7e20cf77f21391762ac",
        ),
        (
            "survey --n 7 --max-weights 2 --families phase",
            0,
            "13ee3d1c33bc1e34ea7b18bc203007f87223a92572b46d9e0398980ee33cf12e",
        ),
        (
            "search --n 7 --support0 0,5 --support1 2,7",
            0,
            "6f47a576fc4bec47e29679608d4e72453ac8c28f2d7f446c486014c7cec0dd97",
        ),
        (
            "survey --n 5 --max-weights 3",
            0,
            "a9d5dda362d1f9dec1652a0285dcd16c79bb3bddd6833611c9db288e3cf2cfbc",
        ),
        (
            "survey --n 8 --max-weights 3 --families bitflip+phase",
            0,
            "bb02537cccc4c1092da7e6d042be163f2105787d5455b9d228c675e9cd907d09",
        ),
        (
            "survey --n 7 --max-weights 2 --families single_pauli+exchange",
            0,
            "338b278ba0966abdf71f53e26bd9a8d3494061d98a2b2c742f0b958c11411c35",
        ),
        (
            # ten feasible rows, each through the exact gate
            "survey --n 13 --max-weights 2",
            0,
            "2ef38fcc8ec4a357186edc3d70631cb7c7e7189a23777fb07be55d8b8668d67b",
        ),
        (
            "search --n 16 --support0 0,10 --support1 6,16",
            0,
            "3252c58eac76bf266a4a219c80778d9ac491da0b5099569466fb24eb024ca9a6",
        ),
        (
            # 116 patterns, 45 feasible
            "survey --n 11 --max-weights 3",
            0,
            "f019e319bba17758b450e98ca73a5f050786f65cf16df5f1cce6d3eab0e804cc",
        ),
        (
            # 105 patterns, 46 feasible; 4-weight rows have up to 2^6 sign choices
            "survey --n 10 --max-weights 4",
            0,
            "c5f8faa109b714feec5bbe7ce948efe3ebd2dcf7682ec42d81cd48c9079886d2",
        ),
        (
            # 4,096 float D entries with their rounding noise: the float Gram's bits
            "--mode float dmatrix --code ruskai9",
            0,
            "b543d1016a9c418502c09efd3f1f64036dd22b8398c8a9f4b991b61d73a67ad3",
        ),
        (
            "--mode float verify --code shor9 --errors pauli+exchange",
            1,
            "4beb9d1430bbcd7286b9cafb22a58dd28d7f8dab4d55faada25fde7bda739d71",
        ),
        (
            "--mode float gram --code ruskai9 --errors pauli",
            0,
            "fa52178b3705bc7a19935296dea9555838bb35a9cbd080eecd0771490240eab0",
        ),
        (
            "--output structured dmatrix --code ruskai9",
            0,
            "f9169dc8ff64e996023d5aa0555529658b2f66a124d48c21f302e6c495307e5a",
        ),
        (
            "gram --code ruskai9 --errors pauli+exchange",
            0,
            "724701db668a57e2823795b000a86c576f676ae13d88106a22c56da8886977ea",
        ),
        (
            # 98 distinct image rows of 128
            "gram --code shor9 --errors pauli+exchange",
            0,
            "30e3cd1366fd58d304f7cdca01281a78795186c47617d616a387009a69ba417f",
        ),
        (
            "--output structured gram --code ruskai9 --errors pauli+exchange",
            0,
            "c0b3c1df266c07652176e7300f7f1a0de7ed8b5902d2e3b6b17a549fb42090f4",
        ),
        (
            # repeated float rows and signed zeros
            "--mode float gram --code ruskai9 --errors pauli+exchange",
            0,
            "1f28d528f528dacf977dcebe871d3378230922d5ffced87283528d3bfd352d11",
        ),
        (
            "--mode float --output structured dmatrix --code ruskai9",
            0,
            "0b91dd7d068129c9d002f746627f76db420a7bfc058244f42febbd6b3e56efdc",
        ),
        (
            # 255 findings
            "stab-check shor9",
            1,
            "53cd453f63d7a7dd32fdd34ae30fcae67945070ea3b3a9e3e0552b109757d0ce",
        ),
        (
            "stab-check five-qubit",
            1,
            "cf8ed71d229795024ae241fe761bdb1051d7c0fd59418e5629ae79d412799a10",
        ),
        (
            "stab-check rep3",
            1,
            "1808c2de139d89ec809af2b2be7bc4c1e9674d3bb4bd80081deaad9eda0676ce",
        ),
        (
            "stab-check ruskai9",
            0,
            "d14c69806a1c45b0f878e25dd0ee6159f01d72760f78442ddc91c9e427d7fc63",
        ),
        (
            # word_mismatch
            "stab-check ruskai9 --witness 000000000 111111111",
            0,
            "152aef20a52a1426ced0d3af1548f6c92bdfa5dc93a8c6c7d8c6967768cc6cf5",
        ),
        (
            # support
            "stab-check ruskai9 --witness 100000000 000000000",
            0,
            "1b6f9f86678b183ec743cd78aac804390b83587b516cdac708b40d245cdbdcb1",
        ),
        (
            # phase
            "stab-check five-qubit --witness 10010 00000",
            0,
            "4de892ee8b36f4b9216f9c91aff275d684a2cc27ec9806475b2857709a2455ff",
        ),
        (
            # stabilizes
            "stab-check shor9 --witness 000000000 110000000",
            1,
            "93971bad74839881d369309c8d4452b0128e99ebe586b64996f7f536da7b6203",
        ),
        (
            "--output structured stab-check rep3 --witness 0 3",
            1,
            "341543003a134f599bc0896b3119a680adde4e92406f396d3a221db234eac38c",
        ),
        (
            # D is the identity+exchange run alone: rank 1
            "verify --code ruskai9 --errors identity+exchange",
            0,
            "0ce61875ae80a49340bf1bc812ec74d93ece1aa9f74ef21be517399cd5a21cc3",
        ),
        (
            # a non-orbit code whose D has the split's shape: rank 16
            "verify --code five-qubit --errors pauli",
            0,
            "b83ec1aeeeeec1e5cc923305d2caf0eb5da1833b767f6799e8bdb1917ac783c9",
        ),
        (
            # interleaved families, so no split: rank 28 by elimination
            'verify --code ruskai9 --errors "X1, Y1, Z1, X2, Y2, Z2, X3, Y3, Z3, X4, Y4, Z4, '
            'X5, Y5, Z5, X6, Y6, Z6, X7, Y7, Z7, X8, Y8, Z8, X9, Y9, Z9"',
            0,
            "e24d260cb775c08e03d32c20084a4aad5bc6f78adeb5c05ee7c52f9d9e42b52e",
        ),
    ],
)
def test_output_matches_golden_digest(capsys, argv, rc, digest):
    """stdout bytes and exit code pinned to a reference run of the same
    command, so a change in any printed exact value shows up here."""
    got_rc, out, _ = invoke(capsys, *shlex.split(argv))
    assert got_rc == rc
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_seven_qubit_survey_matches_golden_digest(capsys):
    """The 32-pattern n=7 survey: its bytes, and the two facts a reader
    checks first."""
    rc, out, _ = invoke(capsys, "survey", "--n", "7", "--max-weights", "3")
    assert rc == 0
    assert "  patterns: 32\n" in out
    assert out.endswith("  feasible-count: 5\n")
    assert out.count("feasible: undecided") == 8
    assert out.count("feasible: true") == 5
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "704b7930428a4fc0b56144f338e16696bfb50875d28c699df2243c17c62921af"
    )


@pytest.fixture
def ruskai9_file(tmp_path):
    """ruskai9 with its qubits relabelled, written ket by ket."""
    code = builtin_code("ruskai9")
    perm = QubitPermutation((4, 9, 2, 7, 1, 6, 3, 8, 5))
    path = tmp_path / "ruskai9.code"
    path.write_text(
        serialize_code(Code(9, tuple(apply_permutation(w, perm) for w in code.words), code.label))
    )
    return path


@pytest.mark.parametrize(
    "command, digest",
    [
        ("verify", "e24d260cb775c08e03d32c20084a4aad5bc6f78adeb5c05ee7c52f9d9e42b52e"),
        ("dmatrix", "7f72190ba0eebbbb6ae0c8d6a54f09fbb4a21d24adce909e7c6a878d7ed95e2c"),
    ],
)
def test_codefile_output_matches_golden_digest(capsys, ruskai9_file, command, digest):
    """The parse path: a 170-line ket-by-ket file prints the pinned bytes."""
    rc, out, _ = invoke(
        capsys, command, "--codefile", str(ruskai9_file), "--errors", "pauli+exchange"
    )
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", ["verify", "dmatrix", "gram"])
@pytest.mark.parametrize(
    "name, engine, rc", [("ruskai9", "_orbit_gram", 0), ("shor9", "_exact_gram", 1)]
)
def test_exact_command_on_a_code_file_builds_one_gram(
    tmp_path, capsys, monkeypatch, command, name, engine, rc
):
    """An exact verify, dmatrix or gram of a relabelled code file checks the
    code on the Gram it prints from: one Gram engine call and one
    ``_orbit_coefficients`` call per word."""
    code = builtin_code(name)
    perm = QubitPermutation((4, 9, 2, 7, 1, 6, 3, 8, 5))
    path = tmp_path / f"{name}.code"
    path.write_text(
        serialize_code(Code(9, tuple(apply_permutation(w, perm) for w in code.words), name))
    )
    calls = dict.fromkeys(["_orbit_gram", "_exact_gram", "_float_gram", "_orbit_coefficients"], 0)

    def counted(fn):
        original = getattr(_gram, fn)

        def call(*args, **kwargs):
            calls[fn] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(_gram, fn, call)

    for fn in calls:
        counted(fn)
    got, out, err = invoke(capsys, command, "--codefile", str(path), "--errors", "pauli+exchange")
    assert (got, err) == (0 if command == "gram" else rc, "")
    assert out.startswith(f"{command} {name}\n")
    assert calls == {**dict.fromkeys(calls, 0), engine: 1, "_orbit_coefficients": 2}


# --------------------------------------------------------------- exit code 2


def test_missing_codefile_is_usage_error(capsys):
    rc, out, err = invoke(capsys, "verify", "--codefile", "/no/such/file.code")
    assert rc == 2
    assert out == ""
    assert "cannot read code file" in err


def test_malformed_codefile_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.code"
    path.write_text("qubits: 2\nword 0:\nzzz |00>\n")
    rc, _, err = invoke(capsys, "verify", "--codefile", str(path))
    assert rc == 2
    assert "line 3" in err


_INVALID_CODES = {
    # two words of equal norm that share the ket |00>
    "shared-ket": ("qubits: 2\nword 0:\n1 |00>\n1 |01>\nword 1:\n1 |00>\n1 |11>\n",
                   "<w0|w1> = 1"),
    "unequal-norms": ("qubits: 2\nword 0:\n1 |00>\nword 1:\n2 |11>\n", "|w1|^2 = 4"),
    "three-words": (
        "qubits: 3\nword 0:\n1 |000>\n1 |001>\nword 1:\nsqrt(2) |001>\n1 |110>\n"
        "word 2:\ni |111>\n-1/2 |000>\n",
        "<w0|w1> = sqrt(2), <w0|w2> = -1/2, |w1|^2 = 3, |w2|^2 = 5/4",
    ),
    # whole weight orbits (the orbit engine) with norms 7 and 4
    "orbit-norms": (
        "qubits: 9\nword 0:\n1 |000000000>\n1/sqrt(14) orbit(k=6)\n"
        "word 1:\n1 |111111111>\n1/sqrt(28) orbit(k=3)\n",
        "|w1|^2 = 4",
    ),
}


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--codefile", "{path}", "--errors", "pauli+exchange"),
        ("verify", "--codefile", "{path}", "--strict"),
        ("--tol", "10", "verify", "--codefile", "{path}"),
        ("dmatrix", "--codefile", "{path}"),
        ("gram", "--codefile", "{path}"),
        ("--mode", "float", "verify", "--codefile", "{path}"),
        ("--mode", "float", "dmatrix", "--codefile", "{path}"),
        ("--mode", "float", "gram", "--codefile", "{path}"),
        ("stab-check", "{path}"),
    ],
)
@pytest.mark.parametrize("name", sorted(_INVALID_CODES))
def test_invalid_codefile_is_usage_error(tmp_path, capsys, name, argv):
    """A code file whose words overlap or differ in norm exits 2 before any
    output, with every offender in word order, under every command that
    loads a code; a tolerance given with ``--tol`` does not loosen the
    exact check."""
    text, offenders = _INVALID_CODES[name]
    path = tmp_path / f"{name}.code"
    path.write_text(text)
    rc, out, err = invoke(capsys, *(arg.format(path=path) for arg in argv))
    assert (rc, out, err) == (2, "", f"error: invalid code: {offenders}\n")


@pytest.mark.parametrize(
    "mode, message",
    [
        # the operator list is read before the Gram that the check reads
        ("exact", "cannot parse operator token 'Q9'"),
        # float mode checks the file when it is parsed, before the errors
        ("float", "invalid code: <w0|w1> = 1"),
    ],
)
@pytest.mark.parametrize("command", ["verify", "dmatrix", "gram"])
def test_invalid_codefile_with_malformed_errors(tmp_path, capsys, command, mode, message):
    path = tmp_path / "shared-ket.code"
    path.write_text(_INVALID_CODES["shared-ket"][0])
    rc, out, err = invoke(
        capsys, "--mode", mode, command, "--codefile", str(path), "--errors", "Q9"
    )
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "entry,message",
    [
        ("1/0 |000>", "zero denominator in '1/0'"),
        ("sqrt(1000000000000000003) |000>", "exceeds 1000000; write the coefficient as a rational"),
    ],
)
def test_bad_coefficient_is_usage_error(tmp_path, capsys, entry, message):
    """A zero denominator or an oversized radicand is a parse error with its
    position, not a traceback (exit 1 would read as "not correctable") or a
    trial division running for minutes."""
    path = tmp_path / "bad.code"
    path.write_text(f"qubits: 3\nword 0:\n{entry}\n")
    rc, out, err = invoke(capsys, "verify", "--codefile", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: line 3, column 1: ")
    assert message in err


def test_bad_error_spec_is_usage_error(capsys):
    rc, _, err = invoke(capsys, "verify", "--code", "rep3", "--errors", "Q9")
    assert rc == 2
    assert "cannot parse operator token" in err


@pytest.mark.parametrize(
    "spec, first, second",
    [
        ("X1 X1", "I", "X1 X1"),
        ("P(1 2 3)", "I", "P(1 2 3)"),
        ("X1, X1 E(1,2) E(1,2)", "X1", "X1 E(1,2) E(1,2)"),
        ("I, I", "I", "I"),
    ],
)
def test_duplicate_error_operators_are_usage_error(capsys, spec, first, second):
    rc, out, err = invoke(capsys, "verify", "--code", "rep3", "--errors", spec)
    assert rc == 2
    assert out == ""
    assert f"duplicate error operators: {first} and {second} act identically" in err


def test_bad_witness_mask_is_usage_error(capsys):
    rc, _, err = invoke(capsys, "stab-check", "rep3", "--witness", "01", "000")
    assert rc == 2
    assert "mask" in err


def test_negative_tolerance_is_usage_error(capsys):
    rc, _, err = invoke(capsys, "--tol", "-1", "verify", "--code", "rep3")
    assert rc == 2
    assert "tolerance" in err


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_is_usage_error(capsys, mode, tol):
    """A nan bound would make every comparison False and pass shor9."""
    rc, out, err = invoke(
        capsys, "--mode", mode, "--tol", tol,
        "verify", "--code", "shor9", "--errors", "pauli+exchange",
    )
    assert rc == 2
    assert out == ""
    assert "tolerance must be finite and nonnegative" in err


_EVERY_COMMAND = {
    "verify": ["verify", "--code", "rep3"],
    "dmatrix": ["dmatrix", "--code", "five-qubit", "--errors", "pauli"],
    "gram": ["gram", "--code", "rep3"],
    "stab-check": ["stab-check", "rep3"],
    "search": ["search", "--n", "5", "--support0", "0,5", "--support1", "2"],
    "survey": ["survey", "--n", "5"],
    "demo-shor": ["demo-shor", "--samples", "1"],
    "bounds": ["bounds", "--scenario", "single_bit"],
}


@pytest.mark.parametrize(
    "option, readers",
    [
        ("--tol", {"verify", "dmatrix"}),
        ("--seed", {"demo-shor"}),
        ("--mode", {"verify", "dmatrix", "gram", "stab-check"}),
    ],
)
@pytest.mark.parametrize("command", sorted(_EVERY_COMMAND))
def test_global_option_on_a_command_that_ignores_it_is_usage_error(
    capsys, option, readers, command
):
    """``--tol`` outside verify and dmatrix, ``--seed`` outside demo-shor,
    and ``--mode`` outside verify, dmatrix, gram and stab-check exit 2
    naming the subcommand, even at the default's value; the subcommands
    that read the option run as without it."""
    argv = _EVERY_COMMAND[command]
    rc, out, err = invoke(capsys, option, "exact" if option == "--mode" else "0", *argv)
    if command in readers:
        assert (rc, out, err) == invoke(capsys, *argv)
    else:
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {option} has no effect on {command}; only ")


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_mode_on_a_command_without_arithmetic_names_its_readers(capsys, mode):
    rc, out, err = invoke(capsys, "--mode", mode, *_EVERY_COMMAND["survey"])
    assert (rc, out) == (2, "")
    assert err == (
        "error: --mode has no effect on survey; "
        "only verify, dmatrix, gram and stab-check read it\n"
    )


def test_overlapping_supports_are_usage_error(capsys):
    rc, _, err = invoke(
        capsys, "search", "--n", "9", "--support0", "0,3", "--support1", "3,9"
    )
    assert rc == 2
    assert "disjoint" in err


def test_scan_too_large_is_usage_error(tmp_path, capsys):
    path = tmp_path / "wide.code"
    path.write_text("qubits: 13\nword 0:\n1 |0000000000000>\n")
    rc, out, err = invoke(capsys, "stab-check", str(path))
    assert rc == 2
    assert out == ""
    assert "scan" in err.lower()


@pytest.mark.parametrize(
    "entries, position",
    [
        ("1 |00>\nsqrt(2) |00>", "line 4, column 9"),
        ("sqrt(2) |01>\n1 orbit(k=1)", "line 4, column 3"),
    ],
)
def test_mixed_radicands_on_one_ket_are_usage_errors(tmp_path, capsys, entries, position):
    path = tmp_path / "mixed.code"
    path.write_text(f"qubits: 2\nword 0:\n{entries}\n")
    rc, out, err = invoke(capsys, "verify", "--codefile", str(path))
    assert (rc, out) == (2, "")
    assert err == (
        f"error: {position}: cannot add amplitudes with radicands 1 and 2; "
        "convert to float mode for mixed surds\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("bounds", "--scenario", "single_bit", "--n", "65"), "1..64, got 65"),
        (("survey", "--n", "-1"), "n must be at least 1, got -1"),
        (("survey", "--n", "7", "--max-weights", "0"), "max_weights must be at least 1"),
        (
            ("search", "--n", "-2", "--support0", "0", "--support1", "1"),
            "n must be at least 1, got -2",
        ),
        (
            ("search", "--n", "25", "--support0", "0", "--support1", "25"),
            "qubit count must be between 1 and 24, got 25",
        ),
        (
            ("survey", "--n", "25", "--max-weights", "1"),
            "qubit count must be between 1 and 24, got 25",
        ),
        (
            ("search", "--n", "7", "--support0", "0,1,2,3,4", "--support1", "5"),
            "limited to 4 weights per word",
        ),
        (("survey", "--n", "11", "--max-weights", "5"), "limited to 4 weights per word"),
        (("verify", "--codefile", "{wide}"), "qubit count 25 out of range 1..24"),
        (
            # the pattern checks come before the family check
            ("survey", "--n", "25", "--families", "bogus"),
            "qubit count must be between 1 and 24, got 25",
        ),
        (("survey", "--n", "7", "--families", "bogus"), "unknown error family 'bogus'"),
    ],
)
def test_out_of_range_sizes_are_usage_errors(tmp_path, capsys, argv, message):
    wide = tmp_path / "wide.code"
    wide.write_text("qubits: 25\nword 0:\n1 |0>\n")
    argv = [arg.format(wide=wide) for arg in argv]
    rc, out, err = invoke(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert message in err


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def _src_env() -> dict[str, str]:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    return env


def test_parser_is_built_on_the_first_run_and_reused():
    """Importing the CLI builds no argument parser; two runs build one."""
    code = (
        "import argparse, contextlib, io\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "from exqec import cli\n"
        "counts = [built.count('exqec')]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.run(['bounds', '--scenario', 'single_bit'])\n"
        "    cli.run(['verify', '--code', 'rep3'])\n"
        "counts.append(built.count('exqec'))\n"
        "print(counts)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 1]\n"


def test_usage_error_leaves_the_parser_reusable(capsys):
    """After an argparse usage error, a valid command in the same process
    prints what it prints in a fresh one."""
    argv = ["verify", "--code", "ruskai9", "--errors", "pauli+exchange"]
    with pytest.raises(SystemExit) as exc:
        run(argv[:-1])
    assert exc.value.code == 2
    assert "argument --errors: expected one argument" in capsys.readouterr().err
    rc, out, _ = invoke(capsys, *argv)
    fresh = subprocess.run(
        [sys.executable, "-m", "exqec", *argv], capture_output=True, env=_src_env(), timeout=120
    )
    assert (rc, out.encode()) == (fresh.returncode, fresh.stdout)
    assert rc == 0 and b"correctable: true" in fresh.stdout


# ------------------------------------------------------------ installed entry

_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
_BOUNDS_ARGV = ("bounds", "--scenario", "single_bit")
_SCRIPTS_DIR = sysconfig.get_path("scripts")
_INSTALLED_SCRIPT = shutil.which("exqec", path=_SCRIPTS_DIR)

# What an installer's generated console script does with an entry point.
_LAUNCHER = """\
import sys
from importlib.metadata import EntryPoint
ep = EntryPoint(name="exqec", value=sys.argv.pop(1), group="console_scripts")
sys.argv[0] = "exqec"
sys.exit(ep.load()())
"""


def _stdout_of(*cmd: str) -> bytes:
    proc = subprocess.run([*cmd, *_BOUNDS_ARGV], capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert b"min_n: 5" in proc.stdout
    return proc.stdout


def _declared_scripts() -> dict[str, str]:
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with _PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"].get("scripts", {})


def test_console_script_and_module_entry():
    """``[project.scripts] exqec`` resolves to ``exqec.cli:entry`` and, run as
    the generated script would run it, prints what ``python -m exqec`` does."""
    scripts = _declared_scripts()
    assert "exqec" in scripts, f"no exqec in [project.scripts] of {_PYPROJECT}"
    value = scripts["exqec"]
    ep = EntryPoint(name="exqec", value=value, group="console_scripts")
    assert ep.load() is entry, value
    script = _stdout_of(sys.executable, "-c", _LAUNCHER, value)
    module = _stdout_of(sys.executable, "-m", "exqec")
    assert module == script


@pytest.mark.skipif(
    _INSTALLED_SCRIPT is None,
    reason=f"no installed exqec console script in {_SCRIPTS_DIR}; "
    "run `pip install -e .` to test it",
)
def test_installed_console_script_matches_module():
    script = _stdout_of(_INSTALLED_SCRIPT)
    module = _stdout_of(sys.executable, "-m", "exqec")
    assert module == script


def test_import_leaves_scipy_sparse_unloaded():
    """numpy is the only numeric dependency: importing the CLI and running
    ``demo-shor``, a survey and searches loads no scipy module."""
    code = (
        "import contextlib, io, sys\n"
        "from exqec import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.run(['demo-shor'])\n"
        "    cli.run(['survey', '--n', '5', '--max-weights', '3'])\n"
        "    cli.run(['search', '--n', '7', '--support0', '0,5', '--support1', '2,7'])\n"
        "    cli.run(['search', '--n', '9', '--support0', '0,3', '--support1', '6,9',\n"
        "             '--families', 'bitflip'])\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
