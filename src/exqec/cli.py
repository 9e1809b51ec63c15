"""Command-line driver.

Every subcommand prints a line-oriented ``key: value`` report and uses
exit codes to separate "the tool failed" from "the tool ran and the
answer is no": 0 for success/positive, 1 for a negative verification
answer, 2 for usage or input errors.  Identical configuration and inputs
produce byte-identical output; all randomness is seeded.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import codesearch, klverify, stabcheck
from ._gram import GramTensor, _block, _offenders, _resolve_tol
from .codes import BUILTIN_CODES, Code, _raise_invalid, builtin_code, parse_code
from .errorops import ErrorSet, PauliString, basic_error_set, parse_error_ops
from .errors import CodeParseError, ScanTooLarge


class _UsageError(Exception):
    pass


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``run`` and reused after."""
    parser = argparse.ArgumentParser(
        prog="exqec",
        description="Exact verification and search for qubit error-correcting "
        "codes, including exchange (qubit-swap) errors.",
    )
    parser.add_argument(
        "--mode",
        choices=("exact", "float"),
        default=None,
        help="arithmetic for verify, dmatrix, gram and stab-check (default: exact)",
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=None,
        help="comparison tolerance for verify and dmatrix "
        "(default: 0 in exact mode, 1e-9 in float)",
    )
    parser.add_argument(
        "--output", choices=("human", "structured"), default="human"
    )
    parser.add_argument("--seed", type=int, default=None, help="demo-shor's seed (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_code_flags(p, positional=False):
        if positional:
            p.add_argument("codefile", help="code file path or builtin name")
        else:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument(
                "--code", choices=sorted(BUILTIN_CODES), help="builtin code"
            )
            group.add_argument("--codefile", help="path to a code file")

    p = sub.add_parser("verify", help="check the correctability conditions")
    add_code_flags(p)
    p.add_argument(
        "--errors",
        default="pauli",
        help="error families joined by '+' (pauli, exchange, identity) "
        "or an explicit operator list such as 'I, Z1, E(3,4)'",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="additionally require mutually orthogonal error subspaces",
    )

    p = sub.add_parser("dmatrix", help="print the D matrix and its blocks")
    add_code_flags(p)
    p.add_argument("--errors", default="pauli+exchange")

    p = sub.add_parser("gram", help="print every Gram tensor entry")
    add_code_flags(p)
    p.add_argument("--errors", default="pauli")

    p = sub.add_parser("stab-check", help="exhaustive stabilizer scan")
    add_code_flags(p, positional=True)
    p.add_argument(
        "--witness",
        nargs=2,
        metavar=("A", "B"),
        help="instead of scanning, explain X(A)Z(B); masks as 0/1 strings "
        "(qubit 1 leftmost) or integers",
    )

    p = sub.add_parser("search", help="solve one coefficient pattern")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--support0", required=True, help="weights, e.g. 0,6")
    p.add_argument("--support1", required=True, help="weights, e.g. 3,9")
    p.add_argument("--families", default="single_pauli")

    p = sub.add_parser("survey", help="solve all complement-dual patterns")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-weights", type=int, default=3)
    p.add_argument("--families", default="single_pauli")

    p = sub.add_parser(
        "demo-shor", help="decompose an exchange error on an encoded state"
    )
    p.add_argument("--samples", type=int, default=3)

    p = sub.add_parser("bounds", help="register-size counting bounds")
    p.add_argument(
        "--scenario",
        required=True,
        choices=("single_bit", "all_two_bit_plus_single", "irrep_proposal"),
    )
    p.add_argument("--n", type=int, default=None)
    return parser


def _load_code(args, validate: bool = True) -> tuple[Code, bool]:
    """The code, in ``--mode``, and whether it has been validated: a builtin
    always is, in its constructor, and a code file is when ``validate``."""
    name = getattr(args, "code", None)
    path = getattr(args, "codefile", None)
    if name or path in BUILTIN_CODES:
        code, validate = builtin_code(name or path), True
    else:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise _UsageError(f"cannot read code file {path}: {exc}")
        code = parse_code(text, validate)
    if args.mode == "float":
        code = code.to_float()
    return code, validate


def _load_gram(args) -> tuple[Code, GramTensor]:
    """The code and its Gram under ``--errors``, for verify, dmatrix and
    gram.  An exact code file is parsed unvalidated and checked on this
    Gram's identity images (``_offenders``) at tolerance 0, whatever
    ``--tol`` says, as ``Code.validate`` checks it; so ``--errors`` is read
    before that check, and an invalid code prints nothing.  In float mode
    the file is validated when parsed."""
    code, validated = _load_code(args, validate=args.mode == "float")
    G = klverify.gram_tensor(code, _load_errors(args.errors, code.n))
    if not validated:
        _raise_invalid(_offenders(G, 0.0))
    return code, G


def _load_errors(spec: str, n: int) -> ErrorSet:
    token = spec.strip()
    if token and all(part in ("pauli", "exchange", "identity") for part in token.split("+")):
        fam_map = {
            "pauli": "single_pauli",
            "exchange": "exchange",
            "identity": "identity_only",
        }
        fams = tuple(fam_map[part] for part in token.split("+"))
        return basic_error_set(n, families=fams)
    return ErrorSet.from_ops(n, parse_error_ops(token, n))


def _parse_mask(text: str, n: int) -> int:
    if set(text) <= {"0", "1"} and len(text) == n:
        return int(text, 2)
    try:
        value = int(text, 0)
    except ValueError:
        raise _UsageError(
            f"mask {text!r} is neither an {n}-bit 0/1 string nor an integer"
        )
    if not 0 <= value < (1 << n):
        raise _UsageError(f"mask {value} out of range for {n} qubits")
    return value


# the separator between output lines, per --output
_SEPARATOR = {"human": "\n  ", "structured": "\n"}


def _emit(lines: list[str], args, title: str) -> None:
    sep = _SEPARATOR[args.output]
    if args.output == "human":
        print(sep.join([title, *lines]))
    elif lines:
        print(sep.join(lines))


def _table_lines(table, heads, columns, sep: str) -> list[str]:
    """An ``(ids, values)`` table as ``_emit`` lines, one string per row that
    ``sep`` joins: entry ``(s, t)`` reads ``heads[s] + columns[t] +
    str(values[ids[s, t]])``.  Each distinct id is rendered once and each
    distinct row of ids gets one list of ``column + text`` tails."""
    ids, values = table
    text = {k: str(values[k]) for k in set(ids.ravel().tolist())}
    rows = list(map(tuple, ids.tolist()))
    tails = {row: [col + text[k] for col, k in zip(columns, row)] for row in set(rows)}
    return [head + (sep + head).join(tails[row]) for head, row in zip(heads, rows)]


def _cmd_verify(args) -> int:
    """``verify_kl`` on the Gram of ``_load_gram``."""
    code, G = _load_gram(args)
    report = klverify._report(G, _resolve_tol(code.mode, args.tol), args.strict)
    _emit(report.to_lines(), args, f"verify {code.label}")
    return 0 if report.correctable else 1


def _cmd_dmatrix(args) -> int:
    """``verify_kl`` on the Gram of ``_load_gram``; when correctable, D and
    its blocks."""
    code, G = _load_gram(args)
    report = klverify._report(G, _resolve_tol(code.mode, args.tol))
    if not report.correctable:
        _emit(report.to_lines(), args, f"dmatrix {code.label}")
        return 1
    d = report.d_matrix
    # a float D has one id per distinct image pair: 0.0 == -0.0 prints "0" and "-0"
    heads = [f"d[{label}," for label in d.labels]
    columns = [f"{label}]: " for label in d.labels]
    rows = _table_lines(d.table, heads, columns, _SEPARATOR[args.output])
    lines = [f"size: {d.size}", *rows, *klverify.d_blocks(d).to_lines()]
    _emit(lines, args, f"dmatrix {code.label}")
    return 0


def _cmd_gram(args) -> int:
    """Every entry of the Gram of ``_load_gram``."""
    code, tensor = _load_gram(args)
    # rows and columns x = p * num_words + i, the order of tensor.which
    images = [(label, i) for label in tensor.errors.labels for i in range(tensor.num_words)]
    heads = [f"g[{label} w{i}, " for label, i in images]
    columns = [f"{label} w{i}]: " for label, i in images]
    table = _block(tensor.table, tensor.which, tensor.values)
    lines = _table_lines(table, heads, columns, _SEPARATOR[args.output])
    _emit(lines, args, f"gram {code.label}")
    return 0


def _cmd_stab_check(args) -> int:
    code, _ = _load_code(args)
    if args.witness is not None:
        a = _parse_mask(args.witness[0], code.n)
        b = _parse_mask(args.witness[1], code.n)
        witness = stabcheck.eigenvector_witness(
            code, PauliString(code.n, a, b, 0)
        )
        _emit(witness.to_lines(), args, f"witness {code.label}")
        return 1 if witness.kind == "stabilizes" else 0
    report = stabcheck.stabilizer_scan(code)
    _emit(report.to_lines(), args, f"stab-check {code.label}")
    return 1 if report.is_nontrivially_stabilized else 0


def _parse_weights(text: str) -> frozenset[int]:
    try:
        return frozenset(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise _UsageError(f"bad weight list {text!r}; expected e.g. 0,6")


def _parse_families(text: str) -> tuple[str, ...]:
    fams = tuple(tok.strip() for tok in text.split("+") if tok.strip())
    if not fams:
        raise _UsageError("at least one error family is required")
    return fams


def _cmd_search(args) -> int:
    pattern = codesearch.SupportPattern(
        args.n, _parse_weights(args.support0), _parse_weights(args.support1)
    )
    result = codesearch.solve_coefficients(pattern, _parse_families(args.families))
    _emit(result.to_lines(), args, f"search {pattern.describe()}")
    return 0 if result.feasible else 1


def _cmd_survey(args) -> int:
    results = codesearch.survey_patterns(
        args.n, max_weights=args.max_weights, families=_parse_families(args.families)
    )
    lines = [f"patterns: {len(results)}"]
    feasible = 0
    for result in results:
        feasible += result.feasible
        lines.extend(result.to_lines())
    lines.append(f"feasible-count: {feasible}")
    _emit(lines, args, f"survey n={args.n}")
    return 0


def _cmd_demo_shor(args) -> int:
    seed = 0 if args.seed is None else args.seed
    report = klverify.shor_exchange_demo(seed=seed, samples=args.samples)
    _emit(report.to_lines(), args, "demo-shor")
    return 0


def _cmd_bounds(args) -> int:
    report = klverify.dimension_bound(args.scenario, n=args.n)
    _emit(report.to_lines(), args, f"bounds {args.scenario}")
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "dmatrix": _cmd_dmatrix,
    "gram": _cmd_gram,
    "stab-check": _cmd_stab_check,
    "search": _cmd_search,
    "survey": _cmd_survey,
    "demo-shor": _cmd_demo_shor,
    "bounds": _cmd_bounds,
}


# each global option that only some commands read, and those commands
_READERS = {
    "mode": ("verify", "dmatrix", "gram", "stab-check"),
    "tol": ("verify", "dmatrix"),
    "seed": ("demo-shor",),
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for option, readers in _READERS.items():
            if getattr(args, option) is not None and args.command not in readers:
                *rest, last = readers
                names, verb = (f"{', '.join(rest)} and {last}", "read") if rest else (last, "reads")
                raise _UsageError(
                    f"--{option} has no effect on {args.command}; only {names} {verb} it"
                )
        _resolve_tol(args.mode or "exact", args.tol)
        return _COMMANDS[args.command](args)
    except (_UsageError, CodeParseError, ValueError, ScanTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    entry()
