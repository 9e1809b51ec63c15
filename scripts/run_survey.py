#!/usr/bin/env python3
"""Sweep all complement-dual weight patterns for an n-qubit register.

Each pattern assigns Hamming-weight supports to the two codewords; the
solver decides feasibility exactly (sign-definite certificates, linear
systems in the squared coefficients, exact sign checks) and labels a row
it cannot decide ``undecided``.  Feasible rows mean a genuine correctable
code: each has passed the exact gate, the correctability condition at
tolerance 0 on the words' weight -> amplitude maps (exchanges fix such
words, so they need no check), and every infeasible row carries an exact
certificate.
"""

from __future__ import annotations

import argparse
import sys

from exqec import survey_patterns


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=7)
    parser.add_argument("--max-weights", type=int, default=3)
    parser.add_argument(
        "--families", default="single_pauli",
        help="error families joined by '+', e.g. single_pauli+exchange",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="print full solver notes per pattern")
    args = parser.parse_args()

    families = tuple(f for f in args.families.split("+") if f)
    try:
        if not families:
            raise ValueError("at least one error family is required")
        results = survey_patterns(args.n, max_weights=args.max_weights, families=families)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    feasible = undecided = 0
    for result in results:
        feasible += result.feasible
        undecided += result.method == "undecided"
        if result.feasible:
            mark = "FEASIBLE"
        else:
            mark = "undecided" if result.method == "undecided" else "infeasible"
        print(f"{result.pattern.describe():48} {mark:10} [{result.method}]")
        if args.verbose:
            for line in result.to_lines():
                print("    " + line)
    print(f"\n{len(results)} patterns, {feasible} feasible, {undecided} undecided")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
