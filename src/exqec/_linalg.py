"""Tiny exact linear algebra helpers: rational elimination, rank and solve,
and every basic solution of a system from one elimination."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .qstate import surd_product

__all__ = ["basic_solutions", "rational_rank", "solve_rational", "surd_rank"]


def _eliminate(
    matrix: Sequence[Sequence[int | Fraction]], ncols: int
) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form of the first ``ncols`` columns.

    Each row is first scaled to integers by its common denominator.  A row
    with a nonzero entry under a pivot becomes ``pv*row - f*top``, divided
    by the gcd of its entries; rows with a zero there are left alone, which
    keeps sparse matrices cheap, and no ``Fraction`` is built.  Returns the
    integer rows, pivot rows first, and the pivot column of each; it stops
    once every row holds a pivot.
    """
    rows = []
    for r in matrix:
        den = math.lcm(*(x.denominator for x in r))
        rows.append([x.numerator * (den // x.denominator) for x in r])
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        pv = top[col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                row = [pv * a - f * b for a, b in zip(rows[r], top)]
                g = math.gcd(*row)
                rows[r] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
    return rows, pivots


def rational_rank(matrix: Sequence[Sequence[int | Fraction]]) -> int:
    """Exact rank of a matrix of ints or Fractions by Gaussian elimination."""
    ncols = len(matrix[0]) if matrix else 0
    return len(_eliminate(matrix, ncols)[1])


def surd_rank(matrix: Sequence[Sequence[Sequence[tuple[int, Fraction, Fraction]]]]) -> int:
    """Exact rank of a matrix whose entries are sums of ``(re + im*i) sqrt(r)``.

    Each entry is a sequence of ``(r, re, im)`` terms with squarefree r.  The
    entries lie in K = Q(i, sqrt(r) for each such r), with i left out when
    every ``im`` is 0.  Its basis is ``i**a sqrt(t)``, t running over the
    closure of {1} and the radicands under ``r s / gcd(r, s)**2``: surds of
    distinct squarefree t are independent, and that closure holds every
    product of two of them.  Multiplying by an entry is a Q-linear map of
    K, so the matrix acts on K**cols as a rational matrix ``deg`` times
    larger (its regular representation), whose rank is ``deg`` times the
    rank over K.  A rational matrix has ``deg`` 1.  A 1x1 matrix has rank 1
    exactly when its entry is nonzero, that is when the terms of some
    radicand do not add up to zero.
    """
    if len(matrix) == 1 and len(matrix[0]) == 1:
        sums: dict[int, list] = {}
        for r, re, im in matrix[0][0]:
            slot = sums.setdefault(r, [0, 0])
            slot[0] += re
            slot[1] += im
        return int(any(re or im for re, im in sums.values()))
    terms = [part for row in matrix for entry in row for part in entry]
    closure = {1}
    for r in {r for r, _, _ in terms}:
        closure |= {surd_product(r, t)[1] for t in closure}
    units = range(2 if any(im for _, _, im in terms) else 1)
    basis = [(t, a) for a in units for t in sorted(closure)]
    index = {b: pos for pos, b in enumerate(basis)}
    deg, ncols = len(basis), len(matrix[0]) if matrix else 0
    rows = [[Fraction(0)] * (deg * ncols) for _ in range(deg * len(matrix))]
    for p, row in enumerate(matrix):
        for q, entry in enumerate(row):
            for b, (t, a) in enumerate(basis):
                col = q * deg + b
                for r, re, im in entry:  # (re + im i) sqrt(r) * i**a sqrt(t)
                    g, u = surd_product(r, t)
                    if g > 1:
                        re, im = re * g, im * g
                    if a:
                        re, im = -im, re
                    rows[p * deg + index[(u, 0)]][col] += re
                    if im:
                        rows[p * deg + index[(u, 1)]][col] += im
    return rational_rank(rows) // deg


def _reduced(
    matrix: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction]
) -> tuple[list[list[int]], list[int]] | None:
    """Integer reduced echelon form of ``[A | b]`` from one ``_eliminate``:
    the pivot rows, each zero in every other pivot column, and their pivot
    columns; None when ``A x = b`` is inconsistent."""
    ncols = len(matrix[0]) if matrix else 0
    rows, pivots = _eliminate([list(r) + [b] for r, b in zip(matrix, rhs)], ncols)
    if any(row[ncols] for row in rows[len(pivots):]):
        return None
    rows = rows[:len(pivots)]
    for i in reversed(range(len(pivots))):
        top, col = rows[i], pivots[i]
        for j in range(i):
            f = rows[j][col]
            if f:
                row = [top[col] * a - f * b for a, b in zip(rows[j], top)]
                g = math.gcd(*row)
                rows[j] = [x // g for x in row] if g > 1 else row
    return rows, pivots


def solve_rational(
    matrix: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction]
) -> tuple[str, list[Fraction] | None, list[int]]:
    """Solve ``A x = b`` exactly: int or Fraction entries, a Fraction solution.

    Returns ``(status, solution, free_columns)`` where status is one of
    ``"unique"``, ``"underdetermined"`` (solution is one particular point
    with free columns set to zero) or ``"inconsistent"`` (solution None).
    Each pivot variable is read off its row of ``_reduced``.
    """
    ncols = len(matrix[0]) if matrix else 0
    reduced = _reduced(matrix, rhs)
    if reduced is None:
        return "inconsistent", None, []
    solution = [Fraction(0)] * ncols
    for row, col in zip(*reduced):
        solution[col] = Fraction(row[ncols], row[col])
    free = [c for c in range(ncols) if c not in reduced[1]]
    return ("unique" if not free else "underdetermined"), solution, free


def _bareiss(rows: list[list[int]]) -> tuple[list[int], int] | None:
    """Fraction-free Gauss-Jordan (every division exact) on a square integer
    system ``[M | c]``: ``(y, det)`` with ``M y = det c`` and ``det`` = ±det M,
    or None when M is singular."""
    prev = 1
    for k in range(len(rows)):
        pivot = next((r for r in range(k, len(rows)) if rows[r][k]), None)
        if pivot is None:
            return None
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        for r, row in enumerate(rows):
            if r != k:
                rows[r] = [(top[k] * a - row[k] * b) // prev for a, b in zip(row, top)]
        prev = top[k]
    return [row[-1] for row in rows], prev


def basic_solutions(
    matrix: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction]
) -> tuple[list[int], list[tuple[list[int], int]]] | None:
    """Every basic solution of ``A x = b`` from one elimination.

    None when the system is inconsistent; else the free columns and, for
    each ``combinations(range(ncols), rank)`` column subset that is a basis,
    in that order, the solution with every other column zero as integer
    numerators over one positive denominator.  The ``_reduced`` rows whose
    pivot a subset drops must be met by its kept free columns alone: that
    square system (at most ``len(free)`` rows) goes to ``_bareiss``, and is
    singular exactly when the subset is not a basis.  Each kept pivot is
    then read off its own row.  The pivot rows are indexed by pivot column
    once, so a subset finds its free columns, dropped rows and held pivots
    by lookup.
    """
    ncols = len(matrix[0]) if matrix else 0
    reduced = _reduced(matrix, rhs)
    if reduced is None:
        return None
    rows, pivots = reduced
    row_of = dict(zip(pivots, rows))
    free = [c for c in range(ncols) if c not in row_of]
    solutions = []
    for kept in combinations(range(ncols), len(pivots)):
        cols = [c for c in kept if c not in row_of]
        keep = set(kept)
        solved = _bareiss([
            [row[c] for c in cols] + [row[ncols]] for p, row in row_of.items() if p not in keep
        ])
        if solved is None:
            continue
        y, det = solved  # x_c = y_c / det on the kept free columns
        held = [(row_of[p], p) for p in kept if p in row_of]
        den = abs(det) * math.lcm(*[row[p] for row, p in held])
        nums = [0] * ncols
        for c, yc in zip(cols, y):
            nums[c] = yc * den // det
        for row, p in held:  # row[p] x_p = b - sum row[c] x_c
            num = row[ncols] * det - sum([row[c] * yc for c, yc in zip(cols, y)])
            nums[p] = num * den // (row[p] * det)
        solutions.append((nums, den))
    return free, solutions
