"""Tiny exact linear algebra helpers: rational elimination, rank and solve."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Sequence

__all__ = ["rational_rank", "solve_rational", "surd_rank"]


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


def _prime_factors(r: int) -> set[int]:
    primes, p = set(), 2
    while p * p <= r:
        while r % p == 0:
            primes.add(p)
            r //= p
        p += 1
    return primes | ({r} if r > 1 else set())


def surd_rank(matrix: Sequence[Sequence[Sequence[tuple[int, Fraction, Fraction]]]]) -> int:
    """Exact rank of a matrix whose entries are sums of ``(re + im*i) sqrt(r)``.

    Each entry is a sequence of ``(r, re, im)`` terms with squarefree r.  The
    entries lie in K = Q(i, sqrt(p) for each prime p dividing some r), with
    i left out when every ``im`` is 0; its basis is ``i**a sqrt(t)`` for t
    a product of those primes.  Multiplying by an entry is a Q-linear map
    of K, so the matrix acts on K**cols as a rational matrix ``deg`` times
    larger (its regular representation), whose rank is ``deg`` times the
    rank over K.  A rational matrix has ``deg`` 1.
    """
    terms = [part for row in matrix for entry in row for part in entry]
    primes = sorted(set().union(*map(_prime_factors, {r for r, _, _ in terms})))
    units = range(2 if any(im for _, _, im in terms) else 1)
    basis = [
        (math.prod(c), a) for a in units
        for k in range(len(primes) + 1) for c in combinations(primes, k)
    ]
    index = {b: pos for pos, b in enumerate(basis)}
    deg, ncols = len(basis), len(matrix[0]) if matrix else 0
    rows = [[Fraction(0)] * (deg * ncols) for _ in range(deg * len(matrix))]
    for p, row in enumerate(matrix):
        for q, entry in enumerate(row):
            for b, (t, a) in enumerate(basis):
                col = q * deg + b
                for r, re, im in entry:  # (re + im i) sqrt(r) * i**a sqrt(t)
                    g = math.gcd(r, t)
                    u = r * t // (g * g)
                    re, im = (-im * g, re * g) if a else (re * g, im * g)
                    rows[p * deg + index[(u, 0)]][col] += re
                    if im:
                        rows[p * deg + index[(u, 1)]][col] += im
    return rational_rank(rows) // deg


def solve_rational(
    matrix: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction]
) -> tuple[str, list[Fraction] | None, list[int]]:
    """Solve ``A x = b`` exactly: int or Fraction entries, a Fraction solution.

    Returns ``(status, solution, free_columns)`` where status is one of
    ``"unique"``, ``"underdetermined"`` (solution is one particular point
    with free columns set to zero) or ``"inconsistent"`` (solution None).
    Back substitution on ``_eliminate``'s integer rows keeps integer
    numerators over one common denominator, reduced by gcd after each
    pivot, and builds one ``Fraction`` per variable at the end.
    """
    ncols = len(matrix[0]) if matrix else 0
    rows, pivots = _eliminate([list(r) + [b] for r, b in zip(matrix, rhs)], ncols)
    if any(row[ncols] != 0 for row in rows[len(pivots):]):
        return "inconsistent", None, []
    free = [c for c in range(ncols) if c not in pivots]
    den, nums = 1, [0] * ncols  # x[c] = nums[c] / den
    for row, col in reversed(list(zip(rows, pivots))):
        pv = row[col]
        num = row[ncols] * den - sum(row[c] * nums[c] for c in range(col + 1, ncols))
        nums = [x * abs(pv) for x in nums]
        nums[col] = num if pv > 0 else -num
        den *= abs(pv)
        g = math.gcd(den, *nums)
        if g > 1:
            den, nums = den // g, [x // g for x in nums]
    status = "unique" if not free else "underdetermined"
    return status, [Fraction(x, den) for x in nums], free
