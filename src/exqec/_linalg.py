"""Tiny exact linear algebra helpers: rational elimination, rank and solve."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

__all__ = ["rational_rank", "solve_rational"]


def _eliminate(
    matrix: Sequence[Sequence[Fraction]], ncols: int
) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan elimination of the first ``ncols`` columns.

    Returns the reduced rows and the pivot column of each leading row; it
    stops once every row holds a pivot.
    """
    rows = [list(r) for r in matrix]
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
    return rows, pivots


def rational_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of a matrix of Fractions by Gaussian elimination."""
    ncols = len(matrix[0]) if matrix else 0
    return len(_eliminate(matrix, ncols)[1])


def solve_rational(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[str, list[Fraction] | None, list[int]]:
    """Solve ``A x = b`` exactly.

    Returns ``(status, solution, free_columns)`` where status is one of
    ``"unique"``, ``"underdetermined"`` (solution is one particular point
    with free columns set to zero) or ``"inconsistent"`` (solution None).
    """
    ncols = len(matrix[0]) if matrix else 0
    rows, pivots = _eliminate([list(r) + [b] for r, b in zip(matrix, rhs)], ncols)
    if any(row[ncols] != 0 for row in rows[len(pivots):]):
        return "inconsistent", None, []
    free = [c for c in range(ncols) if c not in pivots]
    solution = [Fraction(0)] * ncols
    for row, col in zip(rows, pivots):
        solution[col] = row[ncols]
    status = "unique" if not free else "underdetermined"
    return status, solution, free
