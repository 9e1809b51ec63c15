from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from exqec._linalg import rational_rank, solve_rational


@st.composite
def _system(draw):
    """A small integer system ``A x = b``; numpy's float rank is exact here."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    matrix = draw(
        st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    rhs = draw(st.lists(entry, min_size=rows, max_size=rows))
    return matrix, rhs


def _fractions(matrix):
    return [[Fraction(x) for x in row] for row in matrix]


@settings(max_examples=200, deadline=None)
@given(_system())
def test_rational_rank_matches_numpy(system):
    matrix, _ = system
    assert rational_rank(_fractions(matrix)) == np.linalg.matrix_rank(np.array(matrix))


@settings(max_examples=200, deadline=None)
@given(_system())
def test_solve_rational_is_exact(system):
    matrix, rhs = system
    status, solution, free = solve_rational(_fractions(matrix), [Fraction(b) for b in rhs])
    rank = np.linalg.matrix_rank(np.array(matrix))
    augmented = np.linalg.matrix_rank(np.column_stack([matrix, rhs]))
    assert (status == "inconsistent") == (augmented > rank)
    if status == "inconsistent":
        assert solution is None
        return
    for row, b in zip(matrix, rhs):
        assert sum(a * x for a, x in zip(row, solution)) == b
    assert len(free) == len(matrix[0]) - rank
    assert status == ("unique" if not free else "underdetermined")
    assert all(solution[c] == 0 for c in free)


@settings(max_examples=200, deadline=None)
@given(_system(), st.lists(st.integers(1, 12), min_size=5, max_size=5))
def test_row_denominators_change_nothing(system, dens):
    """Elimination scales each row to integers first; dividing row i of
    ``A x = b`` by ``dens[i]`` keeps the rank and the solution."""
    matrix, rhs = system
    scaled = [[Fraction(a, d) for a in row] for row, d in zip(matrix, dens)]
    scaled_rhs = [Fraction(b, d) for b, d in zip(rhs, dens)]
    assert rational_rank(scaled) == rational_rank(_fractions(matrix))
    assert solve_rational(scaled, scaled_rhs) == solve_rational(
        _fractions(matrix), [Fraction(b) for b in rhs]
    )


@settings(max_examples=200, deadline=None)
@given(_system())
def test_int_and_fraction_entries_agree(system):
    """The same matrix as ints and as Fractions has one rank and one
    solution, and the solution's entries are Fractions either way."""
    matrix, rhs = system
    assert rational_rank(matrix) == rational_rank(_fractions(matrix))
    got = solve_rational(matrix, rhs)
    assert got == solve_rational(_fractions(matrix), [Fraction(b) for b in rhs])
    assert got[1] is None or all(type(x) is Fraction for x in got[1])


def test_rational_rank_of_empty_matrix_is_zero():
    assert rational_rank([]) == 0
