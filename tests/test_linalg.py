from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exqec._linalg import basic_solutions, rational_rank, solve_rational, surd_rank


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


def _regular_rank(entry):
    """The rank of the 1x1 matrix ``[[entry]]`` through the regular
    representation: a zero row below it keeps the rank and takes the
    general path."""
    return surd_rank([[entry], [[]]])


@pytest.mark.parametrize(
    "entry, rank",
    [
        ([], 0),
        ([(1, 1, 0), (1, -1, 0)], 0),
        ([(7, 2, 0), (3, 0, 1), (7, -2, 0)], 1),
        ([(7, 2, 0), (7, -2, 0)], 0),
        ([(7, 2, 0), (1, -2, 0)], 1),  # 2 sqrt(7) - 2 is not zero
        ([(1, 1, 1), (1, -1, 0), (1, 0, -1)], 0),
        ([(1, 0, 1), (7, 0, -1)], 1),
        ([(2, Fraction(1, 3), 0), (2, Fraction(-2, 6), 0), (3, 0, 0)], 0),
    ],
)
def test_one_by_one_surd_rank_adds_each_radicand_first(entry, rank):
    """A 1x1 entry's terms may repeat a radicand, as ``A + (n-1) B`` does
    in the S_n split: they are added per radicand before the zero test."""
    entry = [(r, Fraction(re), Fraction(im)) for r, re, im in entry]
    assert surd_rank([[entry]]) == _regular_rank(entry) == rank


_TERM = st.tuples(st.sampled_from((1, 2, 3, 7)), st.integers(-2, 2), st.integers(-2, 2))


@settings(max_examples=150, deadline=None)
@given(st.lists(_TERM, max_size=4), st.lists(_TERM, max_size=4), st.booleans())
def test_one_by_one_surd_rank_matches_the_regular_representation(terms, more, cancel):
    """Drawn term lists, with their own negations mixed in when ``cancel``
    so that radicands repeat and some entries add up to zero."""
    if cancel:
        more = more + [(r, -re, -im) for r, re, im in terms]
    entry = [(r, Fraction(re), Fraction(im)) for r, re, im in terms + more]
    assert surd_rank([[entry]]) == _regular_rank(entry)


_BIG = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(10**7), 10**7))


@st.composite
def _binomial_system(draw):
    """``A x = b`` with binomial-sized entries as Fraction rows: each row
    over its own denominator, and sometimes a last row that combines two
    others (its right-hand side nudged or not), so dependent and
    inconsistent systems come up."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    matrix = [draw(st.lists(_BIG, min_size=cols + 1, max_size=cols + 1)) for _ in range(rows)]
    if rows >= 2 and draw(st.booleans()):
        f, g = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
        nudge = draw(st.sampled_from([0, 0, 1]))
        combo = [f * a + g * b for a, b in zip(matrix[0], matrix[1])]
        matrix.append(combo[:-1] + [combo[-1] + nudge])
    dens = draw(st.lists(st.integers(1, 10**4), min_size=len(matrix), max_size=len(matrix)))
    fractions = [[Fraction(x, d) for x in row] for row, d in zip(matrix, dens)]
    return [row[:-1] for row in fractions], [row[-1] for row in fractions]


def _fraction_oracle(matrix, rhs):
    """Plain Fraction Gauss-Jordan elimination, then the pivot columns read
    off with every free column at zero."""
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    ncols = len(matrix[0])
    pivots = []
    for col in range(ncols):
        r = next((r for r in range(len(pivots), len(rows)) if rows[r][col]), None)
        if r is None:
            continue
        top = len(pivots)
        rows[top], rows[r] = rows[r], rows[top]
        rows[top] = [x / rows[top][col] for x in rows[top]]
        for k in range(len(rows)):
            if k != top and rows[k][col]:
                f = rows[k][col]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[top])]
        pivots.append(col)
    if any(row[ncols] for row in rows[len(pivots):]):
        return "inconsistent", None, []
    solution = [Fraction(0)] * ncols
    for row, col in zip(rows, pivots):
        solution[col] = row[ncols]
    free = [c for c in range(ncols) if c not in pivots]
    return ("unique" if not free else "underdetermined"), solution, free


@settings(max_examples=300, deadline=None)
@given(_binomial_system())
def test_solve_rational_matches_a_fraction_oracle_on_large_entries(system):
    """Entries up to 10**7 over row denominators up to 10**4 make the
    numerators share large factors, so the common-denominator back
    substitution has to reduce by gcd to give the oracle's Fractions."""
    matrix, rhs = system
    got = solve_rational(matrix, rhs)
    assert got == _fraction_oracle(matrix, rhs)
    status, solution, free = got
    if solution is not None:
        assert all(solution[c] == 0 for c in free)
        for row, b in zip(matrix, rhs):
            assert sum(a * x for a, x in zip(row, solution)) == b


@st.composite
def _basis_system(draw):
    """``A x = b`` with up to 8 columns: random rows, then sometimes a
    repeated row, a combination of two rows (its right-hand side nudged or
    not) or zero columns, so rank-deficient, repeated-row and inconsistent
    systems all come up."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.integers(-4, 4), st.integers(-(10**4), 10**4))
    matrix = [draw(st.lists(entry, min_size=cols + 1, max_size=cols + 1)) for _ in range(rows)]
    if draw(st.booleans()):
        matrix.append(list(draw(st.sampled_from(matrix))))
    if rows >= 2 and draw(st.booleans()):
        f, g = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        combo = [f * a + g * b for a, b in zip(matrix[0], matrix[1])]
        matrix.append(combo[:-1] + [combo[-1] + draw(st.sampled_from([0, 0, 1]))])
    for c in draw(st.lists(st.integers(0, cols - 1), max_size=3)):
        for row in matrix:
            row[c] = 0
    return [row[:-1] for row in matrix], [row[-1] for row in matrix]


def _per_subset_oracle(matrix, rhs):
    """The basic solutions from one ``solve_rational`` per column subset: each
    ``rank``-subset whose system has a unique solution, that solution with
    every other column at zero."""
    status, _, free = solve_rational(matrix, rhs)
    if status == "inconsistent":
        return None
    d = len(matrix[0])
    basics = []
    for kept in combinations(range(d), d - len(free)):
        found, part, _ = solve_rational([[row[p] for p in kept] for row in matrix], rhs)
        if found == "unique":
            basics.append([part[kept.index(p)] if p in kept else Fraction(0) for p in range(d)])
    return free, basics


@settings(max_examples=400, deadline=None)
@given(_basis_system())
def test_basic_solutions_match_one_solve_per_column_subset(system):
    matrix, rhs = system
    got = basic_solutions(matrix, rhs)
    want = _per_subset_oracle(matrix, rhs)
    if want is None:
        assert got is None
        return
    free, basics = got
    assert free == want[0]
    assert all(den > 0 for _, den in basics)
    assert [[Fraction(x, den) for x in nums] for nums, den in basics] == want[1]
    for nums, den in basics:
        for row, b in zip(matrix, rhs):
            assert sum(a * x for a, x in zip(row, nums)) == b * den
