from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exqec.errors import DimensionMismatch, ExactArithmeticError
from exqec.qstate import (
    AMP_ONE,
    AMP_ZERO,
    Amplitude,
    BasisState,
    InnerProductValue,
    QubitPermutation,
    StateVector,
    apply_permutation,
    inner_product,
    orbit_sum,
    parse_ket,
    squarefree_split,
    surd_product,
)


# ---------------------------------------------------------------- amplitudes


def test_squarefree_split_examples():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(28) == (2, 7)
    assert squarefree_split(784) == (28, 1)
    assert squarefree_split(12) == (2, 3)
    with pytest.raises(ValueError):
        squarefree_split(0)


@given(st.integers(min_value=1, max_value=100_000))
def test_squarefree_split_reconstructs(r):
    s, t = squarefree_split(r)
    assert s * s * t == r
    # t has no square divisor
    d = 2
    while d * d <= t:
        assert t % (d * d) != 0
        d += 1


_squarefree = st.integers(min_value=1, max_value=10_000).map(lambda x: squarefree_split(x)[1])


@given(_squarefree, _squarefree)
def test_surd_product_matches_the_split_of_the_product(r, s):
    """``sqrt(r) sqrt(s) = g sqrt(t)`` by gcd alone, as trial division of
    ``r s`` gives it; ``Amplitude.__mul__`` takes that rule."""
    assert surd_product(r, s) == squarefree_split(r * s)
    product = Amplitude.make(Fraction(1, 3), 2, r) * Amplitude.make(-1, Fraction(1, 2), s)
    assert product == Amplitude.make(Fraction(-4, 3), Fraction(-11, 6), r * s)


def test_make_normalizes_radicand():
    a = Amplitude.make(Fraction(1, 28), 0, 28)
    assert a.radicand == 7
    assert a.re == Fraction(1, 14)
    assert math.isclose(abs(a.to_complex()) ** 2, Fraction(1, 28))


def test_make_zero_collapses():
    assert Amplitude.make(0, 0, 28) is AMP_ZERO
    assert AMP_ZERO.is_zero()


def test_times_i_cycles():
    a = Amplitude.make(Fraction(2, 3), Fraction(1, 5), 7)
    cycled = a.times_i(1).times_i(1).times_i(1).times_i(1)
    assert cycled == a
    assert a.times_i(2) == -a
    assert a.times_i(1).to_complex() == pytest.approx(1j * a.to_complex())


amplitudes = st.builds(
    Amplitude.make,
    st.fractions(min_value=-5, max_value=5, max_denominator=30),
    st.fractions(min_value=-5, max_value=5, max_denominator=30),
    st.integers(min_value=1, max_value=50),
)


@given(amplitudes, amplitudes)
def test_multiplication_matches_complex(a, b):
    assert (a * b).to_complex() == pytest.approx(a.to_complex() * b.to_complex())


@given(amplitudes)
def test_conjugate_involution(a):
    assert a.conjugate().conjugate() == a
    assert a.conjugate().to_complex() == pytest.approx(a.to_complex().conjugate())


def test_addition_requires_matching_radicand():
    a = Amplitude.make(1, 0, 2)
    b = Amplitude.make(1, 0, 3)
    with pytest.raises(ExactArithmeticError):
        a + b
    assert (a + AMP_ZERO) == a
    assert (a + a).re == 2


def test_scaled_by_fraction():
    a = Amplitude.make(Fraction(1, 2), 0, 7)
    assert a.scaled(Fraction(2, 3)).re == Fraction(1, 3)
    assert a.scaled(-1) == -a


# ----------------------------------------------------- inner-product values


def test_inner_product_value_rational_rendering():
    v = InnerProductValue.exact_rational(Fraction(3, 2))
    assert str(v) == "3/2"
    assert v.as_fraction() == Fraction(3, 2)
    assert v.is_exact and not v.is_exact_zero()


def test_inner_product_value_surd():
    v = InnerProductValue.exact({7: (Fraction(1, 14), Fraction(0))})
    assert "sqrt(7)" in str(v)
    with pytest.raises(ValueError):
        v.as_fraction()
    assert v.float_view == pytest.approx(math.sqrt(7) / 14)


def test_inner_product_value_sub_and_magnitude():
    a = InnerProductValue.exact_rational(Fraction(3))
    b = InnerProductValue.exact_rational(Fraction(1))
    assert a.sub(b).as_fraction() == 2
    assert a.sub(a).is_exact_zero()
    assert a.magnitude() == 3.0


# --------------------------------------------------------------- basis kets


def test_basis_state_conventions():
    # qubit 1 is the leftmost (most significant) position
    s = parse_ket("|100000000>")
    assert s.n == 9
    assert s.index == 1 << 8
    assert s.bit(1) == 1 and s.bit(9) == 0
    assert s.weight == 1
    assert s.ket() == "|100000000>"


def test_parse_ket_ignores_spaces():
    assert parse_ket("|111 111 000>") == parse_ket("|111111000>")
    with pytest.raises(ValueError):
        parse_ket("111000")
    with pytest.raises(ValueError):
        parse_ket("|10a>")


def test_basis_state_validation():
    with pytest.raises(DimensionMismatch):
        BasisState(0, 0)
    with pytest.raises(DimensionMismatch):
        BasisState(2, 4)


# ------------------------------------------------------------- state vectors


def test_state_vector_addition_and_scaling():
    v = StateVector.basis(2, 0) + StateVector.basis(2, 3).scaled(Fraction(1, 2))
    assert v.mode == "exact"
    assert v.terms[0] == AMP_ONE
    assert v.terms[3].re == Fraction(1, 2)
    assert v.norm2().as_fraction() == Fraction(5, 4)
    assert (v - v).is_zero()


def test_state_vector_drops_cancelled_terms():
    v = StateVector.basis(3, 5)
    assert (v + v.scaled(-1)).support() == frozenset()


def test_complement_flips_all_bits():
    v = StateVector.basis(3, 0b110)
    assert v.complement().support() == frozenset({0b001})


def test_orbit_sum_counts():
    assert len(orbit_sum(9, 6).terms) == 84
    assert orbit_sum(9, 6).norm2().as_fraction() == 84
    assert orbit_sum(5, 2).support() == frozenset(
        i for i in range(32) if bin(i).count("1") == 2
    )
    assert orbit_sum(4, 0).support() == frozenset({0})
    with pytest.raises(ValueError):
        orbit_sum(4, 5)


def test_orbit_sum_fixed_by_transpositions():
    v = orbit_sum(5, 2)
    for j in range(1, 6):
        for k in range(j + 1, 6):
            p = QubitPermutation.transposition(5, j, k)
            assert apply_permutation(v, p) == v


def test_permutation_compose_and_inverse():
    p = QubitPermutation((2, 3, 1))  # qubit 1 -> position 2, etc.
    q = p.compose(p)
    assert q.compose(p).image == (1, 2, 3)
    assert p.inverse().compose(p).image == (1, 2, 3)


def test_permutations_preserve_inner_products():
    u = StateVector.basis(3, 0b011) + StateVector.basis(3, 0b101).scaled(2)
    v = StateVector.basis(3, 0b011).scaled(Fraction(1, 3))
    p = QubitPermutation((3, 1, 2))
    lhs = inner_product(apply_permutation(u, p), apply_permutation(v, p))
    rhs = inner_product(u, v)
    assert lhs.parts == rhs.parts


# ------------------------------------------------------------ inner products


def test_inner_product_is_conjugate_linear_in_left():
    u = StateVector.basis(2, 1).scaled(Amplitude.make(0, 1))  # i|01>
    v = StateVector.basis(2, 1)
    assert inner_product(u, v).as_gaussian() == (0, -1)
    assert inner_product(v, u).as_gaussian() == (0, 1)


def test_inner_product_orthogonal_supports():
    assert inner_product(StateVector.basis(2, 0), StateVector.basis(2, 3)).is_exact_zero()


@st.composite
def state_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    entry = st.tuples(st.integers(min_value=0, max_value=(1 << n) - 1), amplitudes)

    def build():
        return StateVector.from_terms(n, dict(draw(st.lists(entry, max_size=6))))

    return build(), build()


@settings(max_examples=60, deadline=None)
@given(state_pairs())
def test_exact_inner_product_matches_float(pair):
    u, v = pair
    exact = inner_product(u, v).float_view
    floaty = np.vdot(u.to_float().dense, v.to_float().dense)
    assert exact == pytest.approx(complex(floaty), abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(state_pairs())
def test_norm2_is_real_and_matches_dense(pair):
    u, _ = pair
    ip = u.norm2()
    assert ip.float_view.imag == pytest.approx(0.0, abs=1e-12)
    dense = u.to_float().dense
    assert ip.float_view.real == pytest.approx(
        float(np.vdot(dense, dense).real), abs=1e-10
    )


def test_float_mode_round_trip():
    v = orbit_sum(6, 3)
    f = v.to_float()
    assert f.mode == "float"
    assert np.count_nonzero(f.dense) == 20
    g = StateVector.from_dense(6, f.dense)
    assert g == f
