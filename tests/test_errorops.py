"""Error operators checked against independent dense-matrix oracles."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exqec.errors import DimensionMismatch
from exqec.errorops import (
    Composition,
    ErrorOperator,
    ErrorSet,
    ExchangeOp,
    IdentityOp,
    PauliString,
    PermutationOp,
    basic_error_set,
    parse_error_ops,
    qubit_mask,
)
from exqec.qstate import Amplitude, QubitPermutation, StateVector, orbit_sum

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1.0 + 0j, -1.0])
_Y = np.array([[0, -1j], [1j, 0]])


def pauli_matrix(ps: PauliString) -> np.ndarray:
    """Dense i**phase * X(a) Z(b) built qubit by qubit (qubit 1 leftmost)."""
    m = np.eye(1, dtype=complex)
    for k in range(1, ps.n + 1):
        bit = 1 << (ps.n - k)
        q = np.eye(2, dtype=complex)
        if ps.z_mask & bit:
            q = _Z @ q
        if ps.x_mask & bit:
            q = _X @ q
        m = np.kron(m, q)
    return (1j**ps.phase) * m


def swap_matrix(n: int, j: int, k: int) -> np.ndarray:
    dim = 1 << n
    m = np.zeros((dim, dim))
    pj, pk = n - j, n - k
    for idx in range(dim):
        out = idx
        if ((idx >> pj) ^ (idx >> pk)) & 1:
            out = idx ^ ((1 << pj) | (1 << pk))
        m[out, idx] = 1.0
    return m


def permutation_matrix(n: int, image) -> np.ndarray:
    """Dense P that moves the tensor factor of qubit j to position image[j-1]."""
    axes = [0] * n
    for j, dest in enumerate(image):
        axes[dest - 1] = j
    eye = np.eye(1 << n).reshape((2,) * n + (1 << n,))
    return np.transpose(eye, axes + [n]).reshape(1 << n, 1 << n)


def operator_matrix(op: ErrorOperator) -> np.ndarray:
    """Dense i**phase X(a) Z(b) P(perm), built independently of errorops."""
    return pauli_matrix(op) @ permutation_matrix(op.n, op.perm or range(1, op.n + 1))


def random_dense(n: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    return StateVector.from_dense(
        n, rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    )


# --------------------------------------------------------------- PauliString


@pytest.mark.parametrize("kind,matrix", [("X", _X), ("Y", _Y), ("Z", _Z)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_single_pauli_matches_kron_oracle(kind, matrix, k):
    ps = PauliString.single(3, kind, k)
    expected = np.eye(1, dtype=complex)
    for pos in range(1, 4):
        expected = np.kron(expected, matrix if pos == k else np.eye(2))
    assert np.allclose(pauli_matrix(ps), expected)
    state = random_dense(3, seed=10 * k)
    assert np.allclose(ps.apply(state).dense, expected @ state.dense)


def test_from_letters_matches_oracle():
    ps = PauliString.from_letters("XZYI")
    expected = np.kron(np.kron(np.kron(_X, _Z), _Y), np.eye(2))
    assert np.allclose(pauli_matrix(ps), expected)
    assert ps.to_letters() == "XZYI"
    assert PauliString.from_letters("YY").phase == 2


pauli_strings = st.builds(
    PauliString,
    st.just(4),
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=3),
)


@settings(max_examples=80, deadline=None)
@given(pauli_strings, pauli_strings)
def test_compose_matches_matrix_product(p, q):
    assert np.allclose(
        pauli_matrix(p.compose(q)), pauli_matrix(p) @ pauli_matrix(q)
    )


@settings(max_examples=60, deadline=None)
@given(pauli_strings)
def test_inverse_cancels(p):
    ident = p.compose(p.inverse())
    assert (ident.x_mask, ident.z_mask, ident.phase) == (0, 0, 0)


@settings(max_examples=40, deadline=None)
@given(pauli_strings, st.integers(min_value=0, max_value=1 << 30))
def test_apply_exact_matches_dense(p, seed):
    state = random_dense(4, seed)
    assert np.allclose(p.apply(state).dense, pauli_matrix(p) @ state.dense)


def test_apply_exact_mode_keeps_exact_amplitudes():
    psi = StateVector.basis(2, 0b01, Amplitude.make(Fraction(1, 2), 0, 3))
    out = PauliString.single(2, "Y", 2).apply(psi)
    assert out.mode == "exact"
    # Y|1> = -i|0>
    assert out.terms[0b00].im == Fraction(-1, 2)
    assert out.terms[0b00].radicand == 3


def test_labels():
    assert PauliString.single(9, "X", 1).label() == "X1"
    assert PauliString.single(9, "Z", 9).label() == "Z9"
    assert PauliString.single(9, "Y", 4).label() == "Y4"
    assert PauliString(3, 0, 0).label() == "I"
    assert PauliString.from_letters("XZ").label() == "XZ"
    assert ExchangeOp(9, 4, 3).label() == "E(3,4)"
    assert IdentityOp(5).label() == "I"


# ---------------------------------------------------------------- ExchangeOp


@pytest.mark.parametrize("j,k", [(1, 2), (1, 3), (2, 3)])
def test_exchange_matches_swap_oracle(j, k):
    op = ExchangeOp(3, j, k)
    state = random_dense(3, seed=j * 7 + k)
    assert np.allclose(op.apply(state).dense, swap_matrix(3, j, k) @ state.dense)


def test_exchange_normalizes_order_and_validates():
    assert ExchangeOp(5, 4, 2) == ExchangeOp(5, 2, 4)
    with pytest.raises(ValueError):
        ExchangeOp(5, 3, 3)
    with pytest.raises(DimensionMismatch):
        ExchangeOp(5, 1, 6)


def test_exchange_fixes_symmetric_states():
    v = orbit_sum(6, 3)
    for j in range(1, 7):
        for k in range(j + 1, 7):
            assert ExchangeOp(6, j, k).apply(v) == v


def test_exchange_is_an_involution():
    op = ExchangeOp(4, 2, 4)
    state = random_dense(4, seed=3)
    assert np.allclose(op.apply(op.apply(state)).dense, state.dense)


# ---------------------------------------------- permutations and composition


def test_permutation_op_matches_exchange():
    swap = PermutationOp(QubitPermutation.transposition(4, 1, 3))
    state = random_dense(4, seed=11)
    assert np.allclose(
        swap.apply(state).dense, ExchangeOp(4, 1, 3).apply(state).dense
    )
    assert swap.label() == "P(3 2 1 4)"


def test_composition_applies_rightmost_first():
    x1 = PauliString.single(2, "X", 1)
    z1 = PauliString.single(2, "Z", 1)
    state = random_dense(2, seed=5)
    combo = Composition((x1, z1))  # X1 Z1: Z first
    expected = x1.apply(z1.apply(state))
    assert np.allclose(combo.apply(state).dense, expected.dense)
    assert combo.label() == "X1 Z1"
    with pytest.raises(ValueError):
        Composition(())
    with pytest.raises(DimensionMismatch):
        Composition((x1, PauliString.single(3, "X", 1)))


@st.composite
def error_operators(draw, n=None):
    if n is None:
        n = draw(st.integers(min_value=1, max_value=4))
    top = (1 << n) - 1
    return ErrorOperator(
        n,
        draw(st.integers(min_value=0, max_value=top)),
        draw(st.integers(min_value=0, max_value=top)),
        draw(st.integers(min_value=0, max_value=3)),
        tuple(draw(st.permutations(range(1, n + 1)))),
    )


operator_pairs = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(error_operators(n), error_operators(n))
)


@settings(max_examples=200, deadline=None)
@given(operator_pairs)
def test_operator_algebra_matches_dense_matrices(pair):
    a, b = pair
    ma, mb = operator_matrix(a), operator_matrix(b)
    assert np.allclose(operator_matrix(a.compose(b)), ma @ mb)
    assert np.allclose(operator_matrix(a.inverse()), ma.conj().T)
    assert (a == b) == np.allclose(ma, mb)
    if a == b:
        assert hash(a) == hash(b)
    # the same operator reached by another product compares equal
    assert a.compose(b).compose(b.inverse()) == a


@settings(max_examples=60, deadline=None)
@given(error_operators(), st.integers(min_value=0, max_value=1 << 30))
def test_apply_matches_dense_matrix(op, seed):
    matrix = operator_matrix(op)
    state = random_dense(op.n, seed)
    assert np.allclose(op.apply(state).dense, matrix @ state.dense)
    rng = np.random.default_rng(seed)
    exact = StateVector.from_terms(
        op.n,
        {
            idx: Amplitude.make(
                Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))),
                Fraction(int(rng.integers(-3, 4))),
                int(rng.choice([1, 2, 3])),
            )
            for idx in range(1 << op.n)
        },
    )
    out = op.apply(exact)
    assert out.mode == "exact"
    assert np.allclose(out.to_float().dense, matrix @ exact.to_float().dense)


def test_identity_permutation_is_normalized():
    op = PermutationOp(QubitPermutation.identity(3))
    assert op.perm == ()
    assert op == IdentityOp(3)
    assert op.label() == "P(1 2 3)"
    with pytest.raises(DimensionMismatch):
        ErrorOperator(3, 0, 0, 0, (2, 1))


def test_action_signature_identifies_equal_actions():
    """Operators of equal action compare equal, whatever their labels."""
    # E(1,2) applied twice is the identity
    e = ExchangeOp(3, 1, 2)
    assert Composition((e, e)) == IdentityOp(3)
    # an exchange equals the matching transposition permutation
    p = PermutationOp(QubitPermutation.transposition(3, 1, 2))
    assert e == p
    assert hash(e) == hash(p)
    assert (e.label(), p.label()) == ("E(1,2)", "P(2 1 3)")
    assert e != ExchangeOp(3, 1, 3)


# -------------------------------------------------------------------- parser


def test_parse_error_ops_basic():
    ops = parse_error_ops("I, Z1, E(3,4), X2", 9)
    assert [op.label() for op in ops] == ["I", "Z1", "E(3,4)", "X2"]


def test_parse_error_ops_products_and_permutations():
    (combo,) = parse_error_ops("X1 Z2", 3)
    assert combo.label() == "X1 Z2"
    (perm,) = parse_error_ops("P(2 1 3)", 3)
    assert perm.label() == "P(2 1 3)"
    assert perm.perm == (2, 1, 3)


@pytest.mark.parametrize(
    "bad",
    ["Q1", "E(1)", "P(1 2)", "X1,,Z2", "E(1,2,3)", ""],
)
def test_parse_error_ops_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_error_ops(bad, 3)


# ---------------------------------------------------------------- error sets


def test_basic_error_set_ordering_and_sizes():
    es = basic_error_set(9, families=("single_pauli", "exchange"))
    labels = [op.label() for op in es]
    assert len(labels) == 1 + 36 + 27
    assert labels[0] == "I"
    assert labels[1] == "E(1,2)"
    assert labels[36] == "E(8,9)"
    assert labels[37] == "X1"
    assert labels[45] == "X9"
    assert labels[46] == "Y1"
    assert labels[55] == "Z1"
    assert labels[-1] == "Z9"


_EVERY_FAMILY_SET = [
    fams
    for r in (1, 2, 3)
    for fams in itertools.combinations(("single_pauli", "exchange", "identity_only"), r)
]


@pytest.mark.parametrize("families", _EVERY_FAMILY_SET)
def test_basic_error_set_equals_the_checked_per_operator_construction(families):
    """The standard exchanges are built without ``ErrorOperator``'s checks:
    every operator, label and family equals those of the per-operator
    construction, each exchange also being the checked ``ErrorOperator``
    of its transposition, field for field."""
    for n in range(2, 25):
        ops = [IdentityOp(n)]
        if "exchange" in families:
            for j, k in itertools.combinations(range(1, n + 1), 2):
                image = [*range(1, j), k, *range(j + 1, k), j, *range(k + 1, n + 1)]
                checked = ErrorOperator(n, 0, 0, 0, tuple(image), f"E({j},{k})")
                assert vars(ExchangeOp(n, j, k)) == vars(checked)
                ops.append(ExchangeOp(n, j, k))
        if "single_pauli" in families:
            ops += [ErrorOperator.single(n, kind, k) for kind in "XYZ" for k in range(1, n + 1)]
        reference = ErrorSet(n, tuple(ops))
        es = basic_error_set(n, families=families)
        assert [vars(op) for op in es.ops] == [vars(op) for op in reference.ops]
        assert (es.ops, es.labels, es.families) == (
            reference.ops, reference.labels, reference.families
        )
        assert list(map(hash, es.ops)) == list(map(hash, reference.ops))


def test_basic_error_set_identity_only():
    es = basic_error_set(4, families=("identity_only",))
    assert [op.label() for op in es] == ["I"]
    with pytest.raises(ValueError):
        basic_error_set(4, families=("bogus",))
    with pytest.raises(ValueError):
        basic_error_set(4, families=())


def test_error_set_prepends_identity_and_checks_duplicates():
    es = ErrorSet.from_ops(3, parse_error_ops("X1, X2", 3))
    assert [op.label() for op in es] == ["I", "X1", "X2"]
    dup = [ExchangeOp(3, 1, 2), PermutationOp(QubitPermutation.transposition(3, 1, 2))]
    with pytest.raises(ValueError):
        ErrorSet.from_ops(3, dup)


_N15_OPS = ", ".join(
    [f"E({j},{k})" for j in range(1, 16) for k in range(j + 1, 16)]
    + [f"{kind}{q}" for kind in "XYZ" for q in range(1, 16)]
)


def test_error_set_validation_never_applies_an_operator(monkeypatch):
    ops = parse_error_ops(_N15_OPS, 15)

    def refuse(self, state):
        raise AssertionError("validation applied an operator")

    monkeypatch.setattr(ErrorOperator, "apply", refuse)
    assert len(ErrorSet.from_ops(15, ops)) == 151
    swap = PermutationOp(QubitPermutation.transposition(15, 1, 2))
    with pytest.raises(ValueError, match=r"E\(1,2\) and P\(2 1 3 .*\) act identically"):
        ErrorSet.from_ops(15, ops + [swap])


def test_identity_leads_by_label():
    with pytest.raises(ValueError, match="I and X1 X1 act identically"):
        ErrorSet.from_ops(3, parse_error_ops("X1 X1, X2", 3))
    with pytest.raises(ValueError, match="start with the identity"):
        ErrorSet(3, tuple(parse_error_ops("X1 X1", 3)))


def test_families_are_read_from_labels():
    es = ErrorSet.from_ops(3, parse_error_ops("E(1,3), X2, Y3, Z1, P(2 3 1), X1 Z2", 3))
    assert es.families == (
        "identity", "exchange", "X", "Y", "Z", "other", "other"
    )


def test_parse_error_ops_splits_outside_parentheses():
    ops = parse_error_ops(" E(1, 2)  X3 ,P(2 1 3)\t", 3)
    assert [op.label() for op in ops] == ["E(1,2) X3", "P(2 1 3)"]


def test_qubit_mask_is_msb_first():
    assert qubit_mask(4, [1]) == 0b1000
    assert qubit_mask(4, [4]) == 0b0001
    with pytest.raises(DimensionMismatch):
        qubit_mask(4, [5])
