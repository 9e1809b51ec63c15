from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exqec import _gram, cli, codesearch, klverify, qstate
from exqec._linalg import surd_rank
from exqec.codes import BUILTIN_CODES, Code, builtin_code, parse_code, ruskai9_code, serialize_code
from exqec.errorops import (
    ErrorOperator,
    ErrorSet,
    ExchangeOp,
    IdentityOp,
    PauliString,
    apply,
    basic_error_set,
    dense_images,
    parse_error_ops,
)
from exqec.klverify import (
    DEFAULT_FLOAT_TOL,
    DMatrix,
    build_recovery,
    d_blocks,
    dimension_bound,
    gram_tensor,
    shor_exchange_demo,
    verify_kl,
    verify_kl_extended,
)
from exqec.qstate import Amplitude, InnerProductValue, StateVector, inner_product, orbit_sum


def _ids_of(entries):
    """``(ids, values)`` of a matrix of values, equal values sharing one id."""
    index = {}
    ids = [[index.setdefault(v, len(index)) for v in row] for row in entries]
    return np.array(ids, dtype=np.intp), tuple(index)


def _d_of(entries, labels, families):
    """The D with these exact entries: a view of their own id table."""
    ids, values = _ids_of(entries)
    return DMatrix(ids, range(len(ids)), labels, families, values)


# ---------------------------------------------------------------- gram tensor


def test_gram_tensor_matches_direct_inner_products(rep3):
    errors = basic_error_set(3)
    g = gram_tensor(rep3, errors)
    for p in (0, 3, 7):
        for q in (0, 5, 9):
            for i in (0, 1):
                for j in (0, 1):
                    direct = inner_product(
                        apply(errors.ops[p], rep3.words[i]),
                        apply(errors.ops[q], rep3.words[j]),
                    )
                    assert g.entry(p, i, q, j).parts == direct.parts


def test_gram_tensor_is_hermitian(rep3):
    errors = basic_error_set(3)
    g = gram_tensor(rep3, errors)
    for p in range(len(errors)):
        for q in range(len(errors)):
            for i in (0, 1):
                for j in (0, 1):
                    lhs = g.entry(p, i, q, j)
                    rhs = g.entry(q, j, p, i).conjugate()
                    assert lhs.parts == rhs.parts


_PAIR_ERRORS = ("single_pauli", "exchange")
_PARTS = st.fractions(min_value=-5, max_value=5, max_denominator=30)
# numerators up to 2**40 over denominators up to 10**6: scaled to one common
# denominator, the integer parts run far past int64
_BIG_PARTS = st.builds(Fraction, st.integers(-(2**40), 2**40), st.integers(1, 10**6))


@st.composite
def _small_codes(draw, parts=_PARTS, radicands=(1, 2, 3, 6, 7, 12)):
    """Up to three words on n <= 4 qubits with complex rational parts over
    the radicands 1, 2, 3, 6, 7 and 12 (which normalizes to 2*sqrt(3))."""
    n = draw(st.integers(min_value=1, max_value=4))
    amp = st.builds(Amplitude.make, parts, parts, st.sampled_from(radicands))
    word = st.dictionaries(st.integers(0, (1 << n) - 1), amp, min_size=1, max_size=6)
    words = draw(st.lists(word, min_size=1, max_size=3))
    return Code(n, tuple(StateVector.from_terms(n, w) for w in words))


def _images(code, errors):
    return [apply(op, w) for op in errors.ops for w in code.words]


def _assert_matches_inner_products(code, errors):
    entries = gram_tensor(code, errors).entries
    images = _images(code, errors)
    assert list(entries) == [inner_product(u, v) for u in images for v in images]
    return entries, images


@settings(max_examples=100, deadline=None)
@given(_small_codes())
def test_gram_engine_matches_inner_products_and_dense_float(code):
    errors = basic_error_set(code.n, families=_PAIR_ERRORS)
    entries, images = _assert_matches_inner_products(code, errors)
    m = np.array([img.to_float().dense for img in images]).T
    dense = m.conj().T @ m
    got = np.array([v.float_view for v in entries]).reshape(dense.shape)
    np.testing.assert_allclose(got, dense, rtol=0, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(_small_codes(st.one_of(_PARTS, _BIG_PARTS)))
def test_gram_engine_matches_inner_products_past_int64(code):
    """Parts and float views equal ``inner_product``'s when the integer
    parts are far too large for a fixed-width integer type."""
    _assert_matches_inner_products(code, basic_error_set(code.n, families=_PAIR_ERRORS))


def test_gram_engine_is_exact_past_2_pow_63():
    big = Fraction(2**40 + 1, 3)
    word0 = {0: Amplitude.make(big, 5, 2), 3: Amplitude.make(Fraction(1, 7), big)}
    word1 = {1: Amplitude.make(big, -big, 6), 2: Amplitude.make(1, 0, 3)}
    code = Code(2, (StateVector.from_terms(2, word0), StateVector.from_terms(2, word1)))
    errors = basic_error_set(2, families=_PAIR_ERRORS)
    entries, _ = _assert_matches_inner_products(code, errors)
    assert max(abs(re.numerator) for v in entries for _, re, _ in v.parts) >= 2**63


def test_exact_gram_builds_each_distinct_value_once(shor9):
    """shor9 under ``pauli+exchange``: 5 interned values, zero first, and
    their ids cover the 98x98 id array of distinct images; each entry is
    still the per-pair ``inner_product``."""
    errors = basic_error_set(9, families=_PAIR_ERRORS)
    images = _images(shor9, errors)
    which, ids, values = _gram._exact_gram(shor9.words, errors)
    assert ids.shape == (98, 98)
    assert len(values) == len(set(values)) == 5 and values[0].is_exact_zero()
    assert np.unique(ids).tolist() == list(range(5))
    first = {a: x for x, a in reversed(list(enumerate(which)))}
    for a, x in first.items():
        for b, y in first.items():
            assert values[ids[a, b]] == inner_product(images[x], images[y])


def test_exact_gram_interns_each_distinct_sums_list_once(shor9, monkeypatch):
    """shor9 under ``pauli+exchange`` has 908 nonzero pairs of distinct
    images but few distinct lists of integer sums: ``_Values.ids``
    is called once per distinct list, and the pairs that share a list share
    its ids."""
    calls = []
    ids_of = _gram._Values.ids

    def counted(pool, sums):
        calls.append(tuple(sorted(sums)))
        return ids_of(pool, sums)

    monkeypatch.setattr(_gram._Values, "ids", counted)
    which, ids, values = _gram._exact_gram(shor9.words, basic_error_set(9, families=_PAIR_ERRORS))
    # one radicand and one denominator: distinct sums lists are distinct values
    upper = ids[np.triu_indices(len(ids))]
    assert len(calls) == len(set(calls)) == len(set(upper.tolist()) - {0}) == 4
    assert np.count_nonzero(upper) == 908


@st.composite
def _codes_and_operators(draw):
    """A drawn exact code and an operator list for ``parse_error_ops``:
    Paulis, exchanges, whole permutations (3-cycles and beyond from three
    qubits) and products of up to three of them, whose phases differ."""
    code = draw(_small_codes())
    n = code.n
    qubit = st.integers(1, n)
    atoms = [
        st.just("I"),
        st.builds("{}{}".format, st.sampled_from("XYZ"), qubit),
        st.permutations(range(1, n + 1)).map(lambda image: f"P({' '.join(map(str, image))})"),
    ]
    if n >= 2:
        atoms.append(st.lists(qubit, min_size=2, max_size=2, unique=True).map(
            lambda jk: "E({},{})".format(*jk)))
    element = st.lists(st.one_of(atoms), min_size=1, max_size=3).map(" ".join)
    return code, ", ".join(draw(st.lists(element, min_size=1, max_size=8)))


@settings(max_examples=100, deadline=None)
@given(_codes_and_operators())
@example((
    Code(3, (StateVector.from_terms(3, {1: Amplitude.make(1, 2, 2), 6: Amplitude.make(3, 0, 3)}),)),
    "I, P(2 3 1), Y1 P(3 1 2) Z2, X1 Z1, Z1 X1, Y2 Y3, E(1,3) X2",
))
def test_exact_gram_matches_the_applied_images(case):
    """The sparse engine takes each error to the words' integer terms; the
    images it merges are those that ``apply`` gives equal, in first-seen
    order, and every id names the per-pair ``inner_product`` of the
    ``apply``'d images."""
    code, text = case
    ops = parse_error_ops(text, code.n)
    images = [apply(op, w) for op in ops for w in code.words]
    which, ids, values = _gram._exact_gram(code.words, ops)
    first: dict[frozenset, int] = {}
    assert which == tuple(first.setdefault(frozenset(img.terms.items()), len(first)) for img in images)
    _assert_ids_intern_the_values(ids, values)
    for x, y in itertools.product(range(len(images)), repeat=2):
        assert values[ids[which[x], which[y]]] == inner_product(images[x], images[y])


@pytest.mark.parametrize(
    "name, families, violations, rank",
    [("shor9", _PAIR_ERRORS, 162, None), ("five-qubit", ("single_pauli",), 0, 16)],
)
def test_sparse_engine_builds_no_image(name, families, violations, rank, monkeypatch):
    """Exact words that are not orbit sums are verified without applying an
    error to a state or turning an amplitude by a power of i."""
    code = builtin_code(name)
    errors = basic_error_set(code.n, families=families)

    def forbidden(*args, **kwargs):
        raise AssertionError("the sparse engine built an image")

    monkeypatch.setattr(ErrorOperator, "apply", forbidden)
    monkeypatch.setattr(Amplitude, "times_i", forbidden)
    with mock.patch.object(_gram, "_exact_gram", side_effect=_gram._exact_gram) as sparse:
        report = verify_kl(code, errors)
    assert sparse.called
    assert (len(report.violations), report.rank) == (violations, rank)


def reference_float_gram(images):
    """The per-pair float loop ``_float_gram`` replaced, kept as its
    reference: one ``inner_product`` per flat pair ``x <= y``, and ``(y, x)``
    holds its conjugate."""
    size = len(images)
    entries = [None] * (size * size)
    for x in range(size):
        for y in range(x, size):
            v = inner_product(images[x], images[y])
            entries[x * size + y] = v
            entries[y * size + x] = v.conjugate()
    return entries


def reference_float_table(rows):
    """The per-pair ``np.vdot`` loop of ``_float_gram``, kept as its bit
    reference: rows merged by their bytes in first-seen order, one
    ``np.vdot`` per distinct pair ``a <= b`` and ``(b, a)`` its conjugate."""
    first = {}
    for x, row in enumerate(rows):
        first.setdefault(row.tobytes(), x)
    keep = list(first.values())
    which = tuple(keep.index(first[row.tobytes()]) for row in rows)
    table = np.empty((len(keep), len(keep)), dtype=np.complex128)
    for a, x in enumerate(keep):
        for b, y in enumerate(keep[a:], start=a):
            table[a, b] = np.vdot(rows[x], rows[y])
            if b > a:
                table[b, a] = table[a, b].conjugate()
    return which, table


def _assert_float_gram_matches_reference(images):
    """Equal values and equal printing: ``_float_gram`` takes ``(b, a)`` as
    the conjugate of ``vdot(a, b)`` where the loop took ``vdot(b, a)``.  The
    table also equals the per-pair ``np.vdot`` table on ``uint64`` views,
    which sees the signed zeros that ``==`` and printing miss."""
    rows = np.array([img.dense for img in images])
    which, table = _gram._float_gram(rows)
    assert table.dtype == np.complex128
    ref_which, ref_table = reference_float_table(rows)
    assert which == ref_which
    assert np.array_equal(table.view(np.uint64), ref_table.view(np.uint64))
    got = [InnerProductValue.from_complex(table[a, b]) for a in which for b in which]
    expected = reference_float_gram(images)
    assert got == expected
    assert [str(v) for v in got] == [str(v) for v in expected]


# the explicit 9-qubit operator lists of the CLI golden table
_GOLDEN_OP_LISTS = (
    "Y1 Z1, P(2 3 4 5 6 7 8 9 1), X2 E(1,2), Z9 Y9 X9, E(3,4) E(4,5)",
    "X1 Z2 E(3,4), P(9 8 7 6 5 4 3 2 1), Y5 Y6",
)


@pytest.mark.parametrize("name", sorted(BUILTIN_CODES))
def test_float_gram_matches_the_per_pair_loop(name):
    code = builtin_code(name).to_float()
    error_sets = [basic_error_set(code.n, families=f) for f in _ERROR_SPECS]
    if code.n == 9:
        error_sets += [ErrorSet.from_ops(9, parse_error_ops(ops, 9)) for ops in _GOLDEN_OP_LISTS]
    for errors in error_sets:
        _assert_float_gram_matches_reference(_images(code, errors))


@settings(max_examples=100, deadline=None)
@given(_small_codes())
def test_float_gram_matches_the_per_pair_loop_on_drawn_codes(code):
    code = code.to_float()
    _assert_float_gram_matches_reference(_images(code, basic_error_set(code.n, families=_PAIR_ERRORS)))


def test_vecdot_keeps_the_vdot_bits_on_strided_rows():
    """``_float_gram`` takes row ``x`` against every later row in one
    ``np.vecdot(rows[x], rows[x:])`` and relies on each result having the
    bits of ``np.vdot`` on the same two rows.  Its own rows are C-contiguous;
    here every row has inner stride 3, and the random entries round
    differently when summed in another order, as a plain sum shows."""
    rng = np.random.default_rng(7)
    dense = rng.normal(size=(12, 3 * 777)) + 1j * rng.normal(size=(12, 3 * 777))
    rows = dense[:, ::3]
    assert rows.strides[1] == 3 * rows.itemsize
    reordered = 0
    for x, left in enumerate(rows):
        got = np.vecdot(left, rows[x:])
        expected = np.array([np.vdot(left, right) for right in rows[x:]])
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        plain = np.array([np.sum(left.conj() * right) for right in rows[x:]])
        reordered += not np.array_equal(plain.view(np.uint64), expected.view(np.uint64))
    assert reordered


def reference_dense_apply(op, dense):
    """The per-operator dense path ``dense_images`` replaced, kept as its
    reference: the permutation scatters every amplitude to its relabelled
    index, bit by bit, then the Pauli part scatters
    ``(1j**phase) * signs * dense`` to ``idx ^ x_mask``."""
    n = op.n
    if op.perm:
        idx = np.arange(1 << n, dtype=np.int64)
        target = np.zeros_like(idx)
        for j, dest in enumerate(op.perm, start=1):
            target |= ((idx >> (n - j)) & 1) << (n - dest)
        out = np.empty_like(dense)
        out[target] = dense[idx]
        dense = out
    if not (op.x_mask or op.z_mask or op.phase):
        return dense
    idx = np.arange(1 << n, dtype=np.uint64)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & np.uint64(op.z_mask)) & 1).astype(np.int64)
    out = np.empty_like(dense)
    out[idx ^ np.uint64(op.x_mask)] = (1j**op.phase) * signs * dense
    return out


def _assert_dense_images_match_reference(code, ops):
    """The batched rows, each operator's ``apply`` and, for a bare
    permutation, ``apply_permutation`` give the reference's bits."""
    words = np.array([w.dense for w in code.words])
    expected = np.array([reference_dense_apply(op, w) for op in ops for w in words])
    rows = dense_images(ops, words)
    assert rows.shape == expected.shape
    assert np.array_equal(rows.view(np.uint64), expected.view(np.uint64))
    for p, op in enumerate(ops):
        for i, word in enumerate(code.words):
            bits = expected[p * len(words) + i].view(np.uint64)
            assert np.array_equal(op.apply(word).dense.view(np.uint64), bits)
            if op.perm and not (op.x_mask or op.z_mask or op.phase):
                image = qstate.apply_permutation(word, qstate.QubitPermutation(op.perm))
                assert np.array_equal(image.dense.view(np.uint64), bits)


@pytest.mark.parametrize("name", sorted(BUILTIN_CODES))
def test_dense_images_match_the_per_operator_path(name):
    code = builtin_code(name).to_float()
    error_sets = [basic_error_set(code.n, families=f) for f in (("single_pauli",), _PAIR_ERRORS)]
    if code.n == 9:
        error_sets += [ErrorSet.from_ops(9, parse_error_ops(ops, 9)) for ops in _GOLDEN_OP_LISTS]
    for errors in error_sets:
        _assert_dense_images_match_reference(code, errors.ops)


@settings(max_examples=100, deadline=None)
@given(_small_codes(), st.data())
def test_dense_images_match_the_per_operator_path_on_drawn_codes(code, data):
    """Drawn codes under the pair errors and drawn operators: any masks,
    phase and qubit permutation."""
    n = code.n
    mask = st.integers(0, (1 << n) - 1)
    perm = st.permutations(range(1, n + 1)).map(tuple)
    op = st.builds(ErrorOperator, st.just(n), mask, mask, st.integers(0, 3), perm)
    drawn = data.draw(st.lists(op))
    ops = basic_error_set(n, families=_PAIR_ERRORS).ops + tuple(drawn)
    _assert_dense_images_match_reference(code.to_float(), ops)


_ERROR_SPECS = (("single_pauli",), ("exchange",), _PAIR_ERRORS)


@pytest.mark.parametrize("name", sorted(BUILTIN_CODES))
def test_float_mode_agrees_with_exact_mode(name):
    """Float and exact ``verify_kl`` give the same verdict, violation count
    and rank on every builtin code under each error family set and, on
    nine qubits, the golden operator lists."""
    code = builtin_code(name)
    error_sets = [basic_error_set(code.n, families=f) for f in _ERROR_SPECS]
    if code.n == 9:
        error_sets += [ErrorSet.from_ops(9, parse_error_ops(ops, 9)) for ops in _GOLDEN_OP_LISTS]
    for errors in error_sets:
        exact, floating = verify_kl(code, errors), verify_kl(code.to_float(), errors)
        assert (floating.correctable, len(floating.violations), floating.rank) == (
            exact.correctable, len(exact.violations), exact.rank
        )


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_strict_check_matches_the_per_entry_loop(ruskai9, pauli_error_set_9, mode):
    """The strict pass compares once per (class, class) pair and lists what
    the per-entry loop over every ``(p, q)`` lists: 216 violations."""
    code = ruskai9 if mode == "exact" else ruskai9.to_float()
    tol = 0.0 if mode == "exact" else DEFAULT_FLOAT_TOL
    G = gram_tensor(code, pauli_error_set_9)
    plain = []
    for p, q in itertools.product(range(len(pauli_error_set_9)), repeat=2):
        v = G.entry(p, 0, q, 0)
        ref = G.entry(0, 0, 0, 0) if p == q else None
        d = _gram._excess(v, ref, tol)
        if d is not None:
            plain.append(klverify.Violation("strict", 0, 0, p, q, d.magnitude(), v, ref))
    report = verify_kl(code, pauli_error_set_9, strict=True)
    assert len(plain) == 216 and report.violations == plain


def test_gram_tensors_compare_by_value(rep3):
    errors = basic_error_set(3)
    for code in (rep3, rep3.to_float()):
        assert gram_tensor(code, errors) == gram_tensor(code, errors)
    assert gram_tensor(rep3, errors) != gram_tensor(rep3.to_float(), errors)


def test_float_verify_builds_no_value_for_d(ruskai9, full_error_set_9, monkeypatch):
    """Float ``verify`` of ruskai9 ranks D from the Gram array and builds no
    ``InnerProductValue``; reading ``entries`` builds one per distinct pair
    of word-0 images: the identity and exchanges share one, so 28 x 28."""
    built = []
    real = InnerProductValue.__init__

    def counted(self, *args, **kwargs):
        built.append(None)
        real(self, *args, **kwargs)

    monkeypatch.setattr(InnerProductValue, "__init__", counted)
    report = verify_kl(ruskai9.to_float(), full_error_set_9)
    assert report.correctable and report.rank == 28 and built == []
    entries = report.d_matrix.entries
    assert len(built) == 28 * 28 == len({id(v) for row in entries for v in row})


_SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=2)
_VALUES = st.one_of(
    st.dictionaries(st.sampled_from((1, 2, 3)), st.tuples(_SMALL, _SMALL), max_size=2).map(
        InnerProductValue.exact
    ),
    st.builds(complex, st.sampled_from((0.0, -0.0, 0.5)), st.sampled_from((0.0, -0.0, 1.0))).map(
        InnerProductValue.from_complex
    ),
)


@given(_VALUES, _VALUES)
def test_equal_inner_product_values_hash_equally(a, b):
    """Values are hashed by this file's ``_ids_of``, which gives equal
    values one id, and by the hash of a ``Violation``, which a set of
    violations takes: equal values, built apart or differing only in the
    sign of a zero, must hash alike."""
    again = (
        InnerProductValue.exact({r: (re, im) for r, re, im in a.parts})
        if a.is_exact
        else InnerProductValue.from_complex(a.float_view)
    )
    assert again == a and hash(again) == hash(a)
    if a == b:
        assert hash(a) == hash(b)


def _dense_operator(op) -> np.ndarray:
    """``i**phase X(x_mask) Z(z_mask) P(perm)`` as a dense matrix, built from
    the operator's fields alone: column b holds the image of ``|b>``."""
    n = op.n
    b = np.arange(1 << n)
    moved = np.zeros_like(b)
    for j, dest in enumerate(op.perm or range(1, n + 1), start=1):
        moved |= ((b >> (n - j)) & 1) << (n - dest)
    sign = np.where(np.bitwise_count(moved & op.z_mask) % 2, -1, 1)
    m = np.zeros((1 << n, 1 << n), dtype=complex)
    m[moved ^ op.x_mask, b] = 1j**op.phase * sign
    return m


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((2, 3, 7)).flatmap(lambda p: _small_codes(radicands=(1, p, 4 * p))))
def test_dense_oracle_finds_the_same_violations_and_rank(code):
    """An independent float oracle: ``M^H M`` of the dense error images.
    Its entries off by more than 1e-9 are exactly ``verify_kl``'s
    violations, and a correctable code's D has the same float rank.

    Each code lives in one field Q(i, sqrt(p)).  Over two or more primes the
    exact D rank is still far too slow for a test: a one-word 4-qubit code
    over sqrt 2, sqrt 3 and sqrt 7 takes minutes in ``surd_rank``."""
    errors = basic_error_set(code.n, families=_PAIR_ERRORS)
    words = np.array([w.to_float().dense for w in code.words]).T
    m = np.hstack([_dense_operator(op) @ words for op in errors.ops])
    size, w = len(errors), len(code.words)
    g = (m.conj().T @ m).reshape(size, w, size, w)
    pairs = list(itertools.product(range(size), repeat=2))
    expected = {
        ("cross_word", p, q, (i, j))
        for i, j in itertools.combinations(range(w), 2)
        for p, q in pairs
        if abs(g[p, i, q, j]) > 1e-9
    } | {
        ("block_mismatch", p, q, (i, i))
        for i in range(1, w)
        for p, q in pairs
        if abs(g[p, i, q, i] - g[p, 0, q, 0]) > 1e-9
    }
    report = verify_kl(code, errors)
    assert {(v.kind, v.p, v.q, (v.i, v.j)) for v in report.violations} == expected
    if report.correctable:
        assert np.linalg.matrix_rank(g[:, 0, :, 0]) == report.rank


# ------------------------------------------------------------- orbit engine


def _orbit_word(n, amps):
    """sum over weights w of amps[w] times the all-ones weight-w orbit."""
    return StateVector.from_terms(
        n, {idx: amps[idx.bit_count()] for idx in range(1 << n) if idx.bit_count() in amps}
    )


def _random_ops(n):
    """Distinct random ``i**p X(x) Z(z) P(perm)``, none equal to the identity."""
    op = st.builds(
        ErrorOperator,
        st.just(n),
        st.integers(0, (1 << n) - 1),
        st.integers(0, (1 << n) - 1),
        st.integers(0, 3),
        st.permutations(range(1, n + 1)).map(tuple),
    ).filter(lambda e: e != IdentityOp(n))
    return st.lists(op, max_size=8, unique=True).map(lambda ops: ErrorSet.from_ops(n, ops))


# the radicands 1, p and 4p of one prime p: an exact D rank stays fast
_ONE_PRIME = ((1, 2, 8), (1, 3, 12), (1, 7, 28))


@st.composite
def _orbit_cases(draw, fields=_ONE_PRIME):
    """An orbit code on n <= 8 qubits (1-3 words, complex parts over the
    radicands of one of ``fields``), its errors, and whether word 0 was
    made a near-orbit word: one member of a weight orbit with at least two
    members dropped, or given another amplitude."""
    n = draw(st.integers(1, 8))
    radicands = draw(st.sampled_from(fields))
    amp = st.builds(Amplitude.make, _PARTS, _PARTS, st.sampled_from(radicands))
    amp = amp.filter(lambda a: not a.is_zero())
    coeffs = draw(st.lists(
        st.dictionaries(st.integers(0, n), amp, min_size=1, max_size=3), min_size=1, max_size=3
    ))
    words = [_orbit_word(n, c) for c in coeffs]
    spread = [w for w in coeffs[0] if math.comb(n, w) > 1]
    near = bool(spread) and draw(st.booleans())
    if near:
        weight = draw(st.sampled_from(spread))
        idx = draw(st.sampled_from([i for i in words[0].terms if i.bit_count() == weight]))
        terms = dict(words[0].terms)
        if draw(st.booleans()):
            del terms[idx]
        else:
            terms[idx] = draw(amp.filter(lambda a: a != terms[idx]))
        words[0] = StateVector.from_terms(n, terms)
    errors = draw(st.one_of(
        st.just(basic_error_set(n)),
        st.just(basic_error_set(n, families=_PAIR_ERRORS)),
        _random_ops(n),
    ))
    return Code(n, tuple(words)), errors, near


@settings(max_examples=80, deadline=None)
@given(_orbit_cases())
@example((ruskai9_code(), basic_error_set(9, families=_PAIR_ERRORS), False))
# one word |00000>: Z_k acts as I, so D has rank n + 1 and the identity row
# of the symmetric block carries n * <w|Z_k w>
@example((Code(5, (StateVector.basis(5, 0),)), basic_error_set(5), False))
@example((
    ruskai9_code(),
    ErrorSet.from_ops(
        9, parse_error_ops("X1, E(1,2) X3, X1 Z1, Y2 Y3, P(2 3 1 4 5 6 7 8 9) Z4", 9)
    ),
    False,
))
def test_orbit_engine_matches_the_sparse_engine(case):
    """Gram entries, violations and rank equal the sparse engine's exactly;
    orbit codes apply no error, near-orbit codes take the sparse engine."""
    code, errors, near = case
    with mock.patch.object(_gram, "_exact_gram", side_effect=_gram._exact_gram) as sparse:
        entries = gram_tensor(code, errors).entries
        report = verify_kl(code, errors)
    assert sparse.called == near
    # the oracle: every code through the sparse engine and ``DMatrix.rank``
    with mock.patch.object(_gram, "_orbit_coefficients", lambda word: None):
        assert entries == gram_tensor(code, errors).entries
        expected = verify_kl(code, errors)
    assert report.violations == expected.violations
    assert report.rank == expected.rank


def reference_orbit_gram(n, coeffs, errors):
    """``_orbit_gram`` with the per-pair class numbering it replaced: one
    dict over each pair's ``(phase, ny, nx, nz)`` in row-major order, and
    each atom summed straight into the radicand pair's sums."""
    pool = _gram._Values(amp for c in coeffs for amp in c.values())
    nr = len(pool.radicands)
    ints = [{kappa: pool.gaussian(a) for kappa, a in c.items()} for c in coeffs]
    parts = {}
    which = [parts.setdefault((op.phase, op.x_mask, op.z_mask), len(parts)) for op in errors.ops]
    number, cls = {}, []
    for pu, xu, zu in parts:
        for pv, xv, zv in parts:
            phase = pv - pu + 2 * ((xu & zu).bit_count() + (zu & xv).bit_count())
            key = _gram._pauli_class(phase & 3, xu ^ xv, zu ^ zv)
            cls.append(number.setdefault(key, len(number)))
    w, size = len(coeffs), len(parts)
    V = np.empty((len(number), w * w), dtype=np.intp)
    for c, (rot, ny, nx, nz) in enumerate(number):
        for k, (left, right) in enumerate(itertools.product(ints, repeat=2)):
            sums = {}
            for kappa, (kk, ar, ai) in left.items():
                for mu, (l, br, bi) in right.items():
                    t = _gram._orbit_atom(n, ny, nx, nz, kappa, mu)
                    slot = sums.setdefault(kk * nr + l, [0, 0])
                    slot[0] += (ar * br + ai * bi) * t
                    slot[1] += (ar * bi - ai * br) * t
            turned = [
                (kl, *((sr, si), (-si, sr), (-sr, -si), (si, -sr))[rot])
                for kl, (sr, si) in sums.items() if sr or si
            ]
            V[c, k] = pool.ids(turned)[0]
    table = V[np.reshape(cls, (size, size))].reshape(size, size, w, w)
    table = table.transpose(0, 2, 1, 3).reshape(size * w, size * w)
    return tuple(u * w + i for u in which for i in range(w)), table, tuple(pool.values)


@settings(max_examples=120, deadline=None)
@given(_orbit_cases().filter(lambda case: not case[2]))
@example((ruskai9_code(), basic_error_set(9, families=_PAIR_ERRORS), False))
def test_orbit_gram_numbers_classes_as_the_per_pair_dict(case):
    """The classes numbered by one ``np.unique`` over base-(n + 1) codes,
    reordered to first-seen order, give the same ``which``, the same id
    table and the same values in the same order as the per-pair dict, on
    drawn orbit codes under drawn errors (phases, masks, permutations)."""
    code, errors, _ = case
    coeffs = [_gram._orbit_coefficients(w) for w in code.words]
    which, table, values = _gram._orbit_gram(code.n, coeffs, errors)
    ref_which, ref_table, ref_values = reference_orbit_gram(code.n, coeffs, errors)
    assert which == ref_which
    assert np.array_equal(table, ref_table)
    assert [v.parts for v in values] == [v.parts for v in ref_values]


def test_orbit_words_are_read_off_their_terms():
    n = 4
    one, amp = Amplitude.make(1), Amplitude.make(Fraction(1, 3), 2, 7)
    word = _orbit_word(n, {0: one, 2: amp})
    assert _gram._orbit_coefficients(word) == {0: one, 2: amp}
    # ket by ket, as a relabelled code file writes it
    code = parse_code(serialize_code(ruskai9_code()))
    assert "orbit" not in serialize_code(ruskai9_code())
    assert all(_gram._orbit_coefficients(w) is not None for w in code.words)
    terms = dict(word.terms)
    del terms[0b0011]
    assert _gram._orbit_coefficients(StateVector.from_terms(n, terms)) is None
    terms = dict(word.terms)
    terms[0b0011] = amp.scaled(2)
    assert _gram._orbit_coefficients(StateVector.from_terms(n, terms)) is None
    assert _gram._orbit_coefficients(word.to_float()) is None


def test_orbit_terms_share_one_amplitude_object(monkeypatch):
    """Scaling makes one product per distinct amplitude object, so a
    realized orbit code holds one object per weight and
    ``_orbit_coefficients`` reads its terms by identity, comparing no
    amplitudes."""
    one, amp, half = Amplitude.make(1), Amplitude.make(Fraction(1, 3), 0, 7), Fraction(-1, 2)
    word = StateVector.from_terms(3, {0: one, 5: one, 6: amp})
    for factor, product in ((amp, lambda a: a * amp), (half, lambda a: a.scaled(half))):
        scaled = word.scaled(factor)
        assert scaled.terms == {i: product(a) for i, a in word.terms.items()}
        assert scaled.terms[0] is scaled.terms[5] and scaled.terms[0] is not scaled.terms[6]
        orbit = orbit_sum(6, 3).scaled(factor)
        assert len({id(a) for a in orbit.terms.values()}) == 1
    row = codesearch.solve_coefficients(codesearch.SupportPattern(7, {0, 5}, {2, 7}))
    code = codesearch.realize_code(row.pattern, row.coefficients, row.squares)
    assert [len({id(a) for a in w.terms.values()}) for w in code.words] == [2, 2]
    terms = dict(code.words[0].terms)
    for idx in list(terms)[-2:]:  # equal amplitudes in objects of their own
        terms[idx] = dataclasses.replace(terms[idx])
    coeffs = _gram._orbit_coefficients(StateVector.from_terms(7, terms))
    assert coeffs is not None and coeffs == _gram._orbit_coefficients(code.words[0])

    def no_comparison(self, other):
        raise AssertionError("an orbit term was compared by value")

    monkeypatch.setattr(Amplitude, "__eq__", no_comparison)
    assert all(_gram._orbit_coefficients(w) is not None for w in code.words)


def test_orbit_code_applies_no_error(ruskai9, full_error_set_9, ruskai9_report, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the orbit engine touched a state")

    monkeypatch.setattr(ErrorOperator, "apply", forbidden)
    monkeypatch.setattr(_gram, "_exact_gram", forbidden)
    monkeypatch.setattr(_gram, "_float_gram", forbidden)
    report = verify_kl(ruskai9, full_error_set_9)
    assert report.violations == [] and report.rank == 28
    assert report.d_matrix == ruskai9_report.d_matrix


def test_orbit_coefficients_are_read_once_per_word(ruskai9, full_error_set_9, monkeypatch):
    """The report takes word 0's weight map from the Gram step instead of
    reading the terms again."""
    calls = []
    read = _gram._orbit_coefficients

    def counted(word):
        calls.append(word)
        return read(word)

    monkeypatch.setattr(_gram, "_orbit_coefficients", counted)
    report = verify_kl(ruskai9, full_error_set_9)
    assert report.rank == 28
    assert len(calls) == 2
    calls.clear()
    assert verify_kl_extended([ruskai9], full_error_set_9).rank == 28
    assert len(calls) == 2


def _feasible_survey_codes():
    for n in range(2, 12):
        for max_weights in (2, 3) if n <= 8 else (2,):
            for row in codesearch.survey_patterns(n, max_weights):
                if row.feasible:
                    yield codesearch.realize_code(row.pattern, row.coefficients, row.squares)


def _distinct_rank(d):
    """``surd_rank`` of D's distinct rows and columns: the elimination oracle."""
    columns = dict.fromkeys(zip(*dict.fromkeys(d.entries)))
    return surd_rank([[v.parts for v in col] for col in columns])


def test_split_rank_equals_the_rank_of_the_distinct_rows(ruskai9, full_error_set_9):
    """The S_n split gives 3n + 1 wherever elimination on the distinct rows
    does: ruskai9, and every feasible survey row up to n = 11, whose first
    is the n=7 code {0,5}/{2,7}."""
    survey = list(_feasible_survey_codes())
    assert len(survey) == 24
    assert _gram._orbit_coefficients(survey[0].words[0]) == {
        0: Amplitude.make(Fraction(1, 10), 0, 30), 5: Amplitude.make(Fraction(1, 30), 0, 30)
    }
    for code in (ruskai9, *survey):
        errors = basic_error_set(code.n, families=_PAIR_ERRORS)
        report = verify_kl(code, errors)
        assert report.correctable
        d = report.d_matrix
        split = klverify._split_rank(*d.table, d.families)
        assert split == report.rank == _distinct_rank(d) == 3 * code.n + 1


@pytest.mark.parametrize(
    "ops",
    [
        "X1, X2, X3, X4, Y1, Y2, Y3, Y4, Z1, Z2, Z4",  # Z3 missing
        "X1, X2, X3, X4, X1 Z1, Y2, Y3, Y4, Z1, Z2, Z3, Z4",  # -i Y1 in place of Y1
        "X1, X2, X3, X4, Y1, Y2, Y3, Y4, Z1, Z2, Z3, Z4, Z1 Z2",  # a two-qubit error
    ],
)
def test_split_rank_needs_exactly_the_single_qubit_paulis(ops):
    """Any other set of distinct Pauli parts leaves runs of unequal length,
    so the rank falls back to ``surd_rank`` on the distinct rows."""
    code = parse_code("qubits: 4\nword 0:\n1 orbit(k=0)\n1/sqrt(6) orbit(k=2)\n")
    errors = ErrorSet.from_ops(4, parse_error_ops(ops, 4))
    report = verify_kl(code, errors)
    assert report.correctable
    d = report.d_matrix
    assert klverify._split_rank(*d.table, d.families) is None
    assert report.rank == d.rank() == _distinct_rank(d)
    full = verify_kl(code, basic_error_set(4)).d_matrix
    assert klverify._split_rank(*full.table, full.families) == full.rank() == _distinct_rank(full)


def test_split_rank_declines_a_family_that_comes_back(five_qubit):
    """``_family_runs`` gives each maximal run, so an operator list in qubit
    order has one run per operator; ``_split_rank`` then declines, and D is
    ranked by elimination."""
    ops = ", ".join(f"{p}{k}" for k in range(1, 6) for p in "XYZ")
    d = verify_kl(five_qubit, ErrorSet.from_ops(5, parse_error_ops(ops, 5))).d_matrix
    assert klverify._family_runs(d.families) == [
        (name, k, k + 1) for k, name in enumerate("0" + "XYZ" * 5)
    ]
    assert klverify._split_rank(*d.table, d.families) is None
    assert d.rank() == _distinct_rank(d) == 16


# -------------------------------------------------- dual-orbit code passes KL


def test_dual_orbit_code_is_correctable(ruskai9_report):
    rep = ruskai9_report
    assert rep.correctable
    assert rep.violations == []
    assert rep.tolerance == 0.0
    assert rep.rank == 28
    assert rep.dimension_used == 56
    assert rep.dimension_total == 512
    lines = rep.to_lines()
    assert "correctable: true" in lines
    assert "rank: 28" in lines
    assert "dimension-used: 56 of 512" in lines


def test_dual_orbit_d_matrix_values(ruskai9_report):
    d = ruskai9_report.d_matrix
    labels = list(d.labels)

    def entry(a, b):
        return d.entries[labels.index(a)][labels.index(b)].as_fraction()

    # identity and every exchange act identically: a constant block
    assert entry("I", "I") == 4
    assert entry("I", "E(1,2)") == 4
    assert entry("E(1,2)", "E(8,9)") == 4
    # equal diagonals and characteristic off-diagonal overlaps per family
    assert entry("X1", "X1") == 4
    assert entry("X1", "X2") == Fraction(3, 2)
    assert entry("Y3", "Y7") == Fraction(3, 2)
    assert entry("Z1", "Z2") == 1
    # families do not mix
    assert entry("I", "X1") == 0
    assert entry("X1", "Y1") == 0
    assert entry("X1", "Z5") == 0


def test_dual_orbit_d_blocks(ruskai9_report):
    rep = d_blocks(ruskai9_report.d_matrix)
    names = [(b.name, b.size, b.rank) for b in rep.blocks]
    assert names == [("0", 37, 1), ("X", 9, 9), ("Y", 9, 9), ("Z", 9, 9)]
    assert rep.off_block_max == 0.0
    assert rep.total_rank == 28
    assert any("block 0: indices 0..36" in line for line in rep.to_lines())


def test_d_is_ranked_once_per_printed_rank(capsys):
    """``dmatrix`` prints each block's rank and no rank of the whole D, so
    it ranks each ``d_blocks`` block once; ``verify`` prints D's rank and
    ranks D once.  A report ranks D when its ``rank`` is first read."""
    rank = DMatrix.rank
    with mock.patch.object(DMatrix, "rank", autospec=True, side_effect=rank) as spy:
        assert cli.run(["dmatrix", "--code", "ruskai9"]) == 0
        out = capsys.readouterr().out.splitlines()
        blocks = [line for line in out if line.lstrip().startswith("block ")]
        assert [d.size for (d,), _ in spy.call_args_list] == [37, 9, 9, 9]
        assert spy.call_count == len(blocks)
        spy.reset_mock()
        assert cli.run(["verify", "--code", "ruskai9", "--errors", "pauli+exchange"]) == 0
        assert "rank: 28" in capsys.readouterr().out
        assert [d.size for (d,), _ in spy.call_args_list] == [64]
        spy.reset_mock()
        report = verify_kl(ruskai9_code(), basic_error_set(9, families=_PAIR_ERRORS))
        assert spy.call_count == 0
        assert (report.rank, report.dimension_used, report.rank) == (28, 56, 28)
        assert spy.call_count == 1


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("families", [("identity_only",), ("single_pauli",), _PAIR_ERRORS])
@pytest.mark.parametrize("name", sorted(BUILTIN_CODES))
def test_report_rank_is_the_rank_of_d(name, families, mode):
    """On every builtin code and error set, a correctable report's rank is
    its D's rank and ``dimension_used`` is the number of words times it; a
    failing report has neither."""
    code = builtin_code(name)
    code = code.to_float() if mode == "float" else code
    report = verify_kl(code, basic_error_set(code.n, families=families))
    if not report.correctable:
        assert families != ("identity_only",)  # every builtin code is valid
        assert (report.d_matrix, report.rank, report.dimension_used) == (None, None, None)
        return
    assert report.rank == report.d_matrix.rank() > 0
    assert report.dimension_used == len(code.words) * report.rank


def test_two_value_blocks_take_the_closed_form(ruskai9_report, five_qubit, monkeypatch):
    """Every X/Y/Z block of ruskai9 and of five-qubit, and ruskai9's
    identity+exchange block, has one diagonal and one off-diagonal value:
    its closed-form rank equals ``surd_rank`` of the whole block, and
    ``d_blocks`` ranks them with no ``surd_rank`` call larger than 1x1."""
    five_report = verify_kl(five_qubit, basic_error_set(5))
    blocks = {}
    for name, report in (("ruskai9", ruskai9_report), ("five-qubit", five_report)):
        d = report.d_matrix
        blocks[name] = [
            (b.name, b.rank, surd_rank(
                [[v.parts for v in row[b.start:b.stop]] for row in d.entries[b.start:b.stop]]
            ))
            for b in d_blocks(d).blocks
        ]
    assert blocks == {
        "ruskai9": [("0", 1, 1), ("X", 9, 9), ("Y", 9, 9), ("Z", 9, 9)],
        "five-qubit": [("0", 1, 1), ("X", 5, 5), ("Y", 5, 5), ("Z", 5, 5)],
    }

    def one_by_one(matrix):
        assert len(matrix) <= 1 and all(len(row) <= 1 for row in matrix), (
            "a two-value block was ranked by elimination"
        )
        return surd_rank(matrix)

    monkeypatch.setattr(klverify, "surd_rank", one_by_one)
    assert d_blocks(ruskai9_report.d_matrix).total_rank == 28


@pytest.mark.parametrize("case", ["ruskai9 pauli+exchange", "five-qubit pauli", "float ruskai9"])
def test_d_blocks_are_views_of_d(case, ruskai9, five_qubit, full_error_set_9):
    """Every ``d_blocks`` block holds the same bits as D's own slice; an
    exact block shares D's ``values``, and a float block has none."""
    code, errors = {
        "ruskai9 pauli+exchange": (ruskai9, full_error_set_9),
        "five-qubit pauli": (five_qubit, basic_error_set(5)),
        "float ruskai9": (ruskai9.to_float(), full_error_set_9),
    }[case]
    d = verify_kl(code, errors).d_matrix
    rank = DMatrix.rank
    with mock.patch.object(DMatrix, "rank", autospec=True, side_effect=rank) as spy:
        report = d_blocks(d)
    blocks = [block for (block,), _ in spy.call_args_list]
    assert len(blocks) == len(report.blocks) == 4
    assert (d.values is None) == (case == "float ruskai9")
    whole = d.to_float()
    for block, info in zip(blocks, report.blocks):
        a, b = info.start, info.stop
        assert block.values is d.values
        got = block.to_float().view(np.uint64)
        assert np.array_equal(got, np.ascontiguousarray(whole[a:b, a:b]).view(np.uint64))


def test_float_blocks_never_reach_the_exact_rank(ruskai9, full_error_set_9, monkeypatch):
    """A float D's blocks are ranked from slices of its Gram array, with no
    call to ``_split_rank`` or ``surd_rank``."""
    d = verify_kl(ruskai9.to_float(), full_error_set_9).d_matrix

    def forbidden(*args):
        raise AssertionError("a float block reached the exact rank")

    monkeypatch.setattr(klverify, "_split_rank", forbidden)
    monkeypatch.setattr(klverify, "surd_rank", forbidden)
    report = d_blocks(d)
    assert [(b.name, b.rank) for b in report.blocks] == [("0", 1), ("X", 9), ("Y", 9), ("Z", 9)]
    assert report.total_rank == 28


@pytest.mark.parametrize("case", ["float ruskai9 pauli+exchange", "float five-qubit pauli"])
def test_float_d_blocks_read_magnitudes_off_the_gram_array(case, ruskai9, five_qubit,
                                                           full_error_set_9):
    """A float D's off-block magnitudes come from its Gram array slice with
    no ``InnerProductValue`` built, bit-equal to the reading off D's value
    table."""
    code, errors = {
        "float ruskai9 pauli+exchange": (ruskai9.to_float(), full_error_set_9),
        "float five-qubit pauli": (five_qubit.to_float(), basic_error_set(5)),
    }[case]
    d = verify_kl(code, errors).d_matrix
    with mock.patch.object(InnerProductValue, "from_complex",
                           side_effect=AssertionError("built a value")):
        report = d_blocks(d)
    ids, values = d.table
    for info in report.blocks:
        a, b = info.start, info.stop
        outside = set(ids[a:b, :a].ravel().tolist()) | set(ids[a:b, b:].ravel().tolist())
        expect = max((values[k].magnitude() for k in outside), default=0.0)
        assert info.off_block_max.hex() == expect.hex()
    assert report.off_block_max.hex() == max(i.off_block_max for i in report.blocks).hex()
    if case == "float ruskai9 pauli+exchange":
        assert report.off_block_max > 0  # rounding noise, so the bits are compared


def test_block_rule_keeps_exact_ids_and_one_float_value_per_image_pair():
    """``_gram._block`` on a hand-built table: a float block has one value
    per distinct image pair, repeated images share ids, and 0.0 and -0.0
    print apart; an exact block keeps the table's own ids and values."""
    table = np.array([[4, 0.0, 1j], [-0.0, 2, 0.5], [-1j, 0.5, 3]], dtype=np.complex128)
    images = [0, 1, 0, 2, 1]
    ids, values = _gram._block(table, images, None)
    assert len(values) == len(set(ids.ravel().tolist())) == 9
    assert np.array_equal(ids[0], ids[2]) and np.array_equal(ids[:, 1], ids[:, 4])
    read = np.array([[values[k].float_view for k in row] for row in ids.tolist()])
    assert np.array_equal(read.view(np.uint64), table[np.ix_(images, images)].view(np.uint64))
    assert (str(values[ids[0, 1]]), str(values[ids[1, 0]])) == ("0", "-0")

    exact = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]], dtype=np.intp)
    pool = tuple(InnerProductValue.exact_rational(k) for k in range(6))
    ids, values = _gram._block(exact, images, pool)
    assert values is pool
    assert np.array_equal(ids, exact[np.ix_(images, images)])


def test_dual_orbit_strict_form_fails(ruskai9, pauli_error_set_9):
    rep = verify_kl(ruskai9, pauli_error_set_9, strict=True)
    assert not rep.correctable
    assert all(v.kind == "strict" for v in rep.violations)


# ------------------------------------------------- block-parity code fails KL


def test_block_parity_code_fails_under_exchange(shor9, full_error_set_9):
    rep = verify_kl(shor9, full_error_set_9)
    assert not rep.correctable
    assert len(rep.violations) == 162
    assert all(v.kind == "block_mismatch" for v in rep.violations)
    # the qubit-3/4 exchange collides with phase flips inside the last block
    partners = {
        rep.labels[v.q] if rep.labels[v.p] == "E(3,4)" else rep.labels[v.p]
        for v in rep.violations
        if "E(3,4)" in (rep.labels[v.p], rep.labels[v.q])
    }
    assert partners == {"Z7", "Z8", "Z9"}
    # only exchanges that straddle two blocks are involved
    exchanges = {
        lbl
        for v in rep.violations
        for lbl in (rep.labels[v.p], rep.labels[v.q])
        if lbl.startswith("E(")
    }
    assert len(exchanges) == 27
    assert "E(1,2)" not in exchanges  # within-block swaps are harmless


def test_block_parity_code_passes_without_exchange(shor9, pauli_error_set_9):
    rep = verify_kl(shor9, pauli_error_set_9)
    assert rep.correctable


def test_violation_describe_mentions_labels(shor9, full_error_set_9):
    rep = verify_kl(shor9, full_error_set_9)
    text = rep.violations[0].describe(rep.labels)
    assert "differs between word" in text


# -------------------------------------------------------- small sanity codes


def test_repetition_code_handles_bit_flips_only(rep3):
    flips = ErrorSet.from_ops(3, parse_error_ops("X1, X2, X3", 3))
    good = verify_kl(rep3, flips)
    assert good.correctable and good.rank == 4
    bad = verify_kl(rep3, basic_error_set(3))
    assert not bad.correctable
    assert {v.kind for v in bad.violations} == {"block_mismatch"}
    assert len(bad.violations) == 12


def test_cyclic_stabilizer_code_is_nondegenerate(five_qubit):
    rep = verify_kl(five_qubit, basic_error_set(5), strict=True)
    assert rep.correctable
    assert rep.rank == 16
    assert rep.dimension_used == 32 == rep.dimension_total
    assert rep.d_matrix.entries[0][0].as_fraction() == 16


def test_float_mode_detects_small_perturbations(ruskai9, full_error_set_9):
    words = [w.to_float().dense.copy() for w in ruskai9.words]
    words[0][0b000000111] += 0.01  # weight-3 term breaks the exchange symmetry
    bad = Code(9, tuple(StateVector.from_dense(9, w) for w in words))
    rep = verify_kl(bad, full_error_set_9)
    assert rep.tolerance == 1e-9
    assert not rep.correctable
    assert max(v.magnitude for v in rep.violations) > 1e-4


def test_tolerance_override_accepts_perturbation(ruskai9, full_error_set_9):
    words = [w.to_float().dense.copy() for w in ruskai9.words]
    words[0][0b000000111] += 1e-12
    nearly = Code(9, tuple(StateVector.from_dense(9, w) for w in words))
    assert verify_kl(nearly, full_error_set_9, tol=1e-6).correctable


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("float_mode", [False, True])
def test_tolerance_must_be_finite_and_nonnegative(shor9, full_error_set_9, tol, float_mode):
    """Every ``magnitude > nan`` is False, so a nan bound would pass shor9."""
    code = shor9.to_float() if float_mode else shor9
    with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
        verify_kl(code, full_error_set_9, tol=tol)
    with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
        verify_kl_extended([code], full_error_set_9, tol=tol)


# ------------------------------------------------------------ extended check


def test_extended_single_family_matches_plain(ruskai9, full_error_set_9, ruskai9_report):
    rep = verify_kl_extended([ruskai9], full_error_set_9)
    assert rep.correctable == ruskai9_report.correctable
    assert rep.rank == ruskai9_report.rank
    assert rep.dimension_used == ruskai9_report.dimension_used


def test_extended_single_member_violations_match_plain(rep3):
    errors = basic_error_set(3)
    plain = verify_kl(rep3, errors).violations
    extended = verify_kl_extended([rep3], errors).violations
    assert len(plain) == 12
    assert extended == [
        dataclasses.replace(v, i=(v.i, 0), j=(v.j, 0)) for v in plain
    ]


@pytest.mark.parametrize("check", ["plain", "extended"])
def test_each_hermitian_gram_pair_is_computed_once(rep3, five_qubit, monkeypatch, check):
    """No mode makes a per-pair ``inner_product`` or ``np.vdot`` call.
    Exact mode builds each distinct pair's value once; float mode takes one
    ``np.vecdot`` per distinct image row, m in all.  In both modes equal
    image pairs share one value object."""
    calls, vdots, vecdots = [], [], []
    real, real_vdot, real_vecdot = qstate.inner_product, np.vdot, np.vecdot

    def counted(left, right):
        calls.append(None)
        return real(left, right)

    def counted_vdot(a, b):
        vdots.append(None)
        return real_vdot(a, b)

    def counted_vecdot(a, b):
        vecdots.append(None)
        return real_vecdot(a, b)

    monkeypatch.setattr(qstate, "inner_product", counted)
    monkeypatch.setattr(qstate.np, "vdot", counted_vdot)
    monkeypatch.setattr(qstate.np, "vecdot", counted_vecdot)

    def check_code(code, errors):
        if check == "plain":
            verify_kl(code, errors)
        else:
            verify_kl_extended([code], errors)

    for exact in (rep3, five_qubit):
        errors = basic_error_set(exact.n, families=_PAIR_ERRORS)
        for code in (exact, exact.to_float()):
            calls.clear()
            vdots.clear()
            vecdots.clear()
            check_code(code, errors)
            assert calls == [] and vdots == []
            made = len(vecdots)

            images = _images(code, errors)
            keys = [
                frozenset(img.terms.items()) if img.mode == "exact" else img.dense.tobytes()
                for img in images
            ]
            entries = gram_tensor(code, errors).entries
            first = {}
            for x, kx in enumerate(keys):
                for y, ky in enumerate(keys):
                    a = first.setdefault((kx, ky), x * len(keys) + y)
                    assert entries[a] is entries[x * len(keys) + y]
            assert len(first) < len(keys) ** 2  # some images do repeat
            m = len(set(keys))
            assert made == (0 if code.mode == "exact" else m)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_violations_compare_each_exact_object_pair_once(
    shor9, full_error_set_9, monkeypatch, mode
):
    """Errors whose images match for every word form one class, and each
    check compares each (class, class) pair once: shor9 has 49 such classes
    exactly and 55 in float mode, of 64 errors.  The list equals the plain
    per-entry loop's.  Both modes compare arrays: exact mode calls
    ``_excess`` once per distinct pair of unequal (value, reference) ids
    and check, far fewer than the class pairs, and float mode builds a
    value only for each of its 162 failing ``block_mismatch`` class pairs:
    the value and its reference."""
    code = shor9 if mode == "exact" else shor9.to_float()
    tol = 0.0 if mode == "exact" else DEFAULT_FLOAT_TOL
    G = gram_tensor(code, full_error_set_9)
    N = len(full_error_set_9)
    plain = []
    for kind, a in (("cross_word", 1), ("block_mismatch", 1)):
        for p, q in itertools.product(range(N), repeat=2):
            v = G.entry(p, 0 if kind == "cross_word" else a, q, a)
            ref = G.entry(p, 0, q, 0) if kind == "block_mismatch" else None
            d = _gram._excess(v, ref, tol)
            if d is not None:
                i = 0 if kind == "cross_word" else a
                plain.append(klverify.Violation(kind, i, a, p, q, d.magnitude(), v, ref))
    calls, made = [], []
    real, real_value = _gram._excess, InnerProductValue.from_complex

    def counted(v, ref, tol):
        calls.append(None)
        return real(v, ref, tol)

    def counted_value(z):
        made.append(None)
        return real_value(z)

    monkeypatch.setattr(_gram, "_excess", counted)
    monkeypatch.setattr(InnerProductValue, "from_complex", staticmethod(counted_value))
    found = _gram._violations(G, range(2), tol)
    assert len(found) == 162 and found == plain
    classes = {"exact": 49, "float": 55}[mode]
    assert len({G.which[2 * p : 2 * p + 2] for p in range(N)}) == classes
    if mode == "exact":
        distinct = {(v.kind, v.value, v.reference) for v in plain}
        assert made == [] and len(calls) == len(distinct) < classes**2
    else:
        assert calls == [] and len(made) == 2 * 162


def reference_violations(G, keys, tol, strict=False):
    """The per-pair ``_excess`` comparison that ``_violations`` replaced,
    kept as its reference: every ``(p, q)`` entry of every check, read with
    ``entry``, goes through ``_excess`` in ``(p, q)`` order."""
    N = len(G.errors)
    pairs = list(itertools.product(range(N), repeat=2))
    checks = [("cross_word", a, b) for a, b in itertools.combinations(range(len(keys)), 2)]
    checks += [("block_mismatch", a, a) for a in range(1, len(keys))]
    out = []

    def check(kind, a, b, p, q, v, ref):
        d = _gram._excess(v, ref, tol)
        if d is not None:
            out.append(klverify.Violation(kind, keys[a], keys[b], p, q, d.magnitude(), v, ref))

    for kind, a, b in checks:
        for p, q in pairs:
            ref = G.entry(p, 0, q, 0) if kind == "block_mismatch" else None
            check(kind, a, b, p, q, G.entry(p, a, q, b), ref)
    if strict:
        for p, q in pairs:
            ref = G.entry(0, 0, 0, 0) if p == q else None
            check("strict", 0, 0, p, q, G.entry(p, 0, q, 0), ref)
    return out


def _assert_ids_intern_the_values(ids, values):
    """``values[0]`` is zero, ids are equal exactly when values are, and
    the ids cover the table: every value but zero is used."""
    assert values[0].is_exact_zero() and len(set(values)) == len(values)
    used = set(np.unique(ids).tolist())
    assert used | {0} == set(range(len(values)))


_TOLERANCES = st.sampled_from((0.0, 0.5, 2.0))


@settings(max_examples=60, deadline=None)
@given(_small_codes(), st.booleans(), _TOLERANCES)
def test_violations_match_the_per_pair_reference_on_drawn_codes(code, strict, tol):
    """The sparse engine: the id array over its interned values is the
    per-pair ``inner_product`` table entry for entry, and the array
    comparison lists the reference's violations in its order."""
    errors = basic_error_set(code.n, families=_PAIR_ERRORS)
    images = _images(code, errors)
    which, ids, values = _gram._exact_gram(code.words, errors)
    _assert_ids_intern_the_values(ids, values)
    first = {a: x for x, a in reversed(list(enumerate(which)))}
    assert ids.shape == (len(first),) * 2
    for a, x in first.items():
        for b, y in first.items():
            assert values[ids[a, b]] == inner_product(images[x], images[y])
    G = klverify.GramTensor(errors, len(code.words), which, ids, values)
    keys = range(len(code.words))
    assert _gram._violations(G, keys, tol, strict) == reference_violations(G, keys, tol, strict)


@settings(max_examples=40, deadline=None)
@given(_orbit_cases(fields=((1, 2, 3, 6),)), st.booleans(), _TOLERANCES)
def test_violations_match_the_per_pair_reference_on_orbit_codes(case, strict, tol):
    """The orbit engine: its ids read the sparse engine's table entry for
    entry, and the array comparison lists the reference's violations.  The
    radicands 1, 2, 3 and 6 give two radicand pairs of one product
    radicand, sqrt(2) sqrt(3) and sqrt(6) * 1, whose sums must meet in one
    value."""
    code, errors, near = case
    G = gram_tensor(code, errors)
    _assert_ids_intern_the_values(G.table, G.values)
    if not near:
        coeffs = [_gram._orbit_coefficients(w) for w in code.words]
        orbit = _gram._orbit_gram(code.n, coeffs, errors)
        assert G == klverify.GramTensor(errors, len(code.words), *orbit)
        with mock.patch.object(_gram, "_orbit_coefficients", lambda word: None):
            assert G.entries == gram_tensor(code, errors).entries
    keys = range(len(code.words))
    assert _gram._violations(G, keys, tol, strict) == reference_violations(G, keys, tol, strict)


@pytest.mark.parametrize(
    "name, tol, count",
    [("shor9", 0.0, 162), ("shor9", 2.5, 162), ("shor9", 4.5, 0), ("five-qubit", 4.5, 60),
     ("five-qubit", 10.0, 20)],
)
def test_exact_mode_with_a_positive_tolerance_matches_float_mode(name, tol, count):
    """Under ``pauli+exchange`` shor9's 162 ``block_mismatch`` entries all
    differ by 4, and five-qubit's 40 ``cross_word`` and 20
    ``block_mismatch`` entries by 8 and 16: exact and float mode list the
    same violations with the same magnitudes at every tolerance."""
    code = builtin_code(name)
    errors = basic_error_set(code.n, families=_PAIR_ERRORS)
    exact, floating = verify_kl(code, errors, tol=tol), verify_kl(code.to_float(), errors, tol=tol)
    assert len(exact.violations) == len(floating.violations) == count
    assert exact.correctable == floating.correctable == (count == 0)
    assert exact.rank == floating.rank
    for e, f in zip(exact.violations, floating.violations):
        assert (e.kind, e.i, e.j, e.p, e.q) == (f.kind, f.i, f.j, f.p, f.q)
        assert e.magnitude == pytest.approx(f.magnitude, abs=1e-9) and e.magnitude > tol
    if tol == 10.0:
        assert {v.kind for v in exact.violations} == {"block_mismatch"}


def test_extended_family_with_disjoint_members():
    fam = [
        Code(2, (StateVector.basis(2, 0b00), StateVector.basis(2, 0b01))),
        Code(2, (StateVector.basis(2, 0b10), StateVector.basis(2, 0b11))),
    ]
    errors = basic_error_set(2, families=("identity_only",))
    rep = verify_kl_extended(fam, errors)
    assert rep.correctable
    assert rep.rank == 1
    assert rep.dimension_used == 4  # four (word, member) pairs, rank 1


def test_extended_family_detects_member_overlap():
    fam = [
        Code(2, (StateVector.basis(2, 0b00), StateVector.basis(2, 0b01))),
        Code(2, (StateVector.basis(2, 0b00), StateVector.basis(2, 0b11))),
    ]
    errors = basic_error_set(2, families=("identity_only",))
    rep = verify_kl_extended(fam, errors)
    assert not rep.correctable
    v = rep.violations[0]
    assert v.kind == "cross_word"
    assert v.i == (0, 0) and v.j == (0, 1)  # same word slot, different members


def test_extended_family_validates_shapes(ruskai9, rep3, full_error_set_9):
    with pytest.raises(ValueError):
        verify_kl_extended([], full_error_set_9)
    with pytest.raises(ValueError):
        verify_kl_extended([ruskai9, rep3], full_error_set_9)
    with pytest.raises(ValueError):
        verify_kl_extended([rep3], full_error_set_9)


# ----------------------------------------------------------------- recovery


def test_recovery_corrects_single_paulis(ruskai9, full_error_set_9, ruskai9_report):
    rec = build_recovery(ruskai9, full_error_set_9, ruskai9_report.d_matrix)
    encoded = (ruskai9.words[0] + ruskai9.words[1].scaled(2)).to_float()
    for op_text in ("X3", "Y7", "Z1", "E(2,5)", "I"):
        (op,) = parse_error_ops(op_text, 9)
        corrupted = op.apply(encoded)
        assert rec.fidelity(encoded, corrupted) == pytest.approx(1.0, abs=1e-10)
        decoded = rec.recover(corrupted)
        ideal = encoded.dense / np.linalg.norm(encoded.dense)
        assert abs(np.vdot(ideal, decoded.dense)) == pytest.approx(1.0, abs=1e-10)


def reference_recovery_basis(code, errors, d_matrix):
    """The per-(r, i, p) loop that built the recovery basis before the one
    contraction, kept as its reference: copy r of word i is
    ``sum_p U[p, r] e_p C_i / sqrt(lam_r)`` over the kept eigenvalues."""
    D = d_matrix.to_float()
    lam, U = np.linalg.eigh((D + D.conj().T) / 2)
    cutoff = DEFAULT_FLOAT_TOL * max(1.0, float(lam.max()))
    keep = [r for r in range(len(lam)) if lam[r] > cutoff]
    words = np.array([w.to_float().dense for w in code.words])
    images = dense_images(errors.ops, words).reshape(len(errors), len(words), -1)
    basis = np.empty((len(keep), len(words), 1 << code.n), dtype=np.complex128)
    for out_r, r in enumerate(keep):
        for i in range(len(words)):
            vec = np.zeros(1 << code.n, dtype=np.complex128)
            for p in range(len(errors)):
                if U[p, r] != 0:
                    vec += U[p, r] * images[p][i]
            basis[out_r, i] = vec / math.sqrt(lam[r])
    return basis


@pytest.mark.parametrize(
    "name, families", [("ruskai9", ("single_pauli", "exchange")), ("five-qubit", ("single_pauli",))]
)
def test_recovery_basis_matches_the_per_copy_loop(name, families):
    code = builtin_code(name)
    errors = basic_error_set(code.n, families=families)
    d_matrix = verify_kl(code, errors).d_matrix
    rec = build_recovery(code, errors, d_matrix)
    expected = reference_recovery_basis(code, errors, d_matrix)
    assert rec.basis.shape == expected.shape
    assert np.abs(rec.basis - expected).max() < 1e-12


def test_recovery_operation_keeps_only_what_recovery_reads(
    ruskai9, full_error_set_9, ruskai9_report
):
    rec = build_recovery(ruskai9, full_error_set_9, ruskai9_report.d_matrix)
    assert [f.name for f in dataclasses.fields(rec)] == ["n", "basis", "codewords"]


def test_recovery_branches_weights_sum_to_norm(ruskai9, full_error_set_9, ruskai9_report):
    rec = build_recovery(ruskai9, full_error_set_9, ruskai9_report.d_matrix)
    corrupted = PauliString.single(9, "X", 4).apply(ruskai9.words[0].to_float())
    weights = [w for w, _ in rec.branches(corrupted)]
    norm2 = float(np.vdot(corrupted.dense, corrupted.dense).real)
    assert sum(weights) == pytest.approx(norm2, rel=1e-9)


def test_recovery_rejects_foreign_d_matrix(ruskai9, full_error_set_9, ruskai9_report):
    d = ruskai9_report.d_matrix
    doubled = _d_of(
        tuple(
            tuple(InnerProductValue.exact_rational(v.as_fraction() * 2) for v in row)
            for row in d.entries
        ),
        d.labels,
        d.families,
    )
    with pytest.raises(ArithmeticError, match="orthonormality"):
        build_recovery(ruskai9, full_error_set_9, doubled)


def test_recovery_rejects_indefinite_d_matrix(rep3):
    errors = basic_error_set(3, families=("identity_only",))
    fake = _d_of(((InnerProductValue.exact_rational(-1),),), ("I",), ("identity",))
    with pytest.raises(ArithmeticError, match="positive semidefinite"):
        build_recovery(rep3, errors, fake)


# -------------------------------------------------------------------- bounds


def test_dimension_bounds():
    assert dimension_bound("single_bit").min_n == 5
    assert dimension_bound("all_two_bit_plus_single").min_n == 10
    rep = dimension_bound("irrep_proposal")
    assert rep.min_n == 9
    # n=1 satisfies the inequality trivially but the run is not stable there
    flags = [ok for (_, _, _, ok) in rep.trace]
    assert flags[0] is True and not any(flags[1:8]) and flags[8] is True
    with pytest.raises(ValueError):
        dimension_bound("bogus")
    assert dimension_bound("single_bit", n=64).trace[-1][0] == 64
    for n in (0, 65):
        with pytest.raises(ValueError, match=r"1\.\.64"):
            dimension_bound("single_bit", n=n)


def test_dimension_bound_trace_extension():
    rep = dimension_bound("single_bit", n=8)
    assert rep.trace[-1][0] == 8
    assert all(lhs <= rhs for (_, lhs, rhs, ok) in rep.trace if ok)
    assert any("min_n: 5" in line for line in rep.to_lines())


# ---------------------------------------------------------------- exchange demo


def test_exchange_demo_splits_into_halves():
    rep = shor_exchange_demo()
    assert len(rep.samples) == 3
    for s in rep.samples:
        assert s.psi_coefficient == pytest.approx(0.5, abs=1e-9)
        assert s.code_fraction == pytest.approx(0.25, abs=1e-9)
        assert s.single_pauli_fraction == pytest.approx(0.25, abs=1e-9)
        assert s.remainder_fraction == pytest.approx(0.5, abs=1e-9)
        assert s.detected_z_qubits == (7, 8, 9)
        assert s.remainder_vs_code < 1e-9
        assert s.remainder_vs_single_pauli < 1e-9
    lines = rep.to_lines()
    assert "sample 0: psi-coefficient 0.5, remainder-fraction 0.5" in lines
    assert "detected-z-qubits: 7 8 9" in lines


def test_exchange_demo_is_deterministic():
    assert shor_exchange_demo(seed=7).to_lines() == shor_exchange_demo(seed=7).to_lines()
    assert shor_exchange_demo(seed=1).samples != shor_exchange_demo(seed=2).samples
    with pytest.raises(ValueError):
        shor_exchange_demo(samples=0)


def test_exchange_demo_phase_flips_act_identically_within_block(shor9):
    # Z7, Z8, Z9 all act the same way on block-parity words, which is why
    # the detector reports all three
    for w in shor9.words:
        z7 = PauliString.single(9, "Z", 7).apply(w)
        z8 = PauliString.single(9, "Z", 8).apply(w)
        z9 = PauliString.single(9, "Z", 9).apply(w)
        assert z7 == z8 == z9


# ---------------------------------------------------------------- exact rank


def test_surd_d_matrix_rank_is_exact(monkeypatch):
    """D = [[3, 2 sqrt 2], [2 sqrt 2, 3]] on the X block has determinant 1;
    its rank comes from elimination over Q(sqrt 2), not from numpy."""
    code = parse_code("qubits: 3\nword 0:\n1 |000>\nsqrt(2) |011>\n")
    errors = ErrorSet.from_ops(3, parse_error_ops("X1, X2, X3, X1 X2 X3", 3))

    def forbidden(*args, **kwargs):
        raise AssertionError("float rank used on an exact D matrix")

    monkeypatch.setattr(np.linalg, "matrix_rank", forbidden)
    report = verify_kl(code, errors)
    assert report.correctable
    assert str(report.d_matrix.entries[1][4]) == "2 sqrt(2)"
    assert report.rank == 5


def test_surd_rank_sees_what_float_tolerance_hides():
    """[[p, q sqrt 2], [q sqrt 2, p]] with p^2 - 2 q^2 = 1 (p + q sqrt 2 =
    (3 + 2 sqrt 2)^10) is invertible, but its small singular value lies far
    below the float tolerance."""
    p, q = 3, 2
    for _ in range(9):
        p, q = 3 * p + 4 * q, 2 * p + 3 * q
    assert p * p - 2 * q * q == 1
    diag = InnerProductValue.exact_rational(p)
    off = InnerProductValue.exact({2: (Fraction(q), Fraction(0))})
    d = _d_of(((diag, off), (off, diag)), ("I", "X1"), ("identity", "bitflip"))
    assert d.rank() == 2
    m = d.to_float()
    assert np.linalg.matrix_rank(m, tol=1e-9 * np.abs(m).max()) == 1


_FIELD = st.dictionaries(
    st.sampled_from([1, 2, 3, 6]),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    max_size=2,
)


def _exact(v):
    """A ``_FIELD`` draw as an exact value."""
    return InnerProductValue.exact({r: (Fraction(a), Fraction(b)) for r, (a, b) in v.items()})


def _field_product(x, y):
    """(sum (a + b i) sqrt r) * (sum (c + d i) sqrt s) as the same kind of dict."""
    out = {}
    for r, (a, b) in x.items():
        for s, (c, d) in y.items():
            g = math.gcd(r, s)
            key = r * s // (g * g)
            re, im = out.get(key, (0, 0))
            out[key] = (re + g * (a * c - b * d), im + g * (a * d + b * c))
    return out


def _field_sum(values):
    out = {}
    for v in values:
        for r, (a, b) in v.items():
            re, im = out.get(r, (0, 0))
            out[r] = (re + a, im + b)
    return out


@st.composite
def _low_rank_matrices(draw):
    """B C over Q(i, sqrt 2, sqrt 3), B rows x k and C k x cols."""
    rows, inner, cols = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    b = [[draw(_FIELD) for _ in range(inner)] for _ in range(rows)]
    c = [[draw(_FIELD) for _ in range(cols)] for _ in range(inner)]
    return [
        [_field_sum(_field_product(b[i][t], c[t][j]) for t in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


@settings(max_examples=200, deadline=None)
@given(_low_rank_matrices())
def test_exact_d_matrix_rank_matches_numpy(matrix):
    """``surd_rank`` on every draw, rectangular ones too, and ``DMatrix.rank``
    on the square ones, equal numpy's float rank."""
    entries = tuple(tuple(_exact(v) for v in row) for row in matrix)
    floats = np.array([[v.float_view for v in row] for row in entries], dtype=np.complex128)
    expected = np.linalg.matrix_rank(floats)
    assert surd_rank([[v.parts for v in row] for row in entries]) == expected
    if len(entries) == len(entries[0]):
        d = _d_of(entries, ("I",) * len(entries), ("identity",) * len(entries))
        assert np.array_equal(d.to_float(), floats)
        assert d.rank() == expected


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6), _FIELD, _FIELD, st.sampled_from(["free", "equal", "cancel"]))
def test_two_value_rank_matches_dmatrix_rank(m, a, b, relation):
    """(a - b) I + b J over Q(i, sqrt 2, sqrt 3), with a == b and
    a + (m - 1) b == 0 drawn on purpose."""
    if relation == "equal":
        a = b
    elif relation == "cancel":
        a = {r: (-(m - 1) * x, -(m - 1) * y) for r, (x, y) in b.items()}
    a, b = _exact(a), _exact(b)
    entries = tuple(tuple(a if p == q else b for q in range(m)) for p in range(m))
    expected = surd_rank([[v.parts for v in row] for row in entries])
    assert klverify._split_rank(*_ids_of(entries), ("X",) * m) == expected
    if relation == "equal":
        assert expected == (1 if b.parts else 0)
    elif relation == "cancel":
        assert expected == (m - 1 if b.parts else 0)


def test_two_value_rank_leaves_other_blocks_to_elimination():
    """A one-run split takes a 1x1 block, and no block with two diagonal
    values, two off-diagonal values or float entries."""
    one = InnerProductValue.exact_rational(1)
    two = InnerProductValue.exact_rational(2)
    zero = InnerProductValue.exact_rational(0)
    def split(entries, families):
        return klverify._split_rank(*_ids_of(entries), families)

    assert split(((one,),), ("X",)) == 1
    assert split(((zero,),), ("X",)) == 0
    assert split(((one, zero), (zero, two)), ("X",) * 2) is None
    assert split(((one, zero), (two, one)), ("X",) * 2) is None
    floats = InnerProductValue.from_complex(1.0), InnerProductValue.from_complex(0.5)
    assert split((floats, floats[::-1]), ("X",) * 2) is None


@st.composite
def _split_shaped(draw):
    """D with the S_n split's shape over Q(i, sqrt 2, sqrt 3): an optional
    leading identity run with 0-2 exchanges, then 1-3 runs of one length n,
    every value drawn from a pool of three so that ties and rank drops come
    up; and the same D with one entry replaced, or None."""
    pool = [_exact(v) for v in draw(st.lists(_FIELD, min_size=3, max_size=3))]
    pick = st.sampled_from(pool)
    head = draw(st.sampled_from([0, 1, 2, 3]))
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    families = ("identity", "exchange", "exchange")[:head] + tuple(
        kind for kind in "XYZ"[:m] for _ in range(n)
    )
    row0 = (draw(pick),) * head + tuple(v for v in (draw(pick) for _ in range(m)) for _ in range(n))
    rows = [row0] * head
    for _ in range(m):
        c, ab = draw(pick), [(draw(pick), draw(pick)) for _ in range(m)]
        rows += [
            (c,) * head + tuple(v for a, b in ab for v in (b,) * k + (a,) + (b,) * (n - 1 - k))
            for k in range(n)
        ]
    perturbed = None
    if draw(st.booleans()):
        p, q = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        new = draw(st.sampled_from(pool + [InnerProductValue.exact_rational(5)]))
        perturbed = tuple(
            tuple(new if (i, j) == (p, q) else v for j, v in enumerate(row))
            for i, row in enumerate(rows)
        )
    return families, tuple(rows), perturbed


@settings(max_examples=150, deadline=None)
@given(_split_shaped())
def test_split_rank_matches_elimination_of_the_full_matrix(case):
    """``DMatrix.rank`` of an S_n-shaped D, which takes the split, and of the
    same D with one entry changed, equals ``surd_rank`` of the whole matrix."""
    families, entries, perturbed = case
    assert klverify._split_rank(*_ids_of(entries), families) is not None
    for d in (entries, perturbed) if perturbed else (entries,):
        full = surd_rank([[v.parts for v in row] for row in d])
        assert _d_of(d, families, families).rank() == full


@settings(max_examples=50, deadline=None)
@given(_low_rank_matrices())
def test_split_rank_declines_non_square_and_float_matrices(matrix):
    entries = tuple(tuple(_exact(v) for v in row) for row in matrix)
    rows, cols = len(entries), len(entries[0])
    if rows != cols:
        assert klverify._split_rank(*_ids_of(entries), ("X",) * rows) is None
        assert klverify._split_rank(*_ids_of(entries), ("X",) * cols) is None
    floats = tuple(
        tuple(InnerProductValue.from_complex(v.float_view) for v in row) for row in entries
    )
    assert klverify._split_rank(*_ids_of(floats), ("X",) * rows) is None


def test_split_rank_declines_the_float_d_of_ruskai9(ruskai9, full_error_set_9):
    d = verify_kl(ruskai9.to_float(), full_error_set_9).d_matrix
    assert klverify._split_rank(*d.table, d.families) is None
    assert d.rank() == 28


def test_ruskai9_rank_takes_the_split(ruskai9, full_error_set_9, monkeypatch):
    """``verify_kl`` and every ``d_blocks`` block rank ruskai9's D with no
    ``surd_rank`` call on more than 4 rows: a shape check that misses falls
    back to elimination on the 28 distinct rows and still gives 28."""
    sizes = []

    def recorded(matrix):
        sizes.append(len(matrix))
        return surd_rank(matrix)

    monkeypatch.setattr(klverify, "surd_rank", recorded)
    report = verify_kl(ruskai9, full_error_set_9)
    assert report.rank == 28
    assert d_blocks(report.d_matrix).total_rank == 28
    assert sizes and max(sizes) <= 4
