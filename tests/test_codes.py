from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exqec import _gram, cli, codes
from exqec.codes import (
    BUILTIN_CODES,
    Code,
    PermInvariantSpec,
    amplitude_token,
    builtin_code,
    parse_amplitude,
    parse_code,
    perm_invariant_code,
    ruskai9_code,
    serialize_code,
)
from exqec.errorops import ErrorOperator, ErrorSet, basic_error_set
from exqec.errors import CodeParseError, ExactArithmeticError, InvalidCodeError
from exqec.qstate import (
    AMP_ZERO,
    Amplitude,
    QubitPermutation,
    StateVector,
    apply_permutation,
    inner_product,
    orbit_sum,
)
from test_klverify import _small_codes

DATA = Path(__file__).parent / "data"


# ------------------------------------------------------------ built-in codes


def test_builtin_registry():
    assert set(BUILTIN_CODES) == {"ruskai9", "shor9", "rep3", "five-qubit"}
    with pytest.raises(KeyError):
        builtin_code("nope")


def test_dual_orbit_words(ruskai9):
    assert ruskai9.n == 9
    assert ruskai9.num_words() == 2
    for w in ruskai9.words:
        assert w.norm2().as_fraction() == 4
        assert len(w.terms) == 85
    assert ruskai9.words[1] == ruskai9.words[0].complement()
    # word 0: all-zeros plus the weight-6 orbit at 1/sqrt(28)
    w0 = ruskai9.words[0]
    assert w0.terms[0].re == 1
    sample = next(i for i in w0.support() if i)
    assert bin(sample).count("1") == 6
    assert w0.terms[sample].re == Fraction(1, 14)
    assert w0.terms[sample].radicand == 7


def test_block_parity_words(shor9):
    for w in shor9.words:
        assert w.norm2().as_fraction() == 4
        assert len(w.terms) == 4
    # word supports follow the three-bit block patterns
    def blocks(idx):
        bits = format(idx, "09b")
        return [bits[0:3], bits[3:6], bits[6:9]]

    for idx in shor9.words[0].support():
        assert all(b in ("000", "111") for b in blocks(idx))
        assert sum(b == "111" for b in blocks(idx)) % 2 == 0
    for idx in shor9.words[1].support():
        assert sum(b == "111" for b in blocks(idx)) % 2 == 1


def test_repetition_words(rep3):
    assert rep3.words[0].support() == frozenset({0b000})
    assert rep3.words[1].support() == frozenset({0b111})


def test_cyclic_stabilizer_words(five_qubit):
    for w in five_qubit.words:
        assert w.norm2().as_fraction() == 16
        assert len(w.terms) == 16
        values = {a.re for a in w.terms.values()}
        assert values == {Fraction(1), Fraction(-1)}
    assert five_qubit.check() == []


# ------------------------------------------------------- validation plumbing


def test_check_reports_offenders():
    overlapping = Code(
        2,
        (
            StateVector.basis(2, 0),
            StateVector.basis(2, 0) + StateVector.basis(2, 3),
        ),
    )
    found = overlapping.check()
    pairs = {(i, j) for i, j, _ in found}
    assert (0, 1) in pairs  # cross term
    assert (1, 1) in pairs  # norm mismatch
    with pytest.raises(InvalidCodeError) as err:
        overlapping.validate()
    assert err.value.offenders == found


def test_code_rejects_empty_and_mixed_modes():
    with pytest.raises(InvalidCodeError):
        Code(2, ())
    with pytest.raises(ValueError):
        Code(2, (StateVector.basis(2, 0), StateVector.basis(2, 3).to_float()))


def test_perm_invariant_constructor_matches_orbits(ruskai9):
    spec = PermInvariantSpec(
        9,
        (
            {0: Amplitude.make(1), 6: Amplitude.make(Fraction(1, 28), 0, 28)},
            {9: Amplitude.make(1), 3: Amplitude.make(Fraction(1, 28), 0, 28)},
        ),
    )
    code = perm_invariant_code(spec, label="direct")
    assert code.words == ruskai9.words
    assert code.label == "direct"


def test_perm_invariant_constructor_rejects_overlap():
    spec = PermInvariantSpec(4, ({0: Amplitude.make(1)}, {0: Amplitude.make(1)}))
    with pytest.raises(InvalidCodeError):
        perm_invariant_code(spec)
    with pytest.raises(ValueError):
        PermInvariantSpec(4, ({5: Amplitude.make(1)},))


# ----------------------------------------------------------------- amp tokens


@pytest.mark.parametrize(
    "token,expected",
    [
        ("1/sqrt(28)", Amplitude.make(Fraction(1, 28), 0, 28)),
        ("1/14*sqrt(7)", Amplitude.make(Fraction(1, 14), 0, 7)),
        ("sqrt(7)", Amplitude.make(1, 0, 7)),
        ("-2/3*i", Amplitude.make(0, Fraction(-2, 3))),
        ("i*sqrt(3)", Amplitude.make(0, 1, 3)),
        ("-1", Amplitude.make(-1)),
        ("+3/4", Amplitude.make(Fraction(3, 4))),
    ],
)
def test_parse_amplitude_cases(token, expected):
    assert parse_amplitude(token) == expected


@pytest.mark.parametrize(
    "bad", ["", "foo", "1+i", "sqrt(-1)", "1//2", "1/0", "-3/0*i", "1/0*sqrt(2)"]
)
def test_parse_amplitude_rejects(bad):
    with pytest.raises(ValueError):
        parse_amplitude(bad)


def test_parse_amplitude_caps_the_radicand():
    """Radicands up to 10**6 parse; a larger one fails at once instead of
    spending about sqrt(r) trial divisions on its squarefree form."""
    assert parse_amplitude("sqrt(1000000)") == Amplitude.make(1000)
    assert parse_amplitude("1/sqrt(999999)") == Amplitude(Fraction(1, 333333), Fraction(0), 111111)
    for bad in ("sqrt(1000001)", "1/sqrt(1048576)", "2*i*sqrt(100000000000031)"):
        with pytest.raises(ValueError, match="exceeds 1000000.*1/1024 for 1/sqrt"):
            parse_amplitude(bad)


simple_amplitudes = st.builds(
    lambda c, r, use_im: Amplitude.make(0, c, r) if use_im else Amplitude.make(c, 0, r),
    st.fractions(min_value=Fraction(-20), max_value=Fraction(20), max_denominator=40).filter(bool),
    st.integers(min_value=1, max_value=60),
    st.booleans(),
)


@given(simple_amplitudes)
def test_amplitude_token_round_trips(amp):
    assert parse_amplitude(amplitude_token(amp)) == amp


def test_amplitude_token_rejects_mixed():
    with pytest.raises(ValueError):
        amplitude_token(Amplitude.make(1, 1))


# ------------------------------------------------------------- file format


def test_parse_code_orbit_shorthand(ruskai9):
    code = parse_code((DATA / "dual_orbit9.code").read_text())
    assert code.label == "dual-orbit"
    assert code.words == ruskai9.words


def test_parse_code_validation_toggle():
    text = (DATA / "invalid_overlap.code").read_text()
    with pytest.raises(InvalidCodeError):
        parse_code(text)
    code = parse_code(text, validate=False)
    assert code.num_words() == 2


def reference_check(code):
    """``Code.check`` written as one ``inner_product`` per norm and per
    pair, kept as its reference."""
    tol = 0.0 if code.mode == "exact" else 1e-9

    def nonzero(v):
        return not v.is_exact_zero() if tol == 0.0 and v.is_exact else v.magnitude() > tol

    offenders = []
    norms = [inner_product(w, w) for w in code.words]
    for i in range(len(code.words)):
        for j in range(i + 1, len(code.words)):
            v = inner_product(code.words[i], code.words[j])
            if nonzero(v):
                offenders.append((i, j, v))
    for i, nv in enumerate(norms[1:], start=1):
        if nonzero(nv.sub(norms[0])):
            offenders.append((i, i, nv))
    return offenders


def _assert_check_matches_reference(code):
    got, expected = code.check(), reference_check(code)
    assert got == expected
    assert [str(v) for *_, v in got] == [str(v) for *_, v in expected]


@settings(max_examples=100, deadline=None)
@given(_small_codes(), st.booleans())
def test_check_matches_the_per_pair_loop(code, float_mode):
    _assert_check_matches_reference(code.to_float() if float_mode else code)


_AMPS = st.builds(
    Amplitude.make,
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.sampled_from((1, 2, 3, 7)),
).filter(lambda a: not a.is_zero())


@st.composite
def _valid_sparse_codes(draw):
    """Two or three words on disjoint kets, each word the same amplitudes
    in its own order times its own unit phase: orthogonal, equal norms."""
    n = draw(st.integers(min_value=2, max_value=5))
    w = draw(st.integers(min_value=2, max_value=3))
    m = draw(st.integers(min_value=1, max_value=min(4, (1 << n) // w)))
    kets = draw(st.permutations(range(1 << n)))[: w * m]
    amps = draw(st.lists(_AMPS, min_size=m, max_size=m))
    words = []
    for i in range(w):
        order, turn = draw(st.permutations(amps)), draw(st.integers(0, 3))
        words.append({k: a.times_i(turn) for k, a in zip(kets[i * m : (i + 1) * m], order)})
    return n, words


@st.composite
def _valid_orbit_codes(draw):
    """Complement-dual orbit codes: word 0 sums whole weight orbits over
    weights A, with A and n - A disjoint, and word 1 is its bit complement
    times a unit phase."""
    n = draw(st.integers(min_value=2, max_value=9))
    weights = draw(
        st.sets(st.integers(0, n), min_size=1, max_size=3).filter(
            lambda ws: not ws & {n - w for w in ws}
        )
    )
    coeffs = {w: draw(_AMPS) for w in sorted(weights)}
    turn = draw(st.integers(0, 3))
    word = lambda cs: {k: a for w, a in cs.items() for k in orbit_sum(n, w).terms}  # noqa: E731
    return n, [word(coeffs), word({n - w: a.times_i(turn) for w, a in coeffs.items()})], coeffs


@st.composite
def _valid_and_broken_codes(draw):
    """A drawn valid code, kept or broken: one amplitude changed (a whole
    weight orbit's, for an orbit code) or one ket of word 0 put in word 1."""
    kind = draw(st.sampled_from(("sparse", "orbit")))
    if kind == "sparse":
        n, words = draw(_valid_sparse_codes())
    else:
        n, words, coeffs = draw(_valid_orbit_codes())
    how = draw(st.sampled_from(("valid", "amplitude", "shared")))
    if how == "amplitude" and kind == "orbit":
        weight = draw(st.sampled_from(sorted(coeffs)))
        new = draw(_AMPS.filter(lambda a: a != coeffs[weight]))
        words[0].update(dict.fromkeys(orbit_sum(n, weight).terms, new))
    elif how == "amplitude":
        i = draw(st.integers(0, len(words) - 1))
        ket = draw(st.sampled_from(sorted(words[i])))
        words[i][ket] = draw(_AMPS.filter(lambda a: a != words[i][ket]))
    elif how == "shared":
        words[1][draw(st.sampled_from(sorted(words[0])))] = draw(_AMPS)
    return how, Code(n, tuple(StateVector.from_terms(n, w) for w in words))


@settings(max_examples=150, deadline=None)
@given(_valid_and_broken_codes())
def test_offenders_on_the_full_gram_match_check(drawn):
    """The two readers of a code's validity agree: ``_offenders`` on the
    ``pauli+exchange`` Gram gives ``Code.check``'s list, in the same order
    and value for value, on valid and broken sparse and orbit codes."""
    how, code = drawn
    expected = code.check()
    if how == "valid":
        assert expected == []
    G = _gram._gram(code.words, basic_error_set(code.n, ("single_pauli", "exchange")))
    got = _gram._offenders(G, 0.0)
    assert got == expected
    assert [str(v) for *_, v in got] == [str(v) for *_, v in expected]


def test_offenders_need_the_identity_first():
    """``ErrorSet`` takes any operator labelled ``I`` first; the validity
    reader also checks its form."""
    code = builtin_code("rep3")
    disguised = ErrorOperator(3, 0b100, 0, 0, (), "I")  # X1, labelled I
    G = _gram._gram(code.words, ErrorSet(3, (disguised,)))
    with pytest.raises(ValueError, match="the first error I is not the identity"):
        _gram._offenders(G, 0.0)


@pytest.mark.parametrize("float_mode", [False, True])
def test_check_matches_the_per_pair_loop_on_an_invalid_file(float_mode):
    code = parse_code((DATA / "invalid_overlap.code").read_text(), validate=False)
    assert code.check()
    _assert_check_matches_reference(code.to_float() if float_mode else code)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("mode", ["exact", "float"])
def test_check_and_validate_reject_a_bad_tolerance(capsys, tol, mode):
    """Every ``magnitude > nan`` is False, so a nan bound would accept the
    overlapping words: ``check`` and ``validate`` reject each bad bound
    with the message the CLI gives for ``--tol``."""
    path = DATA / "invalid_overlap.code"
    code = parse_code(path.read_text(), validate=False)
    code = code.to_float() if mode == "float" else code
    assert cli.run(["--mode", mode, "--tol", str(tol), "verify", "--codefile", str(path)]) == 2
    message = capsys.readouterr().err.removeprefix("error: ").rstrip("\n")
    assert message == f"tolerance must be finite and nonnegative, got {tol}"
    for method in (code.check, code.validate):
        with pytest.raises(ValueError) as raised:
            method(tol)
        assert str(raised.value) == message


def test_validating_an_orbit_code_takes_no_state_gram(monkeypatch):
    """Orbit words are validated by the orbit engine: the orbit-shorthand
    file and ruskai9 written ket by ket parse with the sparse and float
    Gram engines unavailable, and an orbit code whose word 0 has another
    weight-6 amplitude gets the per-pair loop's offenders."""

    def forbidden(*args, **kwargs):
        raise AssertionError("an orbit code took a state Gram engine")

    monkeypatch.setattr(_gram, "_exact_gram", forbidden)
    monkeypatch.setattr(_gram, "_float_gram", forbidden)
    ruskai9 = ruskai9_code()
    for text in ((DATA / "dual_orbit9.code").read_text(), serialize_code(ruskai9)):
        assert parse_code(text).words == ruskai9.words
    amp = Amplitude.make(Fraction(1, 14), 0, 2)
    invalid = Code(9, (StateVector.basis(9, 0) + orbit_sum(9, 6).scaled(amp), ruskai9.words[1]))
    with pytest.raises(InvalidCodeError):
        invalid.validate()
    assert [(i, j) for i, j, _ in invalid.check()] == [(1, 1)]
    _assert_check_matches_reference(invalid)


@pytest.mark.parametrize("name", sorted(BUILTIN_CODES))
def test_serialize_round_trips(name):
    """Every ket line of a serialized builtin parses back to its term: equal
    terms in every word, and the same text when written again."""
    code = builtin_code(name)
    text = serialize_code(code)
    again = parse_code(text)
    assert [w.terms for w in again.words] == [w.terms for w in code.words]
    assert again.label == code.label
    assert serialize_code(again) == text


def test_serialize_requires_exact_mode(rep3):
    with pytest.raises(ValueError):
        serialize_code(rep3.to_float())


@pytest.mark.parametrize(
    "text,line",
    [
        ("word 0:\n1 |00>", 1),  # no qubits: header
        ("qubits: 2\nword 1:\n1 |00>", 2),  # wrong numbering
        ("qubits: 2\nqubits: 3", 2),  # duplicate header
        ("qubits: 2\n1 |00>", 2),  # entry outside a word
        ("qubits: 2\nword 0:\nfoo |00>", 3),  # bad coefficient
        ("qubits: 2\nword 0:\n1/0 |00>", 3),  # zero denominator
        ("qubits: 2\nword 0:\n1 |00>\nsqrt(100000000000031) |11>", 4),  # huge radicand
        ("qubits: 2\nword 0:\n1 |000>", 3),  # ket width mismatch
        ("qubits: 2\nword 0:\nword 1:\n1 |00>", 3),  # empty word
        ("qubits: 0\nword 0:\n1 |>", 1),  # bad qubit count
    ],
)
def test_parse_code_error_positions(text, line):
    with pytest.raises(CodeParseError) as err:
        parse_code(text)
    assert err.value.line == line


def test_parse_code_comments_and_blank_lines():
    text = "\n# leading comment\nqubits: 1\n\nword 0: # inline\n1 |0>\nword 1:\n1 |1>\n"
    code = parse_code(text)
    assert code.n == 1
    assert code.num_words() == 2


@pytest.mark.parametrize(
    "n, entry, column, message",
    [
        (3, "1 |0_1>", 3, "ket literal may contain only bits 0/1, got '|0_1>'"),
        (3, "1 |+01>", 3, "ket literal may contain only bits 0/1, got '|+01>'"),
        (3, "1 |>", 3, "ket literal may contain only bits 0/1, got '|>'"),
        (4, "1 |01\t0>", 3, "ket literal may contain only bits 0/1, got '|01\\t0>'"),
        (3, "1 |010", 3, "ket literal must look like |bits>, got '|010'"),
        (3, "1 010>", 3, "ket literal must look like |bits>, got '010>'"),
        (3, "0 |01>", 3, "ket has 2 bits but the file declares 3 qubits"),
        (3, "1/2 |0 1>", 5, "ket has 2 bits but the file declares 3 qubits"),
        (3, "1 |" + "0" * 25 + ">", 3, "qubit count must be between 1 and 24, got 25"),
    ],
)
def test_parse_code_malformed_ket_messages(n, entry, column, message):
    """A ket that is not ``|bits>`` of the declared width is reported at its
    column, whether or not it holds as many characters as the width."""
    with pytest.raises(CodeParseError) as err:
        parse_code(_one_word(n, "1 |" + "1" * n + ">", entry))
    assert (err.value.line, err.value.column) == (4, column)
    assert str(err.value) == f"line 4, column {column}: {message}"


def test_parse_code_ket_width_column():
    with pytest.raises(CodeParseError) as err:
        parse_code("qubits: 2\nword 0:\n1/2 |000>")
    assert err.value.line == 3
    assert err.value.column == len("1/2") + 2


# ---------------------------------------------------- summing a word's entries


def _one_word(n: int, *entries: str) -> str:
    return f"qubits: {n}\nword 0:\n" + "".join(f"{entry}\n" for entry in entries)


def test_parse_code_sums_a_repeated_ket():
    code = parse_code(_one_word(2, "1 |00>", "1/2 |11>", "1 |00>"))
    assert list(code.words[0].terms.items()) == [
        (0b00, Amplitude.make(2)), (0b11, Amplitude.make(Fraction(1, 2)))
    ]


def test_parse_code_drops_a_ket_whose_sum_cancels():
    code = parse_code(_one_word(2, "1 |00>", "1 |11>", "-1 |00>"))
    assert code.words[0].terms == {0b11: Amplitude.make(1)}
    with pytest.raises(CodeParseError) as err:
        parse_code(_one_word(2, "1 |00>", "-1 |00>"))
    assert str(err.value) == "line 4, column 1: last word has no entries"


def test_parse_code_orbit_adds_to_an_explicit_ket():
    code = parse_code(_one_word(2, "1 |01>", "1 orbit(k=1)"))
    assert code.words[0].terms == {0b01: Amplitude.make(2), 0b10: Amplitude.make(1)}


@pytest.mark.parametrize(
    "entries, position, radicands",
    [
        (("1 |00>", "sqrt(2) |00>"), "line 4, column 9", "1 and 2"),
        (("sqrt(2) |01>", "1 orbit(k=1)"), "line 4, column 3", "1 and 2"),
        (("1 orbit(k=1)", "sqrt(2) |01>"), "line 4, column 9", "1 and 2"),
        (("1 |00>", "sqrt(2) |01>", "sqrt(3) orbit(k=1)"), "line 5, column 9", "2 and 3"),
    ],
)
def test_parse_code_mixed_radicands_on_one_ket(entries, position, radicands):
    """The radicands are named in the order ``StateVector`` addition meets
    them: the larger of the word so far and the new entry comes first."""
    with pytest.raises(CodeParseError) as err:
        parse_code(_one_word(2, *entries))
    assert str(err.value) == (
        f"{position}: cannot add amplitudes with radicands {radicands}; "
        "convert to float mode for mixed surds"
    )


def _reference_word(n: int, entries: list[str]) -> StateVector:
    """A one-word file's word, summed one ``StateVector`` per entry line."""
    word = StateVector.zero(n)
    for lineno, entry in enumerate(entries, start=3):
        token, ket = entry.split(None, 1)
        amp = parse_amplitude(token)
        if ket.startswith("orbit"):
            term = orbit_sum(n, int(ket[len("orbit(k="):-1])).scaled(amp)
        else:
            term = StateVector.basis(n, int(ket[1:-1], 2), amp)
        try:
            word = word + term
        except ExactArithmeticError as exc:
            raise CodeParseError(str(exc), lineno, len(token) + 2)
    if word.is_zero():
        raise CodeParseError("last word has no entries", 2 + len(entries))
    return word


@st.composite
def _entry_lines(draw):
    n = draw(st.integers(1, 3))
    token = st.sampled_from(
        ["1", "-1", "0", "1/2", "i", "-i", "sqrt(2)", "-sqrt(2)", "2*sqrt(2)", "sqrt(3)"]
    )
    ket = st.one_of(
        st.integers(0, (1 << n) - 1).map(lambda idx: "|" + format(idx, f"0{n}b") + ">"),
        st.integers(0, n).map(lambda k: f"orbit(k={k})"),
    )
    entries = draw(st.lists(st.tuples(token, ket).map(" ".join), min_size=1, max_size=8))
    return n, entries


@settings(max_examples=300, deadline=None)
@given(_entry_lines())
def test_parse_code_sums_entries_as_state_addition_does(case):
    """Every entry list gives the word (terms and their order) or the parse
    error that adding one state per line gives."""
    n, entries = case
    try:
        expected = _reference_word(n, entries)
    except CodeParseError as exc:
        with pytest.raises(CodeParseError) as err:
            parse_code(_one_word(n, *entries))
        assert str(err.value) == str(exc)
    else:
        word = parse_code(_one_word(n, *entries)).words[0]
        assert list(word.terms.items()) == list(expected.terms.items())


def test_parse_code_parses_each_coefficient_token_once(monkeypatch):
    """170 entry lines of the relabelled ruskai9 file carry two tokens."""
    ruskai9 = builtin_code("ruskai9")
    perm = QubitPermutation((4, 9, 2, 7, 1, 6, 3, 8, 5))
    relabelled = Code(9, tuple(apply_permutation(w, perm) for w in ruskai9.words), "ruskai9")
    text = serialize_code(relabelled)
    calls = Counter()

    def counting(token):
        calls[token] += 1
        return parse_amplitude(token)

    monkeypatch.setattr(codes, "parse_amplitude", counting)
    assert parse_code(text).words == relabelled.words
    assert calls == {"1": 1, "1/14*sqrt(7)": 1}


def _parsed(text: str) -> tuple[list, str | None]:
    """The words' terms without validation, and the validation message
    (None when the file is valid)."""
    terms = [list(w.terms.items()) for w in parse_code(text, validate=False).words]
    try:
        parse_code(text)
    except (InvalidCodeError, CodeParseError) as exc:
        return terms, str(exc)
    return terms, None


@pytest.mark.parametrize(
    "entries",
    [
        ("0 |000>", "1 |011>"),  # a zero coefficient
        ("0*i |001>", "1 |011>"),  # an imaginary zero
        ("1 |010>", "1 |011>", "-1 |010>"),  # a ket added, then cancelled
        ("1 |011>", "1/2 |011>", "1 |100>"),  # a ket given twice: word 0 has norm 13/4
        ("0 |000>", "0*i |001>", "1 |010>", "-1 |010>", "1 |011>", "1/2 |011>"),
    ],
)
def test_parse_code_compact_kets_match_the_spaced_spelling(entries):
    """Compact kets decide zero once per token and skip the cancellation
    test for a first-seen ket; a space inside each ket takes ``parse_ket``
    and ``_add_terms`` instead.  Both spellings give the same terms and the
    same validation message (word 1 is ``|111>``, of norm 1)."""
    text = "qubits: 3\nword 0:\n" + "".join(f"{e}\n" for e in entries) + "word 1:\n1 |111>\n"
    spaced = text.replace("|0", "|0 ").replace("|1", "|1 ")
    assert spaced != text
    terms, message = _parsed(text)
    assert (terms, message) == _parsed(spaced)
    assert all(not amp.is_zero() for word in terms for _, amp in word)


def test_a_parsed_zero_is_the_zero_singleton():
    assert parse_amplitude("0") is AMP_ZERO
    assert parse_amplitude("0*i") is AMP_ZERO
    assert parse_amplitude("-0/3*sqrt(7)") is AMP_ZERO


def test_parse_code_tests_no_amplitude_for_zero_on_distinct_kets(monkeypatch):
    """Every ket of a serialized file is distinct and every coefficient
    nonzero: parsing it calls ``Amplitude.is_zero`` on no amplitude."""
    ruskai9 = builtin_code("ruskai9")
    text = serialize_code(ruskai9)
    calls = []
    is_zero = Amplitude.is_zero
    monkeypatch.setattr(Amplitude, "is_zero", lambda amp: calls.append(amp) or is_zero(amp))
    words = parse_code(text, validate=False).words
    assert calls == []
    assert words == ruskai9.words


# ----------------------------------------------------------- orbit identity


def test_orbit_entries_match_manual_expansion():
    text = "qubits: 3\nword 0:\n1/2 orbit(k=2)\n"
    code = parse_code(text, validate=False)
    assert code.words[0] == orbit_sum(3, 2).scaled(Fraction(1, 2))
