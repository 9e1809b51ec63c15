from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exqec import stabcheck
from exqec.codes import Code
from exqec.errorops import PauliString
from exqec.errors import ScanTooLarge
from exqec.qstate import Amplitude, StateVector
from exqec.stabcheck import (
    MAX_SCAN_QUBITS,
    eigenvector_witness,
    span_check,
    stabilizer_scan,
)


def stabilizes_directly(code, finding) -> bool:
    """Re-verify a finding by exact application to every word."""
    for word in code.words:
        image = finding.element.apply(word)
        expected = StateVector.from_terms(
            word.n,
            {i: a.times_i(finding.eigenvalue_exponent) for i, a in word.terms.items()},
        )
        if image != expected:
            return False
    return True


# ------------------------------------------------------------------- scans


def test_dual_orbit_code_has_no_stabilizers(ruskai9):
    rep = stabilizer_scan(ruskai9)
    assert rep.scanned == 4**9
    assert rep.findings == ()
    assert not rep.is_nontrivially_stabilized
    assert "nontrivially-stabilized: false" in rep.to_lines()


def test_block_parity_code_stabilizer_count(shor9):
    rep = stabilizer_scan(shor9)
    assert len(rep.findings) == 255
    assert rep.is_nontrivially_stabilized
    # the 255 classes are the nontrivial elements of a 2^8-element group,
    # all with eigenvalue +1 on the code space
    assert {f.eigenvalue_exponent for f in rep.findings} == {0}
    for finding in rep.findings[::37]:
        assert stabilizes_directly(shor9, finding)
    lines = rep.to_lines()
    assert lines[-1] == "finding: ... 215 more"
    assert sum(line.startswith("finding:") for line in lines) == 41


def test_block_parity_findings_form_a_group(shor9):
    keys = {(f.element.x_mask, f.element.z_mask) for f in stabilizer_scan(shor9).findings}
    keys.add((0, 0))
    sample = sorted(keys)[::16]
    for a1, b1 in sample:
        for a2, b2 in sample:
            assert (a1 ^ a2, b1 ^ b2) in keys


def test_repetition_code_stabilizers(rep3):
    rep = stabilizer_scan(rep3)
    assert [f.element.to_letters() for f in rep.findings] == ["IZZ", "ZIZ", "ZZI"]
    assert all(f.eigenvalue == 1 for f in rep.findings)
    assert all(stabilizes_directly(rep3, f) for f in rep.findings)


def test_cyclic_stabilizer_code_scan(five_qubit):
    rep = stabilizer_scan(five_qubit)
    assert len(rep.findings) == 15
    exponents = Counter(f.eigenvalue_exponent for f in rep.findings)
    # phase-free representatives of Y-bearing elements pick up a sign
    assert exponents == {0: 5, 2: 10}
    assert all(stabilizes_directly(five_qubit, f) for f in rep.findings)
    letters = {f.element.to_letters().lstrip("-") for f in rep.findings}
    assert {"XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"} <= letters


_AMPS = (
    Amplitude.make(1), Amplitude.make(-1), Amplitude.make(0, 1), Amplitude.make(0, -1),
    Amplitude.make(2), Amplitude.make(1, 0, 2),
)


@st.composite
def _coset_codes(draw):
    """One or two words on n <= 4 qubits, each supported on a coset c + S
    of a GF(2) subspace S, amplitudes from {+-1, +-i, 2, sqrt(2)}: either
    drawn per component, or one amplitude times i^|t & v| (-1)^(s.v) so
    that a word is often a stabilizer state.  Two words may share S, s
    and t, which makes the X-type findings common to both likely."""
    n = draw(st.integers(1, 4))
    mask = st.integers(0, (1 << n) - 1)

    def space():
        span = {0}
        for g in draw(st.lists(mask, max_size=n)):
            span |= {v ^ g for v in span}
        return span, draw(mask), draw(mask)

    shared = space() if draw(st.booleans()) else None
    words = []
    for _ in range(draw(st.integers(1, 2))):
        span, s, t = shared or space()
        c = draw(mask)
        support = sorted(c ^ v for v in span)
        if shared is None and draw(st.booleans()):
            amps = draw(st.lists(st.sampled_from(_AMPS), min_size=len(support), max_size=len(support)))
        else:
            base = draw(st.sampled_from(_AMPS))
            amps = [base.times_i((t & v).bit_count() + 2 * (s & v).bit_count()) for v in support]
        words.append(StateVector.from_terms(n, dict(zip(support, amps))))
    return Code(n, tuple(words))


def brute_force_findings(code):
    """Every X(a)Z(b) applied to every word and compared exactly with
    i^m times the word, in (b, a) order, identity excluded."""
    n, found = code.n, []
    for b in range(1 << n):
        for a in range(1 << n):
            if a or b:
                element = PauliString(n, a, b, 0)
                for m in range(4):
                    finding = stabcheck.StabilizerFinding(element, m)
                    if stabilizes_directly(code, finding):
                        found.append(finding)
    return found


@settings(max_examples=200, deadline=None)
@given(_coset_codes())
def test_scan_matches_brute_force(code):
    assert list(stabilizer_scan(code).findings) == brute_force_findings(code)


def test_scan_solves_for_b_instead_of_testing_each_class(shor9, monkeypatch):
    """The scan never runs the per-class eigen-equation: it sets up one
    GF(2) system per support-stable a, at most one per word-0 component."""
    systems = []
    real = stabcheck._equations

    def counted(tables, a, v0):
        systems.append(a)
        return real(tables, a, v0)

    def forbidden(*args, **kwargs):
        raise AssertionError("stabilizer_scan tested a class with _eigen")

    monkeypatch.setattr(stabcheck, "_eigen", forbidden)
    monkeypatch.setattr(stabcheck, "_equations", counted)
    assert len(stabilizer_scan(shor9).findings) == 255
    assert 0 < len(systems) <= len(shor9.words[0].terms)


def test_scan_guards():
    big = Code(13, (StateVector.basis(13, 0),))
    with pytest.raises(ScanTooLarge):
        stabilizer_scan(big)
    assert MAX_SCAN_QUBITS == 12
    floaty = Code(2, (StateVector.basis(2, 0).to_float(),))
    with pytest.raises(ValueError):
        stabilizer_scan(floaty)


# -------------------------------------------------------------- span check


@pytest.mark.parametrize("n", range(2, 11))
def test_span_check_truth_table(n):
    for kappa in range(0, n + 1):
        assert span_check(kappa, n) == (0 < kappa < n)


def test_span_check_edges():
    assert span_check(1, 1) is True  # the single weight-1 vector spans Q^1
    assert span_check(0, 0) is True
    assert span_check(0, 3) is False
    with pytest.raises(ValueError):
        span_check(4, 3)
    with pytest.raises(ValueError):
        span_check(-1, 3)


# --------------------------------------------------------------- witnesses


def test_witness_word_mismatch_on_all_z(ruskai9):
    report = eigenvector_witness(ruskai9, PauliString(9, 0, 0b111111111, 0))
    assert report.kind == "word_mismatch"
    # word 0 has even weights (0, 6): eigenvalue +1; word 1 odd (9, 3): -1
    assert report.eigenvalue_exponents == (0, 2)
    assert any("disagree" in line for line in report.to_lines())


def test_witness_support_kind(ruskai9):
    report = eigenvector_witness(ruskai9, PauliString.single(9, "X", 1))
    assert report.kind == "support"
    assert report.word == 0


def test_witness_phase_kind():
    cat = Code(2, (StateVector.basis(2, 0b00) + StateVector.basis(2, 0b11),))
    report = eigenvector_witness(cat, PauliString.single(2, "Z", 1))
    assert report.kind == "phase"
    assert report.word == 0


def test_witness_stabilizes_kind(shor9, rep3):
    report = eigenvector_witness(shor9, PauliString.from_letters("ZZIIIIIII"))
    assert report.kind == "stabilizes"
    assert report.eigenvalue_exponents == (0,)
    assert "eigenvalue: 1" in report.to_lines()
    z1 = eigenvector_witness(rep3, PauliString.single(3, "Z", 1))
    assert z1.kind == "word_mismatch"
    assert z1.eigenvalue_exponents == (0, 2)


def test_witness_respects_element_phase(rep3):
    # -IZZ stabilizes with eigenvalue -1, not +1
    minus = PauliString(3, 0, 0b011, 2)
    report = eigenvector_witness(rep3, minus)
    assert report.kind == "stabilizes"
    assert report.eigenvalue_exponents == (2,)


def test_witness_validates_sizes(rep3):
    with pytest.raises(ValueError):
        eigenvector_witness(rep3, PauliString.single(4, "Z", 1))


def test_witness_agrees_with_scan(five_qubit):
    for finding in stabilizer_scan(five_qubit).findings:
        report = eigenvector_witness(five_qubit, finding.element)
        assert report.kind == "stabilizes"
        assert report.eigenvalue_exponents == (finding.eigenvalue_exponent,)
