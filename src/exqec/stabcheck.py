"""Additivity testing: exhaustive stabilizer scans over the Pauli group.

A code is additive (a stabilizer code) when its code space is a joint
eigenspace of a nontrivial abelian subgroup of the Pauli group.  Since
scalar prefactors do not change eigenspaces, it is enough to scan the
4^n phase-free representatives X(a)Z(b) and ask for a single eigenvalue
common to every codeword.  The scan is exact and exhaustive.

The common-eigenvalue requirement matters.  For the 9-qubit
permutation-invariant code the all-Z string Z(1...1) fixes word 0 but
negates word 1, so it stabilizes each word separately yet no vector of
the two-dimensional code space other than the words themselves is an
eigenvector; the scan correctly rejects it.

``span_check`` quantifies the support-rigidity used in such arguments:
the weight-k basis vectors span the full n-dimensional rational space
exactly when 0 < k < n (for n >= 2).  Rational rank is the right notion
here — over GF(2) the even-weight strings only ever combine to
even-weight strings, which is precisely why Z(1...1) slips through the
single-word argument and the scan must compare eigenvalues across words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .codes import Code
from .errors import ScanTooLarge
from .errorops import PauliString
from .qstate import Amplitude
from ._linalg import rational_rank

__all__ = [
    "StabilizerFinding",
    "AdditivityReport",
    "WitnessReport",
    "stabilizer_scan",
    "span_check",
    "eigenvector_witness",
    "MAX_SCAN_QUBITS",
]

MAX_SCAN_QUBITS = 12

_EIGEN_TEXT = {0: "1", 1: "i", 2: "-1", 3: "-i"}


@dataclass(frozen=True)
class StabilizerFinding:
    """A phase-free Pauli element with the whole code space as eigenspace.

    ``element`` is the representative X(a)Z(b) (phase exponent 0); the
    common eigenvalue is i**eigenvalue_exponent.
    """

    element: PauliString
    eigenvalue_exponent: int

    @property
    def eigenvalue(self) -> complex:
        return 1j ** self.eigenvalue_exponent

    def describe(self) -> str:
        return f"{self.element.to_letters()} (eigenvalue {_EIGEN_TEXT[self.eigenvalue_exponent]})"


@dataclass(frozen=True)
class AdditivityReport:
    n: int
    is_nontrivially_stabilized: bool
    findings: tuple[StabilizerFinding, ...]
    scanned: int  # number of (a, b) pairs covered: 4**n

    def to_lines(self) -> list[str]:
        lines = [
            f"scanned: {self.scanned} operator classes",
            f"nontrivially-stabilized: {str(self.is_nontrivially_stabilized).lower()}",
            f"findings: {len(self.findings)}",
        ]
        for f in self.findings[:40]:
            lines.append(f"finding: {f.describe()}")
        if len(self.findings) > 40:
            lines.append(f"finding: ... {len(self.findings) - 40} more")
        return lines


def _word_tables(code: Code) -> list[dict[int, Amplitude]]:
    if code.mode != "exact":
        raise ValueError("stabilizer scan requires an exact-mode code")
    return [dict(w.terms) for w in code.words]


def _eigen(
    table: dict[int, Amplitude], a: int, b: int, phase: int = 0, m: int | None = None
) -> tuple[str | None, int | None]:
    """Check i^phase X(a)Z(b) w = i^m w for the word w with amplitudes ``table``.

    Returns ``(None, m)`` when it holds, else ``(kind, component)``: kind
    ``support`` when component v maps outside the support, ``phase`` when
    it breaks the eigenvalue.  A given ``m`` pins the eigenvalue to a
    previous word's.  The coefficient of |v + a> in the image is
    i^phase amp(v) (-1)^(b.v), which must equal i^m amp(v + a) for every
    v in the support.
    """
    for v, amp in table.items():
        signed = amp.times_i(phase + 2 * ((b & v).bit_count() & 1))
        target = table.get(v ^ a)
        if target is None:
            return "support", v
        if m is None:
            for cand in range(4):
                if target.times_i(cand) == signed:
                    m = cand
                    break
            else:
                return "phase", v
        elif target.times_i(m) != signed:
            return "phase", v
    return None, m


def stabilizer_scan(code: Code) -> AdditivityReport:
    """Scan all X(a)Z(b) classes for common-eigenvalue stabilizers.

    Exact and exhaustive over 4^n pairs; the identity class (0, 0) is
    excluded from findings.  The a-candidates are pruned by word-0
    support stability (a pure optimization: any a moving the support off
    itself fails the eigen-equation on a missing coefficient anyway).
    """
    n = code.n
    if n > MAX_SCAN_QUBITS:
        raise ScanTooLarge(
            f"stabilizer scan over {n} qubits needs 4**{n} = {4**n} operator "
            f"classes; the limit is {MAX_SCAN_QUBITS} qubits"
        )
    tables = _word_tables(code)
    supp0 = set(tables[0])
    anchor = next(iter(supp0))
    candidates_a = sorted(
        a
        for a in {anchor ^ v for v in supp0}
        if all(v ^ a in supp0 for v in supp0)
    )
    findings: list[StabilizerFinding] = []
    for b in range(1 << n):
        for a in candidates_a:
            if a == 0 and b == 0:
                continue
            m = None
            for table in tables:
                kind, m = _eigen(table, a, b, 0, m)
                if kind is not None:
                    break
            else:
                findings.append(StabilizerFinding(PauliString(n, a, b, 0), m))
    return AdditivityReport(
        n=n,
        is_nontrivially_stabilized=bool(findings),
        findings=tuple(findings),
        scanned=4**n,
    )


def span_check(kappa: int, n: int) -> bool:
    """Do the weight-``kappa`` vectors span all n-dimensional vectors?

    Rank over the rationals of the C(n, kappa) zero-one vectors of weight
    kappa.  True exactly when 0 < kappa < n, plus the degenerate full
    space at kappa = n = 1.
    """
    if not 0 <= kappa <= n:
        raise ValueError(f"need 0 <= kappa <= n, got kappa={kappa}, n={n}")
    if kappa == 0:
        return n == 0
    rows = []
    for ones in combinations(range(n), kappa):
        row = [Fraction(0)] * n
        for i in ones:
            row[i] = Fraction(1)
        rows.append(row)
    return rational_rank(rows) == n


@dataclass(frozen=True)
class WitnessReport:
    """Why a specific Pauli element fails (or passes) the eigen-equation.

    kinds: ``stabilizes`` (no witness), ``support`` (the image of some
    basis component leaves the word's support), ``phase`` (two components
    of one word demand different eigenvalues), ``word_mismatch`` (each
    word is an eigenvector but with different eigenvalues).
    """

    kind: str
    element: PauliString
    word: int | None = None
    component: int | None = None
    eigenvalue_exponents: tuple[int, ...] = ()

    def to_lines(self) -> list[str]:
        lines = [f"element: {self.element.to_letters()}", f"kind: {self.kind}"]
        if self.kind == "stabilizes":
            lines.append(
                f"eigenvalue: {_EIGEN_TEXT[self.eigenvalue_exponents[0]]}"
            )
        elif self.kind == "support":
            lines.append(
                f"word {self.word}: component {self.component:0{self.element.n}b} "
                "maps outside the word's support"
            )
        elif self.kind == "phase":
            lines.append(
                f"word {self.word}: component {self.component:0{self.element.n}b} "
                "breaks the eigenvalue set by earlier components"
            )
        else:
            per = ", ".join(
                f"word {i}: {_EIGEN_TEXT[m]}"
                for i, m in enumerate(self.eigenvalue_exponents)
            )
            lines.append(f"per-word eigenvalues disagree: {per}")
        return lines


def eigenvector_witness(code: Code, element: PauliString) -> WitnessReport:
    """Pinpoint where an element fails to stabilize the code space."""
    if element.n != code.n:
        raise ValueError(f"element on {element.n} qubits, code on {code.n}")
    exponents = []
    for i, table in enumerate(_word_tables(code)):
        kind, m = _eigen(table, element.x_mask, element.z_mask, element.phase)
        if kind is not None:
            return WitnessReport(kind, element, word=i, component=m)
        exponents.append(m)
    if len(set(exponents)) > 1:
        return WitnessReport(
            "word_mismatch", element, eigenvalue_exponents=tuple(exponents)
        )
    return WitnessReport(
        "stabilizes", element, eigenvalue_exponents=(exponents[0],)
    )
