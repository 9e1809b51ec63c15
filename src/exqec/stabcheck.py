"""Additivity testing: exhaustive stabilizer scans over the Pauli group.

A code is additive (a stabilizer code) when its code space is a joint
eigenspace of a nontrivial abelian subgroup of the Pauli group.  Since
scalar prefactors do not change eigenspaces, it is enough to scan the
4^n phase-free representatives X(a)Z(b) and ask for a single eigenvalue
common to every codeword.  The scan is exact and exhaustive, but it tests
no class on its own.  Only an a that maps every word's support onto itself
can work, and for such an a the eigen-equation is linear in b over GF(2):
the valid b form an affine GF(2) space, which one elimination on integer
bitmasks lists, each with its eigenvalue.

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


def _word_tables(code: Code) -> list[dict[int, tuple[int, int]]]:
    """Each word as ``{v: (orbit, e)}`` with amp(v) = i^e * rep(orbit).

    ``rep`` is the one product of amp(v) with a power of i that has a
    positive real part and a nonnegative imaginary part, and ``orbit``
    numbers the distinct reps of the code.  So amp(v) = i^k amp(u) for
    some k exactly when v and u share an orbit, and then k = e(v) - e(u)
    mod 4: this is how both the scan and ``eigenvector_witness`` read the
    eigen-equation.
    """
    if code.mode != "exact":
        raise ValueError("stabilizer scan requires an exact-mode code")
    orbits: dict[tuple[int, ...], int] = {}
    tables = []
    for word in code.words:
        table = {}
        for v, amp in word.terms.items():
            # re = xn / xd and im = yn / yd in lowest terms; rep = i^-e (re + i im)
            xn, xd, yn, yd = amp.re.numerator, amp.re.denominator, amp.im.numerator, amp.im.denominator
            if xn > 0 and yn >= 0:
                e, rep = 0, (xn, xd, yn, yd)
            elif yn > 0:  # re <= 0
                e, rep = 1, (yn, yd, -xn, xd)
            elif xn < 0:  # im <= 0
                e, rep = 2, (-xn, xd, -yn, yd)
            else:  # re >= 0 > im
                e, rep = 3, (-yn, yd, xn, xd)
            table[v] = (orbits.setdefault((*rep, amp.radicand), len(orbits)), e)
        tables.append(table)
    return tables


def _eigen(
    table: dict[int, tuple[int, int]], a: int, b: int, phase: int
) -> tuple[str | None, int | None]:
    """Check i^phase X(a)Z(b) w = i^m w for the word w of ``_word_tables``.

    Returns ``(None, m)`` when it holds, else ``(kind, component)``: kind
    ``support`` when component v maps outside the support, ``phase`` when
    it breaks the eigenvalue.  The coefficient of |v + a> in the image is
    i^phase amp(v) (-1)^(b.v), which must equal i^m amp(v + a) for every
    v in the support: with amp(v) = i^k(v) amp(v + a), that is
    m = phase + k(v) + 2 (b.v) mod 4.
    """
    m = None
    for v, (orbit, e) in table.items():
        target = table.get(v ^ a)
        if target is None:
            return "support", v
        if target[0] != orbit:
            return "phase", v
        mv = (phase + e - target[1] + 2 * (b & v).bit_count()) & 3
        if m is None:
            m = mv
        elif mv != m:
            return "phase", v
    return None, m


def _equations(
    tables: list[dict[int, tuple[int, int]]], a: int, v0: int
) -> tuple[int, set[tuple[int, int]]] | None:
    """``(k(v0), rows)`` for the candidate ``a``: one row ``(v + v0, (k(v) -
    k(v0)) / 2)`` per component v of every word, where amp(v) = i^k(v)
    amp(v + a).  None when some v + a leaves its word's support, some k(v)
    does not exist, or k(v) and k(v0) differ in parity.
    """
    orbit0, e0 = tables[0][v0]
    orbit, e = tables[0][v0 ^ a]
    if orbit != orbit0:
        return None
    k0 = (e0 - e) & 3
    rows = set()
    for table in tables:
        for v, (orbit, e) in table.items():
            target = table.get(v ^ a)
            if target is None or target[0] != orbit:
                return None
            k = (e - target[1] - k0) & 3
            if k & 1:
                return None
            rows.add((v ^ v0, k >> 1))
    return k0, rows


def _solutions(rows: set[tuple[int, int]], n: int) -> list[int]:
    """Every b in GF(2)^n with parity(b & mask) == rhs for each row ``(mask, rhs)``.

    Gauss-Jordan on int bitmasks, then the particular solution (free bits
    0) plus the span of the null-space basis, one vector per free bit.
    """
    pivots: dict[int, tuple[int, int]] = {}  # pivot bit -> reduced (mask, rhs)
    for mask, rhs in rows:
        for bit, (pm, pr) in pivots.items():
            if mask >> bit & 1:
                mask ^= pm
                rhs ^= pr
        if not mask:
            if rhs:
                return []
            continue
        bit = mask.bit_length() - 1
        for other, (pm, pr) in pivots.items():
            if pm >> bit & 1:
                pivots[other] = (pm ^ mask, pr ^ rhs)
        pivots[bit] = (mask, rhs)
    out = [sum(1 << bit for bit, (_, rhs) in pivots.items() if rhs)]
    for free in range(n):
        if free not in pivots:
            vec = (1 << free) | sum(1 << bit for bit, (pm, _) in pivots.items() if pm >> free & 1)
            out += [s ^ vec for s in out]
    return out


def stabilizer_scan(code: Code) -> AdditivityReport:
    """Scan all X(a)Z(b) classes for common-eigenvalue stabilizers.

    Exact and exhaustive over the 4^n pairs; the identity class (0, 0) is
    excluded from findings.  The a-candidates are those that keep word 0's
    support onto itself (any other a fails the eigen-equation on a missing
    coefficient).  For each candidate, every component v of every word
    must have v + a in its word's support and amp(v) = i^k(v) amp(v + a);
    then X(a)Z(b) has the common eigenvalue i^m exactly when
    m = k(v) + 2 (b.v) mod 4 for all v.  With v0 word 0's first component
    that asks k(v) = k(v0) mod 2 and b.(v + v0) = (k(v) - k(v0)) / 2 over
    GF(2), and gives m = k(v0) + 2 (b.v0) mod 4, so the valid b of each a
    form an affine space, solved for rather than enumerated.
    """
    n = code.n
    if n > MAX_SCAN_QUBITS:
        raise ScanTooLarge(
            f"stabilizer scan over {n} qubits needs 4**{n} = {4**n} operator "
            f"classes; the limit is {MAX_SCAN_QUBITS} qubits"
        )
    tables = _word_tables(code)
    supp0 = tables[0]
    v0 = next(iter(supp0))
    candidates_a = {a for a in {v0 ^ v for v in supp0} if all(v ^ a in supp0 for v in supp0)}
    found: list[tuple[int, int, int]] = []  # (b, a, m)
    for a in candidates_a:
        system = _equations(tables, a, v0)
        if system is not None:
            k0, rows = system
            found += [(b, a, (k0 + 2 * (b & v0).bit_count()) & 3) for b in _solutions(rows, n) if a or b]
    found.sort()
    findings = tuple(StabilizerFinding(PauliString(n, a, b, 0), m) for b, a, m in found)
    return AdditivityReport(
        n=n,
        is_nontrivially_stabilized=bool(findings),
        findings=findings,
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
