"""Code constructions and a small text format for code files.

A code is a tuple of pairwise orthogonal, equal-norm (but deliberately
unnormalized) codewords.  The file format::

    # comment
    qubits: 9
    label: myname
    word 0:
    1 |000000000>
    1/sqrt(28) orbit(k=6)
    word 1:
    ...

Each entry line is a coefficient token followed by either a ket literal
(spaces between bits allowed) or the shorthand ``orbit(k=W)`` for the
equal-amplitude sum over all weight-W basis states.  Coefficient tokens
cover exact rationals and surds: ``1``, ``-3/4``, ``i``, ``sqrt(2)``,
``1/sqrt(28)``, ``2/3*sqrt(5)``, ``1/2*i``.  A radicand may not exceed
``MAX_RADICAND``.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import CodeParseError, DimensionMismatch, InvalidCodeError
from .qstate import (
    AMP_ONE,
    MAX_QUBITS,
    Amplitude,
    InnerProductValue,
    StateVector,
    _add_terms,
    orbit_sum,
    parse_ket,
)
from .errorops import ErrorSet, IdentityOp, PauliString
from ._gram import _gram, _resolve_tol, _violations

__all__ = [
    "Code",
    "PermInvariantSpec",
    "perm_invariant_code",
    "ruskai9_code",
    "shor_code",
    "repetition3",
    "five_qubit_code",
    "builtin_code",
    "BUILTIN_CODES",
    "parse_code",
    "serialize_code",
    "parse_amplitude",
    "amplitude_token",
]


@dataclass(frozen=True)
class Code:
    """Codewords spanning the protected subspace.  Kept unnormalized."""

    n: int
    words: tuple[StateVector, ...]
    label: str = ""

    def __post_init__(self):
        if not self.words:
            raise InvalidCodeError("a code needs at least one word")
        if any(w.n != self.n for w in self.words):
            raise DimensionMismatch("codeword sizes differ from the declared n")
        modes = {w.mode for w in self.words}
        if len(modes) != 1:
            raise ValueError("codewords mix exact and float modes")

    @property
    def mode(self) -> str:
        return self.words[0].mode

    def num_words(self) -> int:
        return len(self.words)

    def to_float(self) -> "Code":
        if self.mode == "float":
            return self
        return Code(self.n, tuple(w.to_float() for w in self.words), self.label)

    def check(self, tol: float | None = None) -> list[tuple[int, int, InnerProductValue]]:
        """Return orthogonality/equal-norm offenders; empty means valid.

        ``(i, j, value)`` with i < j is a nonzero cross inner product;
        ``(i, i, value)`` is word i's norm when it differs from word 0's.
        This is the correctability check at the identity alone, so orbit
        words take the orbit engine and build no Gram of their states, and
        ``tol`` defaults and is checked as in ``verify_kl``.
        """
        tol = _resolve_tol(self.mode, tol)
        G = _gram(self.words, ErrorSet(self.n, (IdentityOp(self.n),)))
        return [(v.i, v.j, v.value) for v in _violations(G, range(len(self.words)), tol)]

    def validate(self, tol: float | None = None) -> None:
        offenders = self.check(tol)
        if offenders:
            parts = ", ".join(
                f"<w{i}|w{j}> = {v}" if i != j else f"|w{i}|^2 = {v}"
                for i, j, v in offenders
            )
            raise InvalidCodeError(f"invalid code: {parts}", offenders)


@dataclass(frozen=True)
class PermInvariantSpec:
    """Weight-orbit coefficients for each word: ``coeffs[i][weight]``.

    Invalid specs (overlapping supports, unequal norms) are representable;
    :func:`perm_invariant_code` is where they get rejected.
    """

    n: int
    coeffs: tuple[Mapping[int, Amplitude], ...]

    def __post_init__(self):
        for word in self.coeffs:
            for w in word:
                if not 0 <= w <= self.n:
                    raise ValueError(f"weight {w} out of range 0..{self.n}")


def perm_invariant_code(spec: PermInvariantSpec, label: str = "") -> Code:
    """Realize a permutation-invariant code and validate it.

    Raises :class:`InvalidCodeError` (carrying the offending inner
    products) when the resulting words are not orthogonal with equal norms.
    """
    words = []
    for coeff_map in spec.coeffs:
        word = StateVector.zero(spec.n)
        for weight, amp in sorted(coeff_map.items()):
            if not isinstance(amp, Amplitude):
                amp = Amplitude.make(amp)
            word = word + orbit_sum(spec.n, weight).scaled(amp)
        words.append(word)
    code = Code(spec.n, tuple(words), label)
    code.validate()
    return code


def ruskai9_code() -> Code:
    """Nine-qubit permutation-invariant code with two dual words.

    Word 0 is ``|0...0> + 1/sqrt(28) * orbit(weight 6)`` and word 1 is its
    bit complement; both have squared norm 4.  Every qubit transposition
    fixes the words, so all exchange errors act as the identity on the
    code space.
    """
    coeff = Amplitude.make(Fraction(1, 28), 0, 28)
    w0 = StateVector.basis(9, 0) + orbit_sum(9, 6).scaled(coeff)
    code = Code(9, (w0, w0.complement()), "ruskai9")
    code.validate()
    return code


def shor_code() -> Code:
    """Shor's nine-qubit code, written as four equal-amplitude terms per word.

    Each logical triple pattern (000, 011, 101, 110 for word 0; their
    complements for word 1) is expanded threefold into 9 bits.
    """
    def expand(patterns):
        terms = {}
        for pat in patterns:
            bits = "".join(ch * 3 for ch in pat)
            terms[int(bits, 2)] = AMP_ONE
        return StateVector.from_terms(9, terms)

    w0 = expand(["000", "011", "101", "110"])
    w1 = expand(["111", "100", "010", "001"])
    code = Code(9, (w0, w1), "shor9")
    code.validate()
    return code


def repetition3() -> Code:
    """Three-qubit repetition code |000>, |111> (bit-flip protection only)."""
    code = Code(3, (StateVector.basis(3, 0b000), StateVector.basis(3, 0b111)), "rep3")
    code.validate()
    return code


def five_qubit_code() -> Code:
    """The standard five-qubit code correcting any single-qubit Pauli error.

    This is the textbook construction from the cyclic stabilizer generators
    XZZXI, IXZZX, XIXZZ, ZXIXZ: word 0 is the (unnormalized, 16-term,
    mixed-sign) projection of |00000> onto the joint +1 eigenspace and
    word 1 is its image under the logical flip XXXXX.  It is shipped as a
    comparison fixture; every correction claim about it is re-derived by
    the verifier rather than assumed.
    """
    gens = [PauliString.from_letters(s) for s in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")]
    elements = {(0, 0, 0): IdentityOp(5)}
    frontier = list(elements.values())
    while frontier:
        nxt = []
        for el in frontier:
            for g in gens:
                p = el.compose(g)
                key = (p.x_mask, p.z_mask, p.phase)
                if key not in elements:
                    elements[key] = p
                    nxt.append(p)
        frontier = nxt
    assert len(elements) == 16, "stabilizer closure should have 16 elements"
    assert (0, 0, 2) not in elements, "-I must not be in the stabilizer"

    w0 = StateVector.zero(5)
    for el in elements.values():
        w0 = w0 + el.apply(StateVector.basis(5, 0))
    w1 = PauliString(5, 0b11111, 0, 0).apply(w0)
    code = Code(5, (w0, w1), "five-qubit")
    code.validate()
    return code


BUILTIN_CODES = {
    "ruskai9": ruskai9_code,
    "shor9": shor_code,
    "rep3": repetition3,
    "five-qubit": five_qubit_code,
}


def builtin_code(name: str) -> Code:
    try:
        return BUILTIN_CODES[name]()
    except KeyError:
        raise KeyError(
            f"unknown code {name!r}; built-ins are {sorted(BUILTIN_CODES)}"
        ) from None


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

#: Largest radicand a ``sqrt(r)`` token may carry.  Normalizing a radicand
#: takes about ``sqrt(r)`` trial divisions, and the product of two accepted
#: radicands stays at most 10**12.
MAX_RADICAND = 10**6

_AMP_RE = _re.compile(
    r"""^([+-])?                 # sign
        (?:(\d+)(?:/(\d+))?)?    # rational part
        (?:\*?(i))?              # imaginary unit
        (?:([*/])?sqrt\((\d+)\))? # surd part ("sqrt(r)" alone means *sqrt(r))
        $""",
    _re.VERBOSE,
)


def parse_amplitude(token: str) -> Amplitude:
    """Parse an exact coefficient token such as ``1/sqrt(28)`` or ``-2/3*i``."""
    m = _AMP_RE.fullmatch(token.strip())
    if m is None or (m.group(2) is None and m.group(4) is None and m.group(6) is None):
        raise ValueError(f"cannot parse coefficient {token!r}")
    sign, num, den, imag, surd_op, surd = m.groups()
    if den is not None and int(den) == 0:
        raise ValueError(f"zero denominator in {token!r}")
    c = Fraction(int(num) if num else 1, int(den) if den else 1)
    if sign == "-":
        c = -c
    radicand = 1
    if surd:
        radicand = int(surd)
        if radicand < 1:
            raise ValueError(f"radicand must be positive in {token!r}")
        if radicand > MAX_RADICAND:
            raise ValueError(
                f"radicand {radicand} in {token!r} exceeds {MAX_RADICAND}; write the "
                "coefficient as a rational instead, e.g. 1/1024 for 1/sqrt(1048576)"
            )
        if surd_op == "/":
            c = c / radicand  # 1/sqrt(r) == (1/r) sqrt(r)
    if imag:
        return Amplitude.make(0, c, radicand)
    return Amplitude.make(c, 0, radicand)


def amplitude_token(amp: Amplitude) -> str:
    """Canonical file token for an amplitude (inverse of parse_amplitude)."""
    if amp.re != 0 and amp.im != 0:
        raise ValueError(
            f"the file format stores real or imaginary coefficients, not {amp}"
        )
    c = amp.re if amp.im == 0 else amp.im
    num, den = c.numerator, c.denominator
    base = str(num) if den == 1 else f"{num}/{den}"
    if amp.im != 0:
        if base == "1":
            base = "i"
        elif base == "-1":
            base = "-i"
        else:
            base += "*i"
    if amp.radicand != 1:
        if base == "1":
            base = f"sqrt({amp.radicand})"
        elif base == "-1":
            base = f"-sqrt({amp.radicand})"
        else:
            base += f"*sqrt({amp.radicand})"
    return base


_ORBIT_RE = _re.compile(r"orbit\(\s*k\s*=\s*(\d+)\s*\)")
_WORD_RE = _re.compile(r"word\s+(\d+)\s*:")


def parse_code(text: str, validate: bool = True) -> Code:
    """Parse the code file format; raises CodeParseError with line/column."""
    n: int | None = None
    label = ""
    words: list[dict[int, Amplitude]] = []
    current: dict[int, Amplitude] | None = None
    amps: dict[str, Amplitude] = {}  # each distinct coefficient token, parsed once

    def fail(msg: str, lineno: int, col: int = 1):
        raise CodeParseError(msg, lineno, col)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("qubits:"):
            if n is not None:
                fail("duplicate qubits: header", lineno)
            try:
                n = int(line.split(":", 1)[1])
            except ValueError:
                fail("qubits: header needs an integer", lineno, len("qubits:") + 1)
            if not 1 <= n <= MAX_QUBITS:
                fail(f"qubit count {n} out of range 1..{MAX_QUBITS}", lineno)
            continue
        if line.startswith("label:"):
            label = line.split(":", 1)[1].strip()
            continue
        if n is None:
            fail("expected a qubits: header first", lineno)
        m = _WORD_RE.fullmatch(line)
        if m:
            if current is not None:
                if not current:
                    fail("previous word has no entries", lineno)
                words.append(current)
            if int(m.group(1)) != len(words):
                fail(f"expected 'word {len(words)}:', got 'word {m.group(1)}:'", lineno)
            current = {}
            continue
        if current is None:
            fail("entry line outside any word block", lineno)
        parts = line.split(None, 1)
        if len(parts) != 2:
            fail("entry line needs a coefficient and a ket or orbit term", lineno)
        coeff_tok, ket_tok = parts[0], parts[1].strip()
        try:
            amp = amps.get(coeff_tok) or amps.setdefault(coeff_tok, parse_amplitude(coeff_tok))
        except ValueError as exc:
            fail(str(exc), lineno)
        bits = ket_tok[1:-1]
        try:
            if len(bits) == n and ket_tok[0] == "|" and ket_tok[-1] == ">" and not bits.strip("01"):
                if not amp.is_zero():  # a well-formed ket: add in place, as _add_terms would
                    idx = int(bits, 2)
                    cur = current.get(idx)
                    total = amp if cur is None else cur + amp
                    if total.is_zero():
                        del current[idx]
                    else:
                        current[idx] = total
                continue
            om = _ORBIT_RE.fullmatch(ket_tok)
            if om:
                kets = orbit_sum(n, int(om.group(1))).terms
            else:
                basis = parse_ket(ket_tok)
                if basis.n != n:
                    fail(f"ket has {basis.n} bits but the file declares {n} qubits",
                         lineno, len(coeff_tok) + 2)
                kets = (basis.index,)
            if not amp.is_zero():
                current = _add_terms(current, dict.fromkeys(kets, amp))
        except CodeParseError:
            raise
        except ValueError as exc:
            fail(str(exc), lineno, len(coeff_tok) + 2)

    if current is not None:
        if not current:
            fail("last word has no entries", lineno)
        words.append(current)
    if n is None:
        raise CodeParseError("missing qubits: header", 1)
    if not words:
        raise CodeParseError("no word blocks found", 1)
    code = Code(n, tuple(StateVector.from_terms(n, terms) for terms in words), label)
    if validate:
        code.validate()
    return code


def serialize_code(code: Code) -> str:
    """Render a code in the file format (exact mode only); round-trips."""
    if code.mode != "exact":
        raise ValueError("only exact-mode codes can be serialized")
    lines = [f"qubits: {code.n}"]
    if code.label:
        lines.append(f"label: {code.label}")
    for i, word in enumerate(code.words):
        lines.append(f"word {i}:")
        for idx in sorted(word.terms):
            amp = word.terms[idx]
            ket = "|" + format(idx, f"0{code.n}b") + ">"
            lines.append(f"{amplitude_token(amp)} {ket}")
    return "\n".join(lines) + "\n"
