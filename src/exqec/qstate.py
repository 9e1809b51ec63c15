"""States on the n-qubit computational basis, in exact or float arithmetic.

Conventions used throughout the package:

* Qubits are numbered 1..n.  Qubit 1 is the leftmost bit of a printed ket,
  i.e. the most significant bit of the basis-state index, so
  ``|b1 b2 ... bn>`` has index ``int("b1b2...bn", 2)``.
* An exact amplitude is a single surd term ``(re + im*i) * sqrt(r)`` with
  rational ``re``, ``im`` and squarefree radicand ``r >= 1``.  Amplitudes
  with different radicands never need to share a basis state for the codes
  treated here; an attempt to add them raises ``ExactArithmeticError``.
  Sums over several radicands do arise in inner products, which get their
  own representation (:class:`InnerProductValue`).
* Float mode stores a dense ``complex128`` array of length ``2**n``.
* ``inner_product`` computes one pair; the Gram engines, which take every
  pair of many states at once, live in ``_gram``.

Exact mode is the default everywhere; float mode exists for spectral work
(recovery operators) and for cross-checking the exact arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, ExactArithmeticError

__all__ = [
    "MAX_QUBITS",
    "Amplitude",
    "AMP_ONE",
    "AMP_ZERO",
    "BasisState",
    "InnerProductValue",
    "QubitPermutation",
    "StateVector",
    "inner_product",
    "apply_permutation",
    "orbit_sum",
    "parse_ket",
    "squarefree_split",
    "surd_product",
]

#: Hard cap on the register size.  Dense float mode at this size is already
#: a 256 MiB array; nothing in the package needs more.
MAX_QUBITS = 24

#: Exact terms whose float value falls below this are dropped when
#: converting an exact state to float mode.
FLOAT_CONVERSION_CUTOFF = 1e-15

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def squarefree_split(r: int) -> tuple[int, int]:
    """Factor ``r = s*s * t`` with ``t`` squarefree; return ``(s, t)``."""
    if r < 1:
        raise ValueError(f"radicand must be a positive integer, got {r}")
    s, t, d = 1, r, 2
    while d * d <= t:
        dd = d * d
        while t % dd == 0:
            t //= dd
            s *= d
        d += 1
    return s, t


def surd_product(r: int, s: int) -> tuple[int, int]:
    """``(g, t)`` with ``sqrt(r) * sqrt(s) = g * sqrt(t)`` for squarefree
    ``r`` and ``s``: ``g = gcd(r, s)`` and ``t = r * s / g**2``, squarefree."""
    g = math.gcd(r, s)
    return g, r * s // (g * g)


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_QUBITS:
        raise DimensionMismatch(
            f"qubit count must be between 1 and {MAX_QUBITS}, got {n}"
        )


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _coeff_str(re: Fraction, im: Fraction, radicand: int) -> str:
    """Human-readable rendering ``a/b``, ``a/b i`` or ``a/b sqrt(r)``."""
    if im == 0:
        coeff = _frac_str(re)
    elif re == 0:
        if im == 1:
            coeff = "i"
        elif im == -1:
            coeff = "-i"
        else:
            coeff = f"{_frac_str(im)}i"
    else:
        sign = "+" if im > 0 else "-"
        coeff = f"({_frac_str(re)}{sign}{_frac_str(abs(im))}i)"
    if radicand == 1:
        return coeff
    if coeff == "1":
        return f"sqrt({radicand})"
    if coeff == "-1":
        return f"-sqrt({radicand})"
    return f"{coeff} sqrt({radicand})"


@dataclass(frozen=True)
class Amplitude:
    """A single exact surd term ``(re + im*i) * sqrt(radicand)``.

    ``radicand`` is kept squarefree, so the product of two amplitudes with
    equal radicands is always rational.  Use :meth:`make` rather than the
    raw constructor; it normalizes the radicand.
    """

    re: Fraction
    im: Fraction
    radicand: int

    @staticmethod
    def make(re=0, im=0, radicand: int = 1) -> "Amplitude":
        re = Fraction(re)
        im = Fraction(im)
        if re == 0 and im == 0:
            return AMP_ZERO
        s, t = squarefree_split(radicand)
        if s != 1:
            re, im = re * s, im * s
        return Amplitude(re, im, t)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __neg__(self) -> "Amplitude":
        return Amplitude(-self.re, -self.im, self.radicand)

    def conjugate(self) -> "Amplitude":
        return Amplitude(self.re, -self.im, self.radicand)

    def times_i(self, exponent: int) -> "Amplitude":
        """Multiply by ``i**exponent``."""
        e = exponent & 3
        if e == 0:
            return self
        re, im = self.re, self.im
        if e == 1:
            re, im = -im, re
        elif e == 2:
            re, im = -re, -im
        else:
            re, im = im, -re
        return Amplitude(re, im, self.radicand)

    def scaled(self, q) -> "Amplitude":
        """Multiply by a plain rational."""
        q = Fraction(q)
        return Amplitude.make(self.re * q, self.im * q, self.radicand)

    def __mul__(self, other):
        if not isinstance(other, Amplitude):
            return NotImplemented
        re = self.re * other.re - self.im * other.im
        im = self.re * other.im + self.im * other.re
        if not (re or im):
            return AMP_ZERO
        g, t = surd_product(self.radicand, other.radicand)
        return Amplitude(re * g, im * g, t)

    def __add__(self, other):
        if not isinstance(other, Amplitude):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.radicand != other.radicand:
            raise ExactArithmeticError(
                f"cannot add amplitudes with radicands {self.radicand} and "
                f"{other.radicand}; convert to float mode for mixed surds"
            )
        return Amplitude.make(self.re + other.re, self.im + other.im, self.radicand)

    def __sub__(self, other):
        if not isinstance(other, Amplitude):
            return NotImplemented
        return self + (-other)

    def to_complex(self) -> complex:
        root = math.sqrt(self.radicand)
        return complex(float(self.re) * root, float(self.im) * root)

    def __str__(self) -> str:
        return _coeff_str(self.re, self.im, self.radicand)


AMP_ZERO = Amplitude(_ZERO, _ZERO, 1)
AMP_ONE = Amplitude(_ONE, _ZERO, 1)


@dataclass(frozen=True)
class InnerProductValue:
    """Result of an inner product.

    Exact results carry ``parts``: a sorted tuple of ``(radicand, re, im)``
    terms denoting ``sum (re + im*i) * sqrt(radicand)``.  Float results
    carry only the ``float_view``; exact results expose both.
    """

    parts: tuple[tuple[int, Fraction, Fraction], ...] | None
    float_view: complex

    @staticmethod
    def exact(parts: Mapping[int, tuple[Fraction, Fraction]]) -> "InnerProductValue":
        items = tuple(
            sorted((r, re, im) for r, (re, im) in parts.items() if re or im)
        )
        fv = 0j
        for r, re, im in items:
            fv += complex(float(re), float(im)) * math.sqrt(r)
        return InnerProductValue(items, fv)

    @staticmethod
    def exact_rational(q) -> "InnerProductValue":
        return InnerProductValue.exact({1: (Fraction(q), _ZERO)})

    @staticmethod
    def from_complex(z) -> "InnerProductValue":
        return InnerProductValue(None, complex(z))

    @property
    def is_exact(self) -> bool:
        return self.parts is not None

    def is_exact_zero(self) -> bool:
        if self.parts is None:
            raise ValueError("float-mode value has no exact zero test")
        return not self.parts

    def __hash__(self) -> int:
        # == compares the float views too, so equal values hash equally
        return hash(self.float_view)

    def magnitude(self) -> float:
        return abs(self.float_view)

    def conjugate(self) -> "InnerProductValue":
        if self.parts is None:
            return InnerProductValue(None, self.float_view.conjugate())
        return InnerProductValue.exact({r: (re, -im) for r, re, im in self.parts})

    def sub(self, other: "InnerProductValue") -> "InnerProductValue":
        """Difference; exact when both operands are exact."""
        if self.parts is not None and other.parts is not None:
            acc: dict[int, tuple[Fraction, Fraction]] = {
                r: (re, im) for r, re, im in self.parts
            }
            for r, re, im in other.parts:
                cur = acc.get(r, (_ZERO, _ZERO))
                acc[r] = (cur[0] - re, cur[1] - im)
            return InnerProductValue.exact(acc)
        return InnerProductValue.from_complex(self.float_view - other.float_view)

    def as_fraction(self) -> Fraction:
        """The value as a plain rational; raises if it is not one."""
        if self.parts is None:
            raise ValueError("float-mode value is not an exact rational")
        if not self.parts:
            return _ZERO
        if len(self.parts) == 1 and self.parts[0][0] == 1 and self.parts[0][2] == 0:
            return self.parts[0][1]
        raise ValueError(f"value {self} is not a plain rational")

    def as_gaussian(self) -> tuple[Fraction, Fraction]:
        """The value as an exact ``(re, im)`` pair over radicand 1."""
        if self.parts is None:
            raise ValueError("float-mode value has no exact parts")
        if not self.parts:
            return (_ZERO, _ZERO)
        if len(self.parts) == 1 and self.parts[0][0] == 1:
            return (self.parts[0][1], self.parts[0][2])
        raise ValueError(f"value {self} has irrational parts")

    def __str__(self) -> str:
        if self.parts is None:
            z = self.float_view
            if z.imag == 0:
                return f"{z.real:.12g}"
            return f"{z.real:.12g}{z.imag:+.12g}j"
        if not self.parts:
            return "0"
        rendered = [_coeff_str(re, im, r) for r, re, im in self.parts]
        out = rendered[0]
        for token in rendered[1:]:
            if token.startswith("-"):
                out += " - " + token[1:]
            else:
                out += " + " + token
        return out


#: Comparison tolerance of float mode; exact mode compares with 0.
DEFAULT_FLOAT_TOL = 1e-9


@dataclass(frozen=True)
class BasisState:
    """A single computational basis state ``|b1 ... bn>``."""

    n: int
    index: int

    def __post_init__(self):
        _check_n(self.n)
        if not 0 <= self.index < (1 << self.n):
            raise DimensionMismatch(
                f"basis index {self.index} out of range for {self.n} qubits"
            )

    @property
    def weight(self) -> int:
        return self.index.bit_count()

    def bit(self, qubit: int) -> int:
        if not 1 <= qubit <= self.n:
            raise DimensionMismatch(f"qubit {qubit} out of range 1..{self.n}")
        return (self.index >> (self.n - qubit)) & 1

    def ket(self) -> str:
        return "|" + format(self.index, f"0{self.n}b") + ">"


_BITS = frozenset("01")


def parse_ket(text: str) -> BasisState:
    """Parse ``"|111 111 000>"`` (spaces between bits are ignored)."""
    s = text.strip()
    if not s.startswith("|") or not s.endswith(">"):
        raise ValueError(f"ket literal must look like |bits>, got {text!r}")
    bits = s[1:-1].replace(" ", "")
    if not bits or not set(bits) <= _BITS:
        raise ValueError(f"ket literal may contain only bits 0/1, got {text!r}")
    return BasisState(len(bits), int(bits, 2))


@dataclass(frozen=True)
class QubitPermutation:
    """A permutation of qubit positions; ``image[j-1]`` is where qubit j goes."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        _check_n(n)
        if sorted(self.image) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.image}")

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, qubit: int) -> int:
        return self.image[qubit - 1]

    @staticmethod
    def identity(n: int) -> "QubitPermutation":
        return QubitPermutation(tuple(range(1, n + 1)))

    @staticmethod
    def transposition(n: int, j: int, k: int) -> "QubitPermutation":
        if j == k:
            raise ValueError("transposition needs two distinct qubits")
        img = list(range(1, n + 1))
        img[j - 1], img[k - 1] = k, j
        return QubitPermutation(tuple(img))

    def compose(self, other: "QubitPermutation") -> "QubitPermutation":
        """``self`` after ``other``: ``(self.compose(other))(j) == self(other(j))``."""
        if self.n != other.n:
            raise DimensionMismatch("permutation sizes differ")
        return QubitPermutation(tuple(self.image[o - 1] for o in other.image))

    def inverse(self) -> "QubitPermutation":
        inv = [0] * self.n
        for j, dest in enumerate(self.image, start=1):
            inv[dest - 1] = j
        return QubitPermutation(tuple(inv))

    @cached_property
    def _moves(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """(mask of the fixed qubits' bits, (source bit, target bit) per moved qubit)."""
        n = self.n
        fixed, moves = 0, []
        for j, dest in enumerate(self.image, start=1):
            if j == dest:
                fixed |= 1 << (n - j)
            else:
                moves.append((1 << (n - j), 1 << (n - dest)))
        return fixed, tuple(moves)

    def apply_index(self, index: int) -> int:
        """Move every bit of a basis index to its image position."""
        fixed, moves = self._moves
        out = index & fixed
        for source, target in moves:
            if index & source:
                out |= target
        return out


class StateVector:
    """An unnormalized n-qubit state, exact (sparse surds) or float (dense)."""

    __slots__ = ("n", "_terms", "_dense")

    def __init__(self, n: int, terms=None, dense=None):
        _check_n(n)
        if (terms is None) == (dense is None):
            raise ValueError("exactly one of terms/dense must be given")
        self.n = n
        self._terms = terms
        self._dense = dense

    # -- construction -------------------------------------------------

    @staticmethod
    def from_terms(n: int, terms: Mapping[int, Amplitude]) -> "StateVector":
        clean: dict[int, Amplitude] = {}
        top = 1 << n
        for idx, amp in terms.items():
            if not 0 <= idx < top:
                raise DimensionMismatch(f"basis index {idx} out of range for n={n}")
            if not amp.is_zero():
                clean[idx] = amp
        return StateVector(n, terms=clean)

    @staticmethod
    def basis(n: int, index, amplitude: Amplitude = AMP_ONE) -> "StateVector":
        if isinstance(index, BasisState):
            if index.n != n:
                raise DimensionMismatch("basis state size differs from n")
            index = index.index
        return StateVector.from_terms(n, {index: amplitude})

    @staticmethod
    def zero(n: int) -> "StateVector":
        return StateVector(n, terms={})

    @staticmethod
    def from_dense(n: int, values) -> "StateVector":
        arr = np.asarray(values, dtype=np.complex128)
        if arr.shape != (1 << n,):
            raise DimensionMismatch(
                f"dense state for n={n} must have length {1 << n}, got {arr.shape}"
            )
        return StateVector(n, dense=arr.copy())

    # -- inspection ---------------------------------------------------

    @property
    def mode(self) -> str:
        return "exact" if self._terms is not None else "float"

    @property
    def terms(self) -> dict[int, Amplitude]:
        """Sparse term map (exact mode only).  Treat as read-only."""
        if self._terms is None:
            raise ValueError("float-mode state has no exact term map")
        return self._terms

    @property
    def dense(self) -> np.ndarray:
        if self._dense is None:
            raise ValueError("exact-mode state has no dense array; use to_float()")
        return self._dense

    def support(self) -> frozenset[int]:
        return frozenset(self.terms)

    def is_zero(self) -> bool:
        if self._terms is not None:
            return not self._terms
        return not self._dense.any()

    def __eq__(self, other):
        if not isinstance(other, StateVector):
            return NotImplemented
        if self.n != other.n or self.mode != other.mode:
            return False
        if self._terms is not None:
            return self._terms == other._terms
        return bool(np.array_equal(self._dense, other._dense))

    def __hash__(self):
        raise TypeError("StateVector is not hashable")

    def __repr__(self):
        if self._terms is not None:
            inside = " + ".join(
                f"{amp} |{format(i, f'0{self.n}b')}>"
                for i, amp in sorted(self._terms.items())
            )
            return f"StateVector({inside or '0'})"
        return f"StateVector(float, n={self.n})"

    # -- arithmetic ---------------------------------------------------

    def _binary_check(self, other: "StateVector") -> None:
        if not isinstance(other, StateVector):
            raise TypeError("expected a StateVector")
        if self.n != other.n:
            raise DimensionMismatch(f"qubit counts differ: {self.n} vs {other.n}")
        if self.mode != other.mode:
            raise ValueError("mixed exact/float operands; convert explicitly")

    def __add__(self, other: "StateVector") -> "StateVector":
        self._binary_check(other)
        if self._terms is not None:
            return StateVector(self.n, terms=_add_terms(dict(self._terms), dict(other._terms)))
        return StateVector(self.n, dense=self._dense + other._dense)

    def __sub__(self, other: "StateVector") -> "StateVector":
        return self + (-other)

    def __neg__(self) -> "StateVector":
        if self._terms is not None:
            return StateVector(self.n, terms={i: -a for i, a in self._terms.items()})
        return StateVector(self.n, dense=-self._dense)

    def scaled(self, factor) -> "StateVector":
        """Scalar multiple.  Exact mode takes Amplitude/Fraction/int; float
        mode takes any complex number."""
        if self._terms is not None:
            if isinstance(factor, Amplitude):
                if factor.is_zero():
                    return StateVector.zero(self.n)
                return self._map_amplitudes(lambda a: a * factor)
            if isinstance(factor, (int, Fraction)):
                q = Fraction(factor)
                if q == 0:
                    return StateVector.zero(self.n)
                return self._map_amplitudes(lambda a: a.scaled(q))
            raise ExactArithmeticError(
                "exact-mode states scale by Amplitude or rational; "
                "convert to float mode for float factors"
            )
        return StateVector(self.n, dense=self._dense * complex(factor))

    def _map_amplitudes(self, f) -> "StateVector":
        """Exact state with every amplitude ``a`` replaced by ``f(a)``, called
        once per distinct amplitude object: terms that shared an object (as
        an orbit sum's do) share its image."""
        distinct = {id(a): a for a in self._terms.values()}
        mapped = {key: f(a) for key, a in distinct.items()}
        return StateVector(self.n, terms={i: mapped[id(a)] for i, a in self._terms.items()})

    def complement(self) -> "StateVector":
        """Flip every bit of every basis state (the 0 <-> 1 relabeling)."""
        mask = (1 << self.n) - 1
        if self._terms is not None:
            return StateVector(self.n, terms={i ^ mask: a for i, a in self._terms.items()})
        idx = np.arange(1 << self.n)
        return StateVector(self.n, dense=self._dense[idx ^ mask])

    def norm2(self) -> InnerProductValue:
        return inner_product(self, self)

    def to_float(self) -> "StateVector":
        if self._dense is not None:
            return self
        arr = np.zeros(1 << self.n, dtype=np.complex128)
        for idx, amp in self._terms.items():
            z = amp.to_complex()
            if abs(z) >= FLOAT_CONVERSION_CUTOFF:
                arr[idx] = z
        return StateVector(self.n, dense=arr)


def _add_terms(acc: dict[int, Amplitude], terms: dict[int, Amplitude]) -> dict[int, Amplitude]:
    """``acc + terms``, formed in place in the larger map (the smaller one's
    amplitudes are added on the right); a sum that cancels drops the ket.
    Both maps are the caller's to change."""
    if len(acc) < len(terms):
        acc, terms = terms, acc
    for idx, amp in terms.items():
        cur = acc.get(idx)
        total = amp if cur is None else cur + amp
        if total.is_zero():
            acc.pop(idx, None)
        else:
            acc[idx] = total
    return acc


def inner_product(left: StateVector, right: StateVector) -> InnerProductValue:
    """``<left|right>``, conjugate-linear in ``left``."""
    left._binary_check(right)
    if left.mode == "float":
        return InnerProductValue.from_complex(np.vdot(left.dense, right.dense))
    a, b = left.terms, right.terms
    acc: dict[int, list[Fraction]] = {}
    if len(a) <= len(b):
        pairs = ((am, b.get(idx)) for idx, am in a.items())
    else:
        pairs = ((a.get(idx), bm) for idx, bm in b.items())
    for am, bm in pairs:
        if am is None or bm is None:
            continue
        # conj(am) * bm
        re = am.re * bm.re + am.im * bm.im
        im = am.re * bm.im - am.im * bm.re
        ra, rb = am.radicand, bm.radicand
        if ra == rb:
            key = 1
            if ra != 1:
                re *= ra
                im *= ra
        else:
            s, key = squarefree_split(ra * rb)
            if s != 1:
                re *= s
                im *= s
        slot = acc.get(key)
        if slot is None:
            acc[key] = [re, im]
        else:
            slot[0] += re
            slot[1] += im
    return InnerProductValue.exact({r: (v[0], v[1]) for r, v in acc.items()})


def _source_indices(n: int, images: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Row k holds, for every basis index w, the index that the qubit
    permutation ``images[k]`` carries to w, so a dense state relabelled by
    it is ``dense[rows[k]]``: qubit j of the source is qubit ``image[j-1]``
    of w.  Indices below ``2**MAX_QUBITS`` fit in ``int32``."""
    idx = np.arange(1 << n, dtype=np.int32)
    shifts = n - np.array(images, dtype=np.int32).reshape(len(images), n)
    out = np.zeros((len(images), 1 << n), dtype=np.int32)
    for j in range(n):
        out |= ((idx >> shifts[:, j : j + 1]) & 1) << (n - 1 - j)
    return out


def apply_permutation(state: StateVector, perm: QubitPermutation) -> StateVector:
    """Relabel qubits: the output amplitude at ``perm(x)`` is the input at x."""
    if state.n != perm.n:
        raise DimensionMismatch(
            f"permutation on {perm.n} qubits applied to {state.n}-qubit state"
        )
    if state.mode == "exact":
        return StateVector(
            state.n, terms={perm.apply_index(i): a for i, a in state.terms.items()}
        )
    return StateVector(state.n, dense=state.dense[_source_indices(state.n, [perm.image])[0]])


def orbit_sum(n: int, weight: int) -> StateVector:
    """Equal-amplitude sum of all ``C(n, weight)`` basis states of that weight."""
    _check_n(n)
    if not 0 <= weight <= n:
        raise ValueError(f"weight must be between 0 and {n}, got {weight}")
    terms: dict[int, Amplitude] = {}
    for positions in itertools.combinations(range(n), weight):
        idx = 0
        for p in positions:
            idx |= 1 << p
        terms[idx] = AMP_ONE
    return StateVector(n, terms=terms)
