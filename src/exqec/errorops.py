"""Error operators: one canonical form for Paulis, exchanges and products.

Every error is the monomial operator ``i**phase * X(x_mask) * Z(z_mask) * P(perm)``
on n qubits: the qubit permutation P acts first, then Z, then X.  On basis
state ``|v>`` it gives::

    i**phase * (-1)**parity(z_mask & w) |w xor x_mask>,   w = perm(v)

where ``perm(v)`` moves bit j of v to position ``perm[j-1]``.  With this
operator order the single-qubit ``Y_k`` is ``i * X_k * Z_k`` (phase
exponent 1).  Masks follow the qstate bit convention: qubit 1 is the most
significant bit, so qubit k corresponds to mask ``1 << (n - k)``.

The exchange ``E(j,k)`` is the transposition of qubits j and k, so Pauli
strings, exchanges, general permutations, the identity and all their
products share this one form.  Products and inverses are computed in
closed form (a permutation carries Pauli masks to permuted masks), and two
operators are the same error exactly when their forms are equal; the
display label takes no part in that comparison.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch
from .qstate import QubitPermutation, StateVector, _source_indices, apply_permutation

__all__ = [
    "PauliString",
    "ExchangeOp",
    "PermutationOp",
    "IdentityOp",
    "Composition",
    "ErrorOperator",
    "ErrorSet",
    "apply",
    "basic_error_set",
    "dense_images",
    "qubit_mask",
    "parse_error_ops",
]


def qubit_mask(n: int, qubits: Iterable[int]) -> int:
    mask = 0
    for k in qubits:
        if not 1 <= k <= n:
            raise DimensionMismatch(f"qubit {k} out of range 1..{n}")
        mask |= 1 << (n - k)
    return mask


def _parity_u64(values: np.ndarray) -> np.ndarray:
    out = np.bitwise_count(values) & 1
    return out.astype(np.int64)


def _perm_label(image: Sequence[int]) -> str:
    return "P(" + " ".join(str(d) for d in image) + ")"


@dataclass(frozen=True)
class ErrorOperator:
    """``i**phase * X(x_mask) * Z(z_mask) * P(perm)`` on n qubits (P acts first).

    ``perm`` is a ``QubitPermutation`` image, ``()`` for the identity.
    ``text`` is the display label; when empty, ``label()`` derives one
    from the form.
    """

    n: int
    x_mask: int
    z_mask: int
    phase: int = 0
    perm: tuple[int, ...] = ()
    text: str = field(default="", compare=False)

    def __post_init__(self):
        top = 1 << self.n
        if not (0 <= self.x_mask < top and 0 <= self.z_mask < top):
            raise DimensionMismatch("Pauli mask out of range for n qubits")
        object.__setattr__(self, "phase", self.phase & 3)
        if self.perm:
            image = QubitPermutation(tuple(self.perm)).image
            if len(image) != self.n:
                raise DimensionMismatch(
                    f"permutation on {len(image)} qubits for a {self.n}-qubit operator"
                )
            identity = image == tuple(range(1, self.n + 1))
            object.__setattr__(self, "perm", () if identity else image)

    @staticmethod
    def single(n: int, kind: str, k: int) -> "ErrorOperator":
        """One-qubit X/Y/Z on qubit k."""
        m = qubit_mask(n, [k])
        if kind == "X":
            return ErrorOperator(n, m, 0, 0)
        if kind == "Z":
            return ErrorOperator(n, 0, m, 0)
        if kind == "Y":
            return ErrorOperator(n, m, m, 1)
        raise ValueError(f"unknown Pauli kind {kind!r}")

    @staticmethod
    def from_letters(letters: str) -> "ErrorOperator":
        """Build from a letter string like ``"XZZXI"`` (qubit 1 first)."""
        n = len(letters)
        x = z = 0
        extra = 0
        for k, ch in enumerate(letters.upper(), start=1):
            m = 1 << (n - k)
            if ch == "X":
                x |= m
            elif ch == "Z":
                z |= m
            elif ch == "Y":
                x |= m
                z |= m
                extra += 1
            elif ch != "I":
                raise ValueError(f"bad Pauli letter {ch!r}")
        return ErrorOperator(n, x, z, extra)

    @property
    def weight(self) -> int:
        """Number of qubits the Pauli factor acts on."""
        return (self.x_mask | self.z_mask).bit_count()

    def compose(self, other: "ErrorOperator") -> "ErrorOperator":
        """Operator product ``self * other`` (``other`` acts first)."""
        if self.n != other.n:
            raise DimensionMismatch("operators act on different sizes")
        x, z, perm = other.x_mask, other.z_mask, other.perm
        if self.perm:
            # P X(a) Z(b) = X(P a) Z(P b) P
            mine = QubitPermutation(self.perm)
            x, z = mine.apply_index(x), mine.apply_index(z)
            perm = mine.compose(QubitPermutation(perm)).image if perm else self.perm
        swap = (self.z_mask & x).bit_count() & 1
        return ErrorOperator(
            self.n,
            self.x_mask ^ x,
            self.z_mask ^ z,
            self.phase + other.phase + 2 * swap,
            perm,
        )

    def inverse(self) -> "ErrorOperator":
        overlap = (self.x_mask & self.z_mask).bit_count() & 1
        x, z, perm = self.x_mask, self.z_mask, self.perm
        if perm:
            # (Q P)^-1 = P^-1 Q^-1 = (P^-1 Q^-1 P) P^-1
            inv = QubitPermutation(perm).inverse()
            x, z, perm = inv.apply_index(x), inv.apply_index(z), inv.image
        return ErrorOperator(self.n, x, z, -self.phase + 2 * overlap, perm)

    def apply(self, state: StateVector) -> StateVector:
        if self.n != state.n:
            raise DimensionMismatch("operator and state sizes differ")
        if state.mode == "float":
            return StateVector(self.n, dense=dense_images((self,), state.dense[None])[0])
        if self.perm:
            state = apply_permutation(state, QubitPermutation(self.perm))
        if not (self.x_mask or self.z_mask or self.phase):
            return state
        out = {}
        for idx, amp in state.terms.items():
            e = self.phase + 2 * ((self.z_mask & idx).bit_count() & 1)
            out[idx ^ self.x_mask] = amp.times_i(e)
        return StateVector.from_terms(self.n, out)

    def to_letters(self) -> str:
        """Display form of the Pauli factor, e.g. ``"-iXYZII"``."""
        letters = []
        ys = 0
        for k in range(1, self.n + 1):
            m = 1 << (self.n - k)
            x, z = bool(self.x_mask & m), bool(self.z_mask & m)
            if x and z:
                letters.append("Y")
                ys += 1
            elif x:
                letters.append("X")
            elif z:
                letters.append("Z")
            else:
                letters.append("I")
        prefix = {0: "", 1: "i", 2: "-", 3: "-i"}[(self.phase - ys) & 3]
        return prefix + "".join(letters)

    def label(self) -> str:
        if self.text:
            return self.text
        pauli = self._pauli_label()
        if not self.perm:
            return pauli
        perm = _perm_label(self.perm)
        return perm if pauli == "I" else f"{pauli} {perm}"

    def _pauli_label(self) -> str:
        body = (self.x_mask | self.z_mask).bit_count()
        if self.phase == 0 and body == 1:
            k = self.n - (self.x_mask | self.z_mask).bit_length() + 1
            if self.x_mask and not self.z_mask:
                return f"X{k}"
            if self.z_mask and not self.x_mask:
                return f"Z{k}"
        if self.phase == 1 and self.x_mask == self.z_mask and body == 1:
            k = self.n - self.x_mask.bit_length() + 1
            return f"Y{k}"
        if body == 0 and self.phase == 0:
            return "I"
        return self.to_letters()


PauliString = ErrorOperator


def ExchangeOp(n: int, j: int, k: int) -> ErrorOperator:
    """Swap qubits j and k, labelled ``E(j,k)`` with ``j < k``."""
    if j == k:
        raise ValueError("exchange requires two distinct qubits")
    if not (1 <= j <= n and 1 <= k <= n):
        raise DimensionMismatch(f"exchange qubits ({j},{k}) out of range 1..{n}")
    return _exchange(n, min(j, k), max(j, k))


def _exchange(n: int, j: int, k: int) -> ErrorOperator:
    """``E(j,k)`` for ``1 <= j < k <= n``, valid by construction: the
    transposition of two distinct qubits in range is a canonical,
    non-identity image, so ``ErrorOperator.__post_init__``'s checks are not
    run."""
    image = list(range(1, n + 1))
    image[j - 1], image[k - 1] = k, j
    op = object.__new__(ErrorOperator)
    vars(op).update(n=n, x_mask=0, z_mask=0, phase=0, perm=tuple(image), text=f"E({j},{k})")
    return op


def PermutationOp(perm: QubitPermutation) -> ErrorOperator:
    """A general relabeling of qubit positions, labelled ``P(image)``."""
    return ErrorOperator(perm.n, 0, 0, 0, perm.image, _perm_label(perm.image))


def IdentityOp(n: int) -> ErrorOperator:
    return ErrorOperator(n, 0, 0, 0, (), "I")


def Composition(ops: Iterable[ErrorOperator]) -> ErrorOperator:
    """Operator product; the last listed factor is applied first."""
    ops = tuple(ops)
    if not ops:
        raise ValueError("empty composition")
    sizes = {op.n for op in ops}
    if len(sizes) != 1:
        raise DimensionMismatch(f"composition mixes sizes {sorted(sizes)}")
    product = reduce(ErrorOperator.compose, ops)
    return replace(product, text=" ".join(op.label() for op in ops))


def apply(op: ErrorOperator, state: StateVector) -> StateVector:
    """Apply an error operator to a state."""
    return op.apply(state)


def dense_images(ops: Sequence[ErrorOperator], words: np.ndarray) -> np.ndarray:
    """Every image ``op * word`` of the float words given as the rows of
    ``words``, as row ``p * len(words) + i`` of one array (word index fastest).

    Operator p reads each word at one gather index per basis state w,
    ``perm^-1(w xor x_mask)``; unless it is a bare permutation it then
    takes ``(1j**phase) * signs * gathered``, ``signs`` being
    ``(-1)**parity(z_mask & (w xor x_mask))`` and ``1j**phase`` the Python
    scalar, so the result is the same bits whatever operators share the call.
    """
    ops = tuple(ops)
    n, size = ops[0].n, words.shape[1]
    idx = np.arange(size, dtype=np.int32)
    perms = {perm: k for k, perm in enumerate(dict.fromkeys(op.perm for op in ops if op.perm), 1)}
    source = np.vstack([idx, _source_indices(n, list(perms))]) if perms else idx[None]
    source = source[[perms.get(op.perm, 0) for op in ops]]
    # perm^-1 is linear over xor: perm^-1(w xor x) = perm^-1(w) xor perm^-1(x)
    x = np.array([op.x_mask for op in ops])
    gather = source ^ source[np.arange(len(ops)), x][:, None]
    out = np.empty((len(ops), len(words), size), dtype=np.complex128)
    for i, word in enumerate(words):
        out[:, i] = word[gather]
    pauli = [p for p, op in enumerate(ops) if op.x_mask or op.z_mask or op.phase]
    if pauli:
        z = np.array([ops[p].z_mask for p in pauli])[:, None]
        signs = 1.0 - 2.0 * _parity_u64((idx ^ x[pauli, None]) & z)
        for p, sign in zip(pauli, signs):
            np.multiply((1j ** ops[p].phase) * sign, out[p], out=out[p])
    return out.reshape(len(ops) * len(words), size)


_ATOM = _re.compile(
    r"I|([XYZ])(\d+)|E\((\d+)\s*,\s*(\d+)\)|P\(([\d\s]+)\)"
)


def _family_of(label: str) -> str:
    """``identity``, ``exchange``, a Pauli letter or ``other``, read from a label."""
    m = _ATOM.fullmatch(label)
    if m is None or m.group(5) is not None:
        return "other"
    if m.group(1):
        return m.group(1)
    if m.group(3):
        return "exchange"
    return "identity"


@dataclass(frozen=True)
class ErrorSet:
    """An ordered list of error operators, identity (label ``I``) first."""

    n: int
    ops: tuple
    labels: tuple[str, ...] = field(init=False)
    families: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        labels = tuple(op.label() for op in self.ops)
        if not labels or labels[0] != "I":
            raise ValueError("error set must start with the identity")
        if any(op.n != self.n for op in self.ops):
            raise DimensionMismatch("error set mixes qubit counts")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "families", tuple(_family_of(lbl) for lbl in labels))

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    @staticmethod
    def from_ops(n: int, ops: Sequence[ErrorOperator]) -> "ErrorSet":
        """The operators, with ``I`` put first unless it leads already.

        Rejects two operators of equal form, whatever their labels.
        """
        ops = list(ops)
        if not ops or ops[0].label() != "I":
            ops.insert(0, IdentityOp(n))
        es = ErrorSet(n, tuple(ops))
        seen: dict[ErrorOperator, str] = {}
        for op, lbl in zip(es.ops, es.labels):
            if op in seen:
                raise ValueError(
                    f"duplicate error operators: {seen[op]} and {lbl} act identically"
                )
            seen[op] = lbl
        return es


_KNOWN_FAMILIES = {"single_pauli", "exchange", "identity_only"}


def basic_error_set(n: int, families: Iterable[str] = ("single_pauli",)) -> ErrorSet:
    """Standard error sets.

    ``single_pauli`` contributes X1..Xn, Y1..Yn, Z1..Zn; ``exchange``
    contributes all E(j,k) with j < k in lexicographic order, placed right
    after the identity so that the identity+exchange entries form one
    contiguous block; ``identity_only`` adds nothing beyond the leading
    identity, which is always present.
    """
    fams = set(families)
    unknown = fams - _KNOWN_FAMILIES
    if unknown:
        raise ValueError(f"unknown error families: {sorted(unknown)}")
    if not fams:
        raise ValueError("at least one family is required")
    ops: list[ErrorOperator] = [IdentityOp(n)]
    if "exchange" in fams:
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                ops.append(_exchange(n, j, k))
    if "single_pauli" in fams:
        for kind in "XYZ":
            for k in range(1, n + 1):
                ops.append(ErrorOperator.single(n, kind, k))
    return ErrorSet(n, tuple(ops))


def _parse_atom(token: str, n: int) -> ErrorOperator:
    m = _ATOM.fullmatch(token)
    if m is None:
        raise ValueError(f"cannot parse operator token {token!r}")
    if m.group(1):
        return ErrorOperator.single(n, m.group(1), int(m.group(2)))
    if m.group(3):
        return ExchangeOp(n, int(m.group(3)), int(m.group(4)))
    if m.group(5) is not None:
        image = tuple(int(t) for t in m.group(5).split())
        if len(image) != n:
            raise ValueError(f"permutation {token!r} must list all {n} destinations")
        return PermutationOp(QubitPermutation(image))
    return IdentityOp(n)


def parse_error_ops(text: str, n: int) -> list[ErrorOperator]:
    """Parse a comma-separated operator list, e.g. ``"X3, E(3,4), X1 Z2"``.

    Whitespace-juxtaposed atoms within one element form an operator product
    (rightmost factor applied first).
    """
    ops: list[ErrorOperator] = []
    for element in _split_outside_parens(text, ",".__eq__):
        element = element.strip()
        if not element:
            raise ValueError("empty operator element")
        atoms = _split_outside_parens(element, str.isspace)
        ops.append(Composition(_parse_atom(t, n) for t in atoms if t))
    return ops


def _split_outside_parens(text: str, is_sep) -> list[str]:
    """Split ``text`` at each character ``is_sep`` accepts outside parentheses."""
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and is_sep(ch):
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out
