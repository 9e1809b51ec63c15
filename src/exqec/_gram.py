"""The Gram layer: every inner product ``<e_p C_i | e_q C_j>`` of a code's
words under an error set, and the comparison that reads the correctability
condition off it.

``_gram`` picks one of three engines.  When every word is a sum of whole
weight orbits (each weight it uses holds all C(n, w) strings with one
shared amplitude), every qubit permutation fixes the words, so only the
Pauli part of an error acts, and ``_orbit_gram`` evaluates one closed-form
integer atom (``_orbit_atom``) per Pauli class of ``P_p^dagger Q_q``, the
sizes of its Y-, X- and Z-type supports, times ``i**phase``.  It builds
no state.  Other exact words take ``_exact_gram``, which moves each word's
Gaussian-integer terms by every error, building no image state, and sums
over shared basis states.  Both exact engines scale amplitudes to Gaussian
integers over one common denominator per radicand and turn each image
pair's integer sums into a value id through one ``_Values`` table, so each
gives an integer array of ids over interned values, equal ids exactly for
equal values.
Float words have their images built as the rows of one array
(``errorops.dense_images``) and take ``_float_gram``, whose table is a
complex array.

Each engine also gives every entry's image index (``GramTensor``), so
``_violations`` compares once per pair of error classes, errors with equal
images on every word, in array operations: float values against the
tolerance, exact ids for equality, with ``_excess`` once per distinct pair
of unequal ids.  ``_resolve_tol`` is the one rule for that tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errorops import ErrorOperator, ErrorSet, dense_images
from .qstate import (
    DEFAULT_FLOAT_TOL,
    Amplitude,
    InnerProductValue,
    QubitPermutation,
    StateVector,
    surd_product,
)


@dataclass(frozen=True)
class GramTensor:
    """All inner products ``<e_p C_i | e_q C_j>``; Hermitian by construction.

    ``which[x]`` is the distinct-image index of ``x = p * num_words + i``
    (word index fastest).  Exact words give ``table``, an integer array of
    value ids over the pairs of distinct images, and ``values``, the
    interned values it names: ``<image a | image b> = values[table[a, b]]``,
    ``values[0]`` is zero, and two ids are equal exactly when their values
    are.  Float words give a complex128 ``table`` and no ``values``; a float
    value becomes an ``InnerProductValue`` only when ``entry`` or
    ``entries`` reads it.
    """

    errors: ErrorSet
    num_words: int
    which: tuple[int, ...]
    table: np.ndarray
    values: tuple[InnerProductValue, ...] | None = None

    def entry(self, p: int, i: int, q: int, j: int) -> InnerProductValue:
        w = self.num_words
        a, b = self.which[p * w + i], self.which[q * w + j]
        if self.values is None:
            return InnerProductValue.from_complex(self.table[a, b])
        return self.values[self.table[a, b]]

    def __eq__(self, other):
        if not isinstance(other, GramTensor):
            return NotImplemented
        return (self.errors, self.num_words) == (other.errors, other.num_words) and (
            self.entries == other.entries
        )

    @property
    def entries(self) -> tuple[InnerProductValue, ...]:
        """Every entry, flat over ``(x, y)`` with ``y`` fastest; equal image
        pairs share one value object."""
        read = InnerProductValue.from_complex if self.values is None else self.values.__getitem__
        rows = [list(map(read, row)) for row in self.table.tolist()]
        return tuple(rows[a][b] for a in self.which for b in self.which)


class _Values:
    """Interned exact values of integer sums, shared by both exact engines.

    The amplitudes of radicand ``r = radicands[k]`` are scaled to Gaussian
    integers over ``L_r``, the common denominator of every amplitude given
    (``gaussian``).  An integer sum ``p`` of ``conj(a) * b`` over entries
    ``a`` of radicand r and ``b`` of radicand ``s = radicands[l]`` is keyed
    ``k * len(radicands) + l`` and stands for ``p * g / (L_r * L_s)`` at
    radicand ``r * s / g**2``, ``g = gcd(r, s)``, which is exact for
    squarefree radicands.  ``ids`` builds the value of a list of such sums
    and its conjugate once per list and interns them by their parts:
    ``values[0]`` is zero, and two ids are equal exactly when their values
    are.
    """

    def __init__(self, amps: Iterable[Amplitude]):
        scale: dict[int, int] = {}
        for amp in amps:
            r = amp.radicand
            scale[r] = math.lcm(scale.get(r, 1), amp.re.denominator, amp.im.denominator)
        self._scale = scale
        self.radicands = list(scale)
        self._index = {r: (k, den) for k, (r, den) in enumerate(scale.items())}
        self.values = [InnerProductValue.exact({})]
        self._interned = {(): 0}
        self._built: dict[tuple, tuple[int, int]] = {(): (0, 0)}

    def gaussian(self, amp: Amplitude) -> tuple[int, int, int]:
        """``(k, re * L_r, im * L_r)`` of an amplitude of radicand ``radicands[k]``."""
        k, den = self._index[amp.radicand]
        re, im = amp.re, amp.im
        return k, re.numerator * (den // re.denominator), im.numerator * (den // im.denominator)

    def ids(self, sums: Iterable[tuple[int, int, int]]) -> tuple[int, int]:
        """Ids of the value of the ``(key, re, im)`` sums and of its conjugate."""
        key = tuple(sorted(sums))
        found = self._built.get(key)
        if found is None:
            nr = len(self.radicands)
            parts: dict[int, list] = {}
            for kl, re, im in key:
                r, s = self.radicands[kl // nr], self.radicands[kl % nr]
                (g, t), den = surd_product(r, s), self._scale[r] * self._scale[s]
                slot = parts.setdefault(t, [0, 0])
                slot[0] += Fraction(re * g, den)
                slot[1] += Fraction(im * g, den)
            value = InnerProductValue.exact(parts)
            conj = value.conjugate()
            for x in (value, conj):
                if x.parts not in self._interned:
                    self._interned[x.parts] = len(self.values)
                    self.values.append(x)
            found = self._built[key] = self._interned[value.parts], self._interned[conj.parts]
        return found


def _exact_gram(
    words: Sequence[StateVector], errors: Iterable[ErrorOperator]
) -> tuple[tuple[int, ...], np.ndarray, tuple[InnerProductValue, ...]]:
    """``(which, ids, values)`` of exact words under errors: with image
    ``x = p * len(words) + i`` the word ``words[i]`` under the p-th error,
    ``<image x | image y>`` is ``values[ids[which[x], which[y]]]``.

    The words' amplitudes are scaled to Gaussian integers once
    (``_Values``); an image's amplitudes are unit multiples of its word's,
    so they share its denominators.  Each word's basis indices are moved
    once per distinct permutation, and the error ``i**p X(x) Z(z) P`` then
    takes the entry ``(w, k, a)`` at moved index ``w`` to
    ``(w ^ x, k, i**e * a)``, ``e = p + 2 parity(z & w)``; no image state
    is built.  Identical images are merged by these integer terms, in
    first-seen order.  Every basis index adds ``conj(a) * b`` for each pair
    of its entries ``a`` (image ``u``, radicand index ``k``) and ``b``
    (image ``v >= u``, radicand index ``l``) to one integer sum per
    ``(u, v, k, l)``; Python integers cannot overflow.  ``(v, u)`` holds
    the conjugate of ``(u, v)``.
    """
    pool = _Values(amp for word in words for amp in word.terms.values())
    # per word and entry: (k, re, im) times i**0, i, i**2 and i**3
    turns = [
        [((k, a, b), (k, -b, a), (k, -a, -b), (k, b, -a))
         for k, a, b in map(pool.gaussian, word.terms.values())]
        for word in words
    ]
    moved: dict[tuple[int, ...], list[list[int]]] = {(): [list(w.terms) for w in words]}
    index: dict[frozenset, int] = {}
    which = []
    for op in errors:
        if op.perm not in moved:
            to = QubitPermutation(op.perm).apply_index
            moved[op.perm] = [list(map(to, w.terms)) for w in words]
        x, z, phase = op.x_mask, op.z_mask, op.phase
        for idxs, turn in zip(moved[op.perm], turns):
            ints = frozenset(
                (w ^ x, *t[(phase + 2 * (z & w).bit_count()) & 3]) for w, t in zip(idxs, turn)
            )
            which.append(index.setdefault(ints, len(index)))
    size, nr = len(index), len(pool.radicands)
    # basis index -> (left key part, right key part, re, im) of each entry; the
    # parts add to ((u * size + v) * nr + k) * nr + l for entries (u, k), (v, l)
    by_index: dict[int, list[tuple[int, int, int, int]]] = {}
    for u, ints in enumerate(index):
        for idx, k, re, im in ints:
            by_index.setdefault(idx, []).append(
                ((u * size * nr + k) * nr, u * nr * nr + k, re, im)
            )
    acc: dict[int, list[int]] = {}
    for entries in by_index.values():
        for i, (left, _, ar, ai) in enumerate(entries):
            for _, right, br, bi in entries[i:]:
                slot = acc.get(left + right)
                if slot is None:
                    acc[left + right] = [ar * br + ai * bi, ar * bi - ai * br]
                else:
                    slot[0] += ar * br + ai * bi
                    slot[1] += ar * bi - ai * br
    sums: dict[int, list[tuple[int, int, int]]] = {}
    for key, (re, im) in acc.items():
        if re or im:
            pair, kl = divmod(key, nr * nr)
            sums.setdefault(pair, []).append((kl, re, im))
    ids = np.zeros((size, size), dtype=np.intp)
    for pair, terms in sums.items():
        u, v = divmod(pair, size)
        ids[u, v], ids[v, u] = pool.ids(terms)  # a norm is real: u == v takes one id
    return tuple(which), ids, tuple(pool.values)


def _float_gram(rows: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """``(which, table)`` of float states, the rows of one array:
    ``<rows[x] | rows[y]> = table[which[x], which[y]]``, ``table`` a
    complex128 array over the distinct rows.  Rows with equal bytes are
    merged in first-seen order; bytes equality keeps signed zeros apart.
    Row ``a`` of the upper triangle is one ``np.vecdot`` of distinct row
    ``a`` against the view of every later row, which reaches the same BLAS
    ``zdotc`` as ``np.vdot`` and so keeps its bits; ``(b, a)`` holds the
    conjugate of ``(a, b)``."""
    index: dict[bytes, int] = {}
    keep: list[int] = []  # the row of each distinct image
    which = []
    for x, row in enumerate(rows):
        a = index.setdefault(row.tobytes(), len(keep))
        if a == len(keep):
            keep.append(x)
        which.append(a)
    m = len(keep)
    cols = np.array(keep)
    table = np.empty((m, m), dtype=np.complex128)
    for a, x in enumerate(keep):
        table[a, a:] = np.vecdot(rows[x], rows[x:])[cols[a:] - x]
    lower = np.tril_indices(m, -1)
    table[lower] = table.T[lower].conj()
    return tuple(which), table


def _signed_choices(k: int, minus: int, plus: int) -> int:
    """Ways to pick k of ``minus + plus`` slots, each minus slot picked costing -1."""
    return sum(
        (-1) ** a * math.comb(minus, a) * math.comb(plus, k - a)
        for a in range(min(k, minus) + 1)
    )


def _orbit_atom(n: int, ny: int, nx: int, nz: int, kappa: int, mu: int) -> int:
    """<O_kappa | X(x) Z(z) O_mu>, O = orbit_sum, for every ``X(x) Z(z)``
    of the Pauli class with ny Y-type (in x and z), nx X-type and nz Z-type
    qubits; an error ``i**p X(x) Z(z) P`` has ``i**p`` times this atom.

    Orbit sums are fixed by every qubit permutation, so only the class
    matters.  A weight-mu string v lands in weight kappa exactly when it
    holds h = (mu + ny + nx - kappa) / 2 ones under x, and it picks up
    (-1)**|z & v|: a product of signed counts over the Y- and X-type qubits
    (h ones) and the Z-type and untouched qubits (mu - h ones).
    """
    twice_h = mu + ny + nx - kappa
    if twice_h % 2:
        return 0
    h = twice_h // 2
    return _signed_choices(h, ny, nx) * _signed_choices(mu - h, nz, n - ny - nx - nz)


def _pauli_class(phase: int, x: int, z: int) -> tuple[int, int, int, int]:
    """Phase and Y-, X-, Z-type support sizes of ``i**phase X(x) Z(z)``: the atom's key."""
    return phase, (x & z).bit_count(), (x & ~z).bit_count(), (z & ~x).bit_count()


def _orbit_coefficients(word: StateVector) -> dict[int, Amplitude] | None:
    """Weight -> amplitude when the exact ``word`` is a sum of whole weight
    orbits (all C(n, w) strings of each weight it uses, one shared
    amplitude per weight); None otherwise."""
    if word.mode != "exact":
        return None
    coeffs: dict[int, Amplitude] = {}
    counts: dict[int, int] = {}
    for idx, amp in word.terms.items():
        w = idx.bit_count()
        first = coeffs.setdefault(w, amp)
        if first is not amp and first != amp:  # orbit terms mostly share one object
            return None
        counts[w] = counts.get(w, 0) + 1
    if any(c != math.comb(word.n, w) for w, c in counts.items()):
        return None
    return coeffs


def _orbit_gram(
    n: int, coeffs: Sequence[dict[int, Amplitude]], errors: ErrorSet, atoms: dict | None = None
) -> tuple[tuple[int, ...], np.ndarray, tuple[InnerProductValue, ...]]:
    """``GramTensor``'s ``(which, table, values)`` of orbit words, one atom
    per Pauli class; image ``u * w + i`` is word i under the u-th distinct
    Pauli part.

    Permutation factors fix the words and are dropped.  For the Pauli parts
    ``P_u = i**p_u X(x_u) Z(z_u)`` and ``P_v`` of two errors,
    ``P_u^dagger P_v = i**(p_v - p_u + 2 |x_u & z_u| + 2 |z_u & x_v|)
    X(x_u ^ x_v) Z(z_u ^ z_v)``; every pair's class of that product is read
    with numpy bit counts, and each class gets its ``(i, j)`` values once as
    the integer sums ``conj(a_kappa) b_mu atom(kappa, mu)`` per radicand
    pair, turned into ids by ``_Values``.  The atom of ``i**p X(x) Z(z)`` is
    ``i**p`` times its class's integer ``_orbit_atom``, read from ``atoms``
    (class ``(ny, nx, nz)`` -> (kappa, mu) -> atom) or entered there on
    first use.
    """
    atoms = {} if atoms is None else atoms
    pool = _Values(amp for c in coeffs for amp in c.values())
    nr = len(pool.radicands)
    ints = [{kappa: pool.gaussian(a) for kappa, a in c.items()} for c in coeffs]
    parts: dict[tuple[int, int, int], int] = {}
    which = [parts.setdefault((op.phase, op.x_mask, op.z_mask), len(parts)) for op in errors.ops]
    # per word pair (i, j): the integer conj(a_kappa) * b_mu, grouped by the
    # radicand pair key, so the loop over classes adds integers only
    products = []
    for left in ints:
        for right in ints:
            groups: dict[int, list[tuple[tuple[int, int], int, int]]] = {}
            for kappa, (k, ar, ai) in left.items():
                for mu, (l, br, bi) in right.items():
                    groups.setdefault(k * nr + l, []).append(
                        ((kappa, mu), ar * br + ai * bi, ar * bi - ai * br)
                    )
            products.append(list(groups.items()))
    p, x, z = (np.array(column, dtype=np.int64) for column in zip(*parts))
    ones, x2, z2 = np.bitwise_count, x[:, None] ^ x, z[:, None] ^ z
    # every (u, v) pair's class: the phase, then the Y-, X- and Z-type support sizes
    classes = (
        (p - p[:, None] + 2 * (ones(x & z)[:, None] + ones(z[:, None] & x))) & 3,
        ones(x2 & z2), ones(x2 & ~z2), ones(z2 & ~x2),
    )
    number: dict[tuple[int, ...], int] = {}
    cls = [number.setdefault(k, len(number)) for k in zip(*(a.ravel().tolist() for a in classes))]
    w, size = len(coeffs), len(parts)
    V = np.empty((len(number), w * w), dtype=np.intp)
    for c, (rot, *sizes) in enumerate(number):
        memo = atoms.setdefault(tuple(sizes), {})
        for k, terms in enumerate(products):
            sums = []
            for kl, group in terms:
                sr = si = 0
                for km, re, im in group:
                    t = memo.get(km)
                    if t is None:
                        t = memo[km] = _orbit_atom(n, *sizes, *km)
                    sr += re * t
                    si += im * t
                if sr or si:  # times i**phase
                    sums.append((kl, *((sr, si), (-si, sr), (-sr, -si), (si, -sr))[rot]))
            V[c, k] = pool.ids(sums)[0]
    # V[cls][u, v, i, j] = <P_u W_i | P_v W_j>, row u * w + i and column v * w + j
    table = V[np.reshape(cls, (size, size))].reshape(size, size, w, w)
    table = table.transpose(0, 2, 1, 3).reshape(size * w, size * w)
    return tuple(u * w + i for u in which for i in range(w)), table, tuple(pool.values)


def _gram(words: Sequence[StateVector], errors: ErrorSet) -> GramTensor:
    """The Gram tensor.  Orbit words go to ``_orbit_gram``, which builds no
    state.  Other exact words go to ``_exact_gram``, which takes every error
    to their Gaussian-integer terms and sums over shared basis states in
    Python integers, also building no state.  Float images are the rows of
    one array (``dense_images``), and ``_float_gram`` takes one
    ``np.vecdot`` per distinct row into a complex array."""
    if words[0].n != errors.n:
        raise ValueError(f"code on {words[0].n} qubits, errors on {errors.n}")
    coeffs = [_orbit_coefficients(word) for word in words]
    if all(c is not None for c in coeffs):
        gram = _orbit_gram(words[0].n, coeffs, errors)
    elif words[0].mode == "exact":
        gram = _exact_gram(words, errors)
    else:
        gram = _float_gram(dense_images(errors.ops, np.array([w.dense for w in words])))
    return GramTensor(errors, len(words), *gram)


@dataclass(frozen=True)
class Violation:
    """One failed condition.

    ``kind`` is ``cross_word`` (entry between different words should vanish),
    ``block_mismatch`` (word i's d_pq differs from word 0's) or ``strict``
    (off-diagonal / unequal diagonal where a scalar D was demanded).
    For the extended check the word indices are (i, m) pairs.
    """

    kind: str
    i: object
    j: object
    p: int
    q: int
    magnitude: float
    value: InnerProductValue
    reference: InnerProductValue | None = None

    def describe(self, labels: Sequence[str]) -> str:
        lp, lq = labels[self.p], labels[self.q]
        if self.kind == "cross_word":
            return (
                f"<{lp} C{self.i} | {lq} C{self.j}> = {self.value} should vanish"
            )
        if self.kind == "block_mismatch":
            return (
                f"d[{lp},{lq}] differs between word {self.i} and word 0: "
                f"{self.value} vs {self.reference}"
            )
        return f"strict condition fails at d[{lp},{lq}] = {self.value}"


def _resolve_tol(mode: str, tol: float | None) -> float:
    """The comparison tolerance: ``tol`` when given, else 0 in exact
    ``mode`` and ``DEFAULT_FLOAT_TOL`` in float mode."""
    if tol is not None:
        # a nan bound makes every comparison False, so nothing would exceed it
        if not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
        return tol
    return 0.0 if mode == "exact" else DEFAULT_FLOAT_TOL


def _excess(
    v: InnerProductValue, ref: InnerProductValue | None, tol: float
) -> InnerProductValue | None:
    """``v - ref`` (``v`` when ``ref`` is None) if it exceeds ``tol``, else None."""
    d = v if ref is None else v.sub(ref)
    if tol == 0.0 and d.is_exact:
        return None if d.is_exact_zero() else d
    return d if d.magnitude() > tol else None


def _mismatches(
    G: GramTensor, left: Sequence[int], right: Sequence[int], ref, tol: float, grid: bool = True
) -> tuple[np.ndarray, dict[tuple[int, ...], tuple]]:
    """Where the Gram value at the image pairs from ``left`` and ``right``
    differs by more than ``tol`` from the value at the pairs from ``ref``,
    a ``(left, right)`` pair of the same form (zero when None): a boolean
    array of the failing pairs and key -> (magnitude of the difference,
    value, reference value) for each.

    With ``grid`` the pairs are ``(left[c], right[e])`` keyed ``(c, e)``,
    else ``(left[c], right[c])`` keyed ``(c,)``.  A float array is compared
    in one ``np.abs(V - R) > tol``, each magnitude being Python's ``abs`` of
    the complex difference.  Exact ids are compared in one ``V != R``, the
    zero id standing for no reference: equal ids are equal values, and
    ``_excess`` decides each distinct pair of unequal ids once (at
    tolerance 0 every such pair fails).  Values are built or read only for
    failing pairs.
    """
    table = G.table

    def at(rows, cols):
        return table[np.ix_(rows, cols) if grid else (rows, cols)]

    v = at(left, right)
    r = None if ref is None else at(*ref)
    if G.values is None:
        diff = v if r is None else v - r
        bad = np.abs(diff) > tol
        return bad, {
            key: (
                abs(complex(diff[key])),
                InnerProductValue.from_complex(v[key]),
                None if r is None else InnerProductValue.from_complex(r[key]),
            )
            for key in map(tuple, np.argwhere(bad).tolist())
        }
    values = G.values
    ref_ids = np.zeros_like(v) if r is None else r
    differ = v != ref_ids
    pairs = list(zip(v[differ].tolist(), ref_ids[differ].tolist()))
    found = {}
    for a, b in dict.fromkeys(pairs):
        reference = None if r is None else values[b]
        d = _excess(values[a], reference, tol)
        if d is not None:
            found[a, b] = d.magnitude(), values[a], reference
    keys = map(tuple, np.argwhere(differ).tolist())
    out = {key: found[pair] for key, pair in zip(keys, pairs) if pair in found}
    if len(out) < len(pairs):
        differ[differ] = [pair in found for pair in pairs]
    return differ, out


def _violations(
    G: GramTensor, keys: Sequence, tol: float, strict: bool = False
) -> list[Violation]:
    """``cross_word`` then ``block_mismatch`` then, when ``strict``,
    ``strict`` violations; ``keys[a]`` names word a.

    Errors whose images match for every word form one class, and each check
    compares each (class, class) pair once through ``_mismatches``; the
    failing pairs are spread over the errors by indexing their boolean array
    with each error's class, and listed in ``(p, q)`` order.  The strict
    check compares word 0's block with 0 between two errors and each
    ``d_pp`` with ``d_00``."""
    checks = [("cross_word", a, b) for a, b in combinations(range(len(keys)), 2)]
    checks += [("block_mismatch", a, a) for a in range(1, len(keys))]
    w, N = G.num_words, len(G.errors)
    index: dict[tuple[int, ...], int] = {}
    cls = [index.setdefault(G.which[p * w : (p + 1) * w], len(index)) for p in range(N)]
    images = [[img[a] for img in index] for a in range(w)]  # word a's image per class
    spread = np.ix_(cls, cls)
    out: list[Violation] = []
    for kind, a, b in checks:
        ref = (images[0], images[0]) if kind == "block_mismatch" else None
        hit, bad = _mismatches(G, images[a], images[b], ref, tol)
        if bad:
            out += [
                Violation(kind, keys[a], keys[b], p, q, *bad[cls[p], cls[q]])
                for p, q in np.argwhere(hit[spread]).tolist()
            ]
    if strict:
        off_hit, off = _mismatches(G, images[0], images[0], None, tol)
        d00 = [G.which[0]] * len(index)
        diag_hit, diag = _mismatches(G, images[0], images[0], (d00, d00), tol, grid=False)
        hit = off_hit[spread]
        np.fill_diagonal(hit, diag_hit[cls])
        for p, q in np.argwhere(hit).tolist():
            bad = diag[cls[p],] if p == q else off[cls[p], cls[q]]
            out.append(Violation("strict", keys[0], keys[0], p, q, *bad))
    return out
