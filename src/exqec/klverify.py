"""Correctability checks: Gram tensors, the D matrix, recovery operators.

A code with words ``C_i`` corrects an error set ``{e_p}`` exactly when

    <e_p C_i | e_q C_j> = delta_ij * d_pq

for a single Hermitian matrix ``D = (d_pq)`` independent of the word pair.
``verify_kl`` checks this condition; its ``strict`` flag additionally
requires ``d_pq = c * delta_pq`` (errors mapping to mutually orthogonal
subspaces).  ``verify_kl_extended`` checks the same condition for a family
of codes indexed by an extra label m:

    <e_p C_i^m | e_q C_j^m'> = delta_ij * delta_mm' * d_pq

The Gram tensor and the comparison come from ``_gram``.  D keeps the
array it was read from (``DMatrix``); the printer renders each id once,
and a float value becomes an ``InnerProductValue`` only when it is printed
or read.  ``DMatrix.rank`` takes the S_n split (``_split_rank``) whenever
D's ids have its shape, as for an orbit code under I and every X_k, Y_k,
Z_k: a 4x4 symmetric block and an (n-1)-fold 3x3 block.  Every
``d_blocks`` block is ranked the same way.

Recovery construction diagonalizes D in float arithmetic; everything else
runs exactly when given exact-mode codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, groupby
from typing import Sequence

import numpy as np

from .codes import Code, shor_code
from .errorops import ErrorSet, ExchangeOp, PauliString, dense_images
from .qstate import DEFAULT_FLOAT_TOL, InnerProductValue, StateVector
from ._gram import GramTensor, Violation, _gram, _resolve_tol, _violations
from ._linalg import surd_rank

__all__ = [
    "GramTensor",
    "DMatrix",
    "KLReport",
    "Violation",
    "DBlockReport",
    "BlockInfo",
    "RecoveryOperation",
    "BoundReport",
    "ShorExchangeReport",
    "gram_tensor",
    "verify_kl",
    "verify_kl_extended",
    "d_blocks",
    "build_recovery",
    "dimension_bound",
    "shor_exchange_demo",
    "DEFAULT_FLOAT_TOL",
]


def gram_tensor(code: Code, errors: ErrorSet) -> GramTensor:
    return _gram(code.words, errors)


def _ids_of(
    entries: Sequence[Sequence[InnerProductValue]],
) -> tuple[np.ndarray, tuple[InnerProductValue, ...]]:
    """``(ids, values)`` of a matrix of values, equal values sharing one id."""
    index: dict[InnerProductValue, int] = {}
    ids = [[index.setdefault(v, len(index)) for v in row] for row in entries]
    return np.array(ids, dtype=np.intp), tuple(index)


class DMatrix:
    """The common word block ``d_pq`` with the error labels that index it.

    ``table`` holds D as ``(ids, values)``, ``d_pq = values[ids[p, q]]``.
    An exact D read off a Gram table (``over``) keeps the Gram's id
    sub-array and values, a float one keeps the Gram array, and a D built
    from ``entries`` has its equal values share one id.  Each form builds
    the others only when they are read; a float D's ``table`` has one value
    per distinct pair of error images.
    """

    def __init__(
        self,
        entries: tuple[tuple[InnerProductValue, ...], ...] | None,
        labels: tuple[str, ...],
        families: tuple[str, ...],
    ):
        self._entries = entries
        self._table = None  # (ids, values)
        self._array = None  # a float D's (Gram array, image of each error)
        self.labels = labels
        self.families = families

    @classmethod
    def over(
        cls, table: np.ndarray, images: Sequence[int], labels, families, values=None
    ) -> "DMatrix":
        """D of the errors whose images are ``images``, read off a Gram
        table: an id array over ``values``, or a complex array when
        ``values`` is None."""
        d = cls(None, labels, families)
        if values is None:
            d._array = table, images
        else:
            d._table = table[np.ix_(images, images)], values
        return d

    @property
    def table(self) -> tuple[np.ndarray, tuple[InnerProductValue, ...]]:
        if self._table is None:
            if self._entries is not None:
                self._table = _ids_of(self._entries)
            else:
                table, images = self._array
                distinct = list(dict.fromkeys(images))
                pos = np.array([distinct.index(a) for a in images])
                sub = table[np.ix_(distinct, distinct)].ravel().tolist()
                values = tuple(map(InnerProductValue.from_complex, sub))
                self._table = pos[:, None] * len(distinct) + pos, values
        return self._table

    @property
    def entries(self) -> tuple[tuple[InnerProductValue, ...], ...]:
        if self._entries is None:
            ids, values = self.table
            self._entries = tuple(tuple(values[k] for k in row) for row in ids.tolist())
        return self._entries

    @property
    def size(self) -> int:
        return len(self.labels)

    def __eq__(self, other):
        if not isinstance(other, DMatrix):
            return NotImplemented
        return (self.entries, self.labels, self.families) == (
            other.entries, other.labels, other.families
        )

    def to_float(self) -> np.ndarray:
        if self._array is not None:
            table, images = self._array
            return table[np.ix_(images, images)]
        ids, values = self.table
        return np.array([v.float_view for v in values], dtype=np.complex128)[ids]

    def rank(self) -> int:
        """Exact rank over the field of the exact entries, else float rank.

        An exact D with the shape of the S_n split (``_split_rank``) is
        ranked through it.  Otherwise repeated rows and columns (errors with
        equal images, such as the exchanges on a permutation-invariant code)
        add no rank and are dropped before ``surd_rank``.  A float D read
        off a Gram array is ranked from the array, singular values up to
        ``DEFAULT_FLOAT_TOL`` times its largest ``|entry|``, or times 1 when
        that is smaller, counting as zero.
        """
        if self._array is None:
            ids, values = self.table
            split = _split_rank(ids, values, self.families)
            if split is not None:
                return split
            if all(v.is_exact for v in values):
                columns = dict.fromkeys(zip(*dict.fromkeys(map(tuple, ids.tolist()))))
                return surd_rank([[values[k].parts for k in col] for col in columns])
        m = self.to_float()
        cutoff = DEFAULT_FLOAT_TOL * max(1.0, float(np.abs(m).max()))
        return int(np.linalg.matrix_rank(m, tol=cutoff))


@dataclass
class KLReport:
    correctable: bool
    d_matrix: DMatrix | None
    violations: list[Violation]
    tolerance: float
    strict: bool
    rank: int | None
    dimension_used: int | None  # 2 * rank for a two-word code family
    dimension_total: int  # 2**n
    labels: tuple[str, ...]

    def to_lines(self) -> list[str]:
        lines = [
            f"correctable: {str(self.correctable).lower()}",
            f"tolerance: {self.tolerance:.3g}",
            f"strict: {str(self.strict).lower()}",
            f"violations: {len(self.violations)}",
        ]
        for v in self.violations[:20]:
            lines.append(f"violation: {v.describe(self.labels)} (|.| = {v.magnitude:.3g})")
        if len(self.violations) > 20:
            lines.append(f"violation: ... {len(self.violations) - 20} more")
        if self.rank is not None:
            lines.append(f"rank: {self.rank}")
            lines.append(
                f"dimension-used: {self.dimension_used} of {self.dimension_total}"
            )
        return lines


def _family_runs(families: Sequence[str]) -> list[tuple[str, int, int]]:
    """Each maximal run of one family as ``(name, start, stop)``, the
    identity and any exchanges right after it merged into the run "0"; a
    family that comes back after another opens a new run."""
    runs: list[tuple[str, int, int]] = []
    for name, group in groupby(families):
        start = runs[-1][2] if runs else 0
        runs.append((name, start, start + len(list(group))))
    merged: list[tuple[str, int, int]] = []
    for name, a, b in runs:
        if name == "exchange" and merged and merged[-1][0] == "0":
            merged[-1] = ("0", merged[-1][1], b)
        else:
            merged.append(("0" if name == "identity" else name, a, b))
    return merged


def _split_rank(
    ids: np.ndarray, values: Sequence[InnerProductValue], families: Sequence[str]
) -> int | None:
    """Exact rank of a square D, given as ``(ids, values)`` with equal ids
    exactly for equal values, through the S_n split; None when D lacks the
    split's shape.

    The shape, over ``_family_runs``: every row of a leading run "0"
    (identity plus any exchanges) equals row 0, which is constant on each
    run; the other runs share one length n; row k of run K is constant
    ``c_K`` on the leading run and reads ``B_KL ... A_KL ... B_KL`` in run
    L, with ``A_KL`` at its own position k.  Such a D commutes with
    permuting the positions of every run at once: its leading rows and
    columns repeat, the sum-zero vectors of each run carry ``A - B`` n-1
    times, and the run sums carry ``M_sym = [[d_00, n r_L], [c_K, A_KL +
    (n-1) B_KL]]``, ``r_L`` being row 0 on run L.  The ids are compared
    with the id matrix of that shape in one array comparison, and the
    representative values must be exact.
    """
    size = len(families)
    if ids.shape != (size, size):
        return None
    runs = _family_runs(families)
    if len({name for name, _, _ in runs}) != len(runs):
        return None  # a family comes back after another
    head = runs.pop(0)[2] if runs and runs[0][0] == "0" else 0
    starts = [a for _, a, _ in runs]
    n = runs[0][2] - starts[0] if runs else 1
    if any(b - a != n for _, a, b in runs):
        return None
    # (c_K, [(A_KL, B_KL) per run L]) per run K as ids; row 0 leads with A = B = r_L
    reps = [(ids[s, 0], [(ids[s, t], ids[s, t + (n > 1)]) for t in starts]) for s in starts]
    if head:
        reps.insert(0, (ids[0, 0], [(ids[0, t],) * 2 for t in starts]))
    if not all(values[k].is_exact for c, ab in reps for k in (c, *chain(*ab))):
        return None
    expected = np.empty_like(ids)
    bounds = [(0, head)] * (head > 0) + [(s, s + n) for s in starts]
    for (c, ab), (lo, hi) in zip(reps, bounds):
        rows = expected[lo:hi]
        rows[:, :head] = c
        for (a, b), t in zip(ab, starts):
            rows[:, t : t + n] = b
            np.fill_diagonal(rows[:, t : t + n], a)  # a == b on the leading rows
    if not np.array_equal(ids, expected):
        return None

    def scaled(k: int, m: int) -> list[tuple[int, Fraction, Fraction]]:
        return [(r, m * re, m * im) for r, re, im in values[k].parts]

    rank = surd_rank([
        [values[c].parts] * (head > 0) + [[*values[a].parts, *scaled(b, n - 1)] for a, b in ab]
        for c, ab in reps
    ])
    if n > 1:
        rank += (n - 1) * surd_rank([
            [[*values[a].parts, *scaled(b, -1)] for a, b in ab] for _, ab in reps[head > 0:]
        ])
    return rank


def _report(
    G: GramTensor, violations: list[Violation], tol: float, strict: bool
) -> KLReport:
    """The report; when correctable, word 0's block is the D matrix, read
    off the Gram table, ranked by ``DMatrix.rank``."""
    d_matrix = rank = None
    if not violations:
        images = G.which[:: G.num_words]
        d_matrix = DMatrix.over(G.table, images, G.errors.labels, G.errors.families, G.values)
        rank = d_matrix.rank()
    return KLReport(
        correctable=not violations,
        d_matrix=d_matrix,
        violations=violations,
        tolerance=tol,
        strict=strict,
        rank=rank,
        dimension_used=None if rank is None else G.num_words * rank,
        dimension_total=1 << G.errors.n,
        labels=G.errors.labels,
    )


def verify_kl(
    code: Code, errors: ErrorSet, tol: float | None = None, strict: bool = False
) -> KLReport:
    """Check the correctability condition for one code and one error set.

    Exact codes are compared with tolerance 0 by default; float codes with
    1e-9.  When correctable, the report carries the word-0 block as the D
    matrix together with its rank and the dimension count 2*rank.
    """
    tol = _resolve_tol(code.mode, tol)
    G = _gram(code.words, errors)
    return _report(G, _violations(G, range(len(code.words)), tol, strict), tol, strict)


def verify_kl_extended(
    family: Sequence[Code], errors: ErrorSet, tol: float | None = None
) -> KLReport:
    """Correctability for a family of codes sharing one D matrix.

    ``family[m]`` holds the words ``C_i^m``; the condition demands that
    distinct (i, m) pairs stay orthogonal under every error pair and that
    all word blocks agree.  With a single family member this is precisely
    the plain check.
    """
    if not family:
        raise ValueError("empty code family")
    w = len(family[0].words)
    n = family[0].n
    if any(c.n != n or len(c.words) != w for c in family):
        raise ValueError("family members must share qubit count and word count")
    if any(c.mode != family[0].mode for c in family):
        raise ValueError("family members must share exact/float mode")
    tol = _resolve_tol(family[0].mode, tol)
    keys = [(i, m) for m in range(len(family)) for i in range(w)]
    G = _gram([family[m].words[i] for i, m in keys], errors)
    return _report(G, _violations(G, keys, tol), tol, False)


@dataclass(frozen=True)
class BlockInfo:
    name: str
    start: int
    stop: int  # exclusive
    rank: int
    off_block_max: float  # largest |entry| in this block's rows outside it

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class DBlockReport:
    blocks: tuple[BlockInfo, ...]
    off_block_max: float
    total_rank: int

    def to_lines(self) -> list[str]:
        lines = []
        for b in self.blocks:
            lines.append(
                f"block {b.name}: indices {b.start}..{b.stop - 1}, size {b.size}, "
                f"rank {b.rank}, off-block max {b.off_block_max:.3g}"
            )
        lines.append(f"off-block max: {self.off_block_max:.3g}")
        lines.append(f"total rank: {self.total_rank}")
        return lines


def d_blocks(d_matrix: DMatrix) -> DBlockReport:
    """Split D into named family blocks (identity+exchange, X, Y, Z).

    One block per maximal run of a family (``_family_runs``): a
    family-ordered error set (identity first, any exchange operators
    immediately after it, then each Pauli family contiguously) gives one
    block per family, and a family that comes back after another, as in
    ``X1, Y1, Z1, X2, ...``, opens a new block.
    """
    ids, values = d_matrix.table
    infos = []
    total_rank = 0
    global_off = 0.0
    for name, a, b in _family_runs(d_matrix.families):
        labels, families = d_matrix.labels[a:b], d_matrix.families[a:b]
        rank = DMatrix.over(ids, range(a, b), labels, families, values).rank()
        total_rank += rank
        outside = set(ids[a:b, :a].ravel().tolist()) | set(ids[a:b, b:].ravel().tolist())
        off = max((values[k].magnitude() for k in outside), default=0.0)
        infos.append(BlockInfo(name, a, b, rank, off))
        global_off = max(global_off, off)
    return DBlockReport(tuple(infos), global_off, total_rank)


@dataclass
class RecoveryOperation:
    """Measurement-and-decode map built from the eigenvectors of D.

    For each eigenvalue ``lam_r`` of D that ``build_recovery`` keeps, the
    combinations ``corrected_r = sum_p u[p, r] e_p`` send the code space to
    mutually orthogonal copies; recovery projects onto those copies and
    maps each back.  All arithmetic is float-mode.
    """

    n: int
    basis: np.ndarray  # orthonormal copies, shape (R, w, 2**n)
    codewords: np.ndarray  # normalized words, shape (w, 2**n)

    def branches(self, state: StateVector) -> list[tuple[float, np.ndarray]]:
        """Per-outcome (squared weight, decoded logical coefficients)."""
        arr = state.to_float().dense
        out = []
        for copy in self.basis:
            coeffs = np.vecdot(copy, arr)
            out.append((float(np.vdot(coeffs, coeffs).real), coeffs))
        return out

    def recover(self, state: StateVector) -> StateVector:
        """Decoded state from the most likely measurement branch."""
        branches = self.branches(state)
        weight, coeffs = max(branches, key=lambda t: t[0])
        if weight <= 0.0:
            raise ArithmeticError("state has no component in any recoverable subspace")
        vec = coeffs @ self.codewords
        return StateVector.from_dense(self.n, vec / np.linalg.norm(vec))

    def fidelity(self, ideal: StateVector, corrupted: StateVector) -> float:
        """Channel fidelity of recovery against the ideal encoded state."""
        ideal_arr = ideal.to_float().dense
        ideal_arr = ideal_arr / np.linalg.norm(ideal_arr)
        logical = np.vecdot(self.codewords, ideal_arr)
        total = float(np.vdot(corrupted.to_float().dense, corrupted.to_float().dense).real)
        if total == 0.0:
            raise ArithmeticError("corrupted state is zero")
        got = 0.0
        for _, coeffs in self.branches(corrupted):
            got += abs(np.vdot(logical, coeffs)) ** 2
        return got / total


def build_recovery(code: Code, errors: ErrorSet, d_matrix: DMatrix) -> RecoveryOperation:
    """Recovery from a passing verification (float-mode eigendecomposition).

    The cutoff is ``DEFAULT_FLOAT_TOL`` times D's largest eigenvalue, or
    times 1 when that is smaller: recovery keeps the eigenvalues above it,
    and one below minus it means D is not positive semidefinite.
    """
    D = d_matrix.to_float()
    D = (D + D.conj().T) / 2
    lam, U = np.linalg.eigh(D)
    cutoff = DEFAULT_FLOAT_TOL * max(1.0, float(lam.max()) if len(lam) else 1.0)
    if lam.min() < -cutoff:
        raise ArithmeticError(
            f"D matrix is not positive semidefinite within tolerance "
            f"(min eigenvalue {lam.min():.3g})"
        )
    keep = [r for r in range(len(lam)) if lam[r] > cutoff]
    if not keep:
        raise ArithmeticError("D matrix has no usable eigenvalues")
    words_f = np.array([w.to_float().dense for w in code.words])
    image_f = dense_images(errors.ops, words_f).reshape(len(errors), len(words_f), -1)
    # basis[r, i] = sum_p U[p, r] e_p C_i / sqrt(lam_r) over the kept r
    basis = np.tensordot(U[:, keep], image_f, axes=(0, 0)) / np.sqrt(lam[keep])[:, None, None]
    # the copies must come out orthonormal; a large residual means the
    # supplied D does not belong to this code/error pair
    flat = basis.reshape(len(keep) * len(words_f), -1)
    gram = flat.conj() @ flat.T
    residual = float(np.abs(gram - np.eye(len(flat))).max())
    if residual > 1e-6:
        raise ArithmeticError(
            f"recovery basis failed orthonormality (residual {residual:.3g}); "
            "was the D matrix produced by verify_kl on this code and error set?"
        )
    codewords = np.array([w / np.linalg.norm(w) for w in words_f])
    return RecoveryOperation(code.n, basis, codewords)


@dataclass(frozen=True)
class BoundReport:
    scenario: str
    inequality: str
    min_n: int
    trace: tuple[tuple[int, int, int, bool], ...]  # (n, lhs, rhs, satisfied)

    def to_lines(self) -> list[str]:
        lines = [f"scenario: {self.scenario}", f"inequality: {self.inequality}"]
        for n, lhs, rhs, ok in self.trace:
            lines.append(f"n={n}: {lhs} <= {rhs} -> {str(ok).lower()}")
        lines.append(f"min_n: {self.min_n}")
        return lines


_SCENARIOS = {
    # distinct states needed vs available dimension, per error-set scenario
    "single_bit": ("2*(3n+1) <= 2^n", lambda n: 2 * (3 * n + 1)),
    "all_two_bit_plus_single": (
        "9n(n-1) + 2*(3n+1) <= 2^n",
        lambda n: 9 * n * (n - 1) + 2 * (3 * n + 1),
    ),
    "irrep_proposal": ("2(n-1)*(3n+1) <= 2^n", lambda n: 2 * (n - 1) * (3 * n + 1)),
}

_BOUND_HORIZON = 64


def dimension_bound(scenario: str, n: int | None = None) -> BoundReport:
    """Least register size satisfying a counting bound, with its trace.

    The reported ``min_n`` is the least n from which the inequality holds
    onward (polynomial left sides are eventually dominated; trivial
    satisfaction at tiny n, as in the irrep scenario at n=1, is skipped).
    The optional ``n`` argument, 1..64, only extends the trace to include it.
    """
    if scenario not in _SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; pick from {sorted(_SCENARIOS)}")
    if n is not None and not 1 <= n <= _BOUND_HORIZON:
        raise ValueError(f"n must lie in 1..{_BOUND_HORIZON}, got {n}")
    text, lhs = _SCENARIOS[scenario]
    ok = [lhs(m) <= (1 << m) for m in range(1, _BOUND_HORIZON + 1)]
    min_n = None
    for idx in range(len(ok)):
        if all(ok[idx:]):
            min_n = idx + 1
            break
    assert min_n is not None, "bound horizon too small"
    upto = max(min_n, n or 0)
    trace = tuple((m, lhs(m), 1 << m, ok[m - 1]) for m in range(1, upto + 1))
    return BoundReport(scenario, text, min_n, trace)


@dataclass(frozen=True)
class ShorExchangeSample:
    a: complex
    b: complex
    psi_coefficient: complex  # overlap of E(3,4) psi with psi itself
    z_overlaps: tuple[complex, ...]  # against Z_k applied to the twisted word
    detected_z_qubits: tuple[int, ...]
    code_fraction: float
    single_pauli_fraction: float
    remainder_fraction: float
    remainder_vs_code: float
    remainder_vs_single_pauli: float


@dataclass(frozen=True)
class ShorExchangeReport:
    """Numerical decomposition of E(3,4) acting on an encoded Shor state.

    For psi = a c0 + b c1 (normalized) the image splits into 1/2 psi, a
    1/2-weighted phase-flipped copy Z_k psi~ with psi~ = a c0 - b c1, and
    a remainder orthogonal to the code space and to every single-Pauli
    image.  The scan over k identifies which phase flips carry the second
    component; the remainder holds half the squared norm.
    """

    seed: int
    samples: tuple[ShorExchangeSample, ...]

    @property
    def detected_z_qubits(self) -> tuple[int, ...]:
        return self.samples[0].detected_z_qubits

    def to_lines(self) -> list[str]:
        lines = [f"seed: {self.seed}", f"samples: {len(self.samples)}"]
        for idx, s in enumerate(self.samples):
            lines.append(
                f"sample {idx}: psi-coefficient {s.psi_coefficient.real:.12g}, "
                f"remainder-fraction {s.remainder_fraction:.12g}"
            )
        s0 = self.samples[0]
        lines.append(
            "detected-z-qubits: " + " ".join(str(k) for k in s0.detected_z_qubits)
        )
        lines.append(f"code-fraction: {s0.code_fraction:.12g}")
        lines.append(f"single-pauli-fraction: {s0.single_pauli_fraction:.12g}")
        lines.append(f"remainder-fraction: {s0.remainder_fraction:.12g}")
        lines.append(
            f"remainder-orthogonality: {max(s.remainder_vs_code for s in self.samples):.3g} (code), "
            f"{max(s.remainder_vs_single_pauli for s in self.samples):.3g} (single-pauli)"
        )
        return lines


def shor_exchange_demo(seed: int = 0, samples: int = 3) -> ShorExchangeReport:
    """Show how the 3-4 exchange defeats the Shor code, at random encodings."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    code = shor_code().to_float()
    c0 = code.words[0].dense / np.linalg.norm(code.words[0].dense)
    c1 = code.words[1].dense / np.linalg.norm(code.words[1].dense)
    exchange = ExchangeOp(9, 3, 4)

    singles = [PauliString.single(9, kind, k) for kind in "XYZ" for k in range(1, 10)]
    pauli_images = dense_images(singles, np.array([c0, c1]))
    # the words and every single-Pauli image; lstsq cuts its rank at eps*max(M, N)*s_max
    span = np.column_stack([c0, c1, *pauli_images])

    out = []
    for _ in range(samples):
        raw = rng.normal(size=4)
        a = complex(raw[0], raw[1])
        b = complex(raw[2], raw[3])
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        a, b = a / norm, b / norm
        psi = a * c0 + b * c1
        twisted = a * c0 - b * c1
        image = exchange.apply(StateVector.from_dense(9, psi)).dense

        psi_coeff = complex(np.vdot(psi, image))
        z_images = dense_images(singles[18:], twisted[None])  # Z1..Z9
        z_overlaps = np.vecdot(z_images, image).tolist()
        peak = max(abs(z) for z in z_overlaps)
        detected = tuple(
            k for k, z in enumerate(z_overlaps, start=1) if abs(z) > peak - 1e-9
        )

        code_part = c0 * np.vdot(c0, image) + c1 * np.vdot(c1, image)  # c0, c1 orthonormal
        full_part = span @ np.linalg.lstsq(span, image, rcond=None)[0]
        remainder = image - full_part
        code_fraction = float(np.vdot(code_part, code_part).real)
        single_pauli_fraction = float(
            np.vdot(full_part - code_part, full_part - code_part).real
        )
        rem_fraction = float(np.vdot(remainder, remainder).real)
        rem_vs_code = max(
            abs(np.vdot(c0, remainder)), abs(np.vdot(c1, remainder))
        )
        rem_vs_pauli = np.abs(np.vecdot(pauli_images, remainder)).max()
        out.append(
            ShorExchangeSample(
                a=a,
                b=b,
                psi_coefficient=psi_coeff,
                z_overlaps=tuple(z_overlaps),
                detected_z_qubits=detected,
                code_fraction=code_fraction,
                single_pauli_fraction=single_pauli_fraction,
                remainder_fraction=rem_fraction,
                remainder_vs_code=float(rem_vs_code),
                remainder_vs_single_pauli=float(rem_vs_pauli),
            )
        )
    return ShorExchangeReport(seed=seed, samples=tuple(out))
