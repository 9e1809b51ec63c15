"""Feasibility search over permutation-invariant coefficient patterns.

A permutation-invariant two-word code is determined by which Hamming
weights each word uses and the real coefficient attached to each weight:

    W_0 = sum over kappa in K0 of a_kappa * orbit_sum(n, kappa)
    W_1 = sum over mu    in K1 of a_mu    * orbit_sum(n, mu)

(the two weight sets are disjoint, so one coefficient map covers both).
The correctability conditions then become quadratic equations in the
coefficients.  Every coefficient of those equations is one Gram atom
<O_kappa | E O_mu> between two orbit sums, with E = p^-1 q for a pair of
errors; it is an exact binomial sum in closed form (``_orbit_atom``), so
the system is assembled without building a state.  The module then decides
feasibility in one exact step: a constraint that is a positive combination
of squares can force a word to zero (``sign-definite``); otherwise the
diagonal constraints pin the squared coefficients or leave finitely many
nonnegative basic solutions, and a finite choice of signs is checked in
exact surd arithmetic (``exact-linear``).  Only rows that step leaves open
go to grid search plus local refinement.  Every claimed-feasible result is
re-verified by running the realized code through the correctability
checker, exactly whenever its squares are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, product
from typing import Mapping, Sequence

import numpy as np
import scipy.optimize

from ._linalg import solve_rational
from .codes import Code, PermInvariantSpec, perm_invariant_code
from .errors import CapabilityError
from .errorops import ErrorOperator, ErrorSet, IdentityOp, basic_error_set
from .klverify import DEFAULT_FLOAT_TOL, verify_kl
from .qstate import Amplitude, StateVector, _check_n, orbit_sum, squarefree_split

__all__ = [
    "phase_offdiag_term",
    "bitflip_cross_count",
    "zk_diag",
    "SupportPattern",
    "SolverResult",
    "solve_coefficients",
    "survey_patterns",
    "survey_7bit",
    "realize_code",
    "MAX_WEIGHTS_PER_WORD",
]

MAX_WEIGHTS_PER_WORD = 4

GRID_SPAN = 10.0
GRID_REFINEMENTS = 3


def _check_args(n: int, kappa: int, min_n: int = 2) -> None:
    if n < min_n:
        raise ValueError(f"need n >= {min_n}, got {n}")
    if not 0 <= kappa <= n:
        raise ValueError(f"need 0 <= kappa <= n, got kappa={kappa}")


def phase_offdiag_term(n: int, kappa: int) -> Fraction:
    """<Z_k w | Z_l w> for w = orbit_sum(n, kappa) and k != l.

    Each weight-kappa string contributes (+1 or -1)^2-type products whose
    signed count collapses to ((n-2k)^2 - n) / (n(n-1)) * C(n, kappa).
    """
    _check_args(n, kappa)
    return Fraction((n - 2 * kappa) ** 2 - n, n * (n - 1)) * math.comb(n, kappa)


def bitflip_cross_count(n: int, kappa: int) -> int:
    """<X_k w | X_l w> for w = orbit_sum(n, kappa) and k != l.

    A basis string supports a matching pair exactly when position k holds
    a 1 and position l a 0 or vice versa, with the remaining kappa-1 ones
    free among n-2 slots: 2*C(n-2, kappa-1) matches (none at kappa = 0).
    """
    _check_args(n, kappa)
    if kappa == 0:
        return 0
    return 2 * math.comb(n - 2, kappa - 1)


def zk_diag(n: int, kappa: int) -> Fraction:
    """<w | Z_k w> for w = orbit_sum(n, kappa), independent of k.

    The orbit splits by the bit at position k: C(n-1, kappa) strings gain
    +1 and C(n-1, kappa-1) gain -1, totalling (n-2*kappa)/n * C(n, kappa).
    """
    _check_args(n, kappa, min_n=1)
    return Fraction(n - 2 * kappa, n) * math.comb(n, kappa)


@dataclass(frozen=True)
class SupportPattern:
    """Which Hamming weights carry nonzero coefficients in each word."""

    n: int
    word0: frozenset[int]
    word1: frozenset[int]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        _check_n(self.n)
        object.__setattr__(self, "word0", frozenset(self.word0))
        object.__setattr__(self, "word1", frozenset(self.word1))
        if not self.word0 or not self.word1:
            raise ValueError("each word needs at least one weight")
        bad = [k for k in self.word0 | self.word1 if not 0 <= k <= self.n]
        if bad:
            raise ValueError(f"weights out of range 0..{self.n}: {sorted(bad)}")
        if self.word0 & self.word1:
            raise ValueError(
                "weight sets must be disjoint (shared weights break "
                f"word orthogonality): {sorted(self.word0 & self.word1)}"
            )

    @property
    def is_complement_dual(self) -> bool:
        """True when word 1 uses exactly the complementary weights n - kappa."""
        return self.word1 == frozenset(self.n - k for k in self.word0)

    def describe(self) -> str:
        w0 = ",".join(str(k) for k in sorted(self.word0))
        w1 = ",".join(str(k) for k in sorted(self.word1))
        dual = " (complement-dual)" if self.is_complement_dual else ""
        return f"n={self.n} weights {{{w0}}} / {{{w1}}}{dual}"


def _signed_choices(k: int, minus: int, plus: int) -> int:
    """Ways to pick k of ``minus + plus`` slots, each minus slot picked costing -1."""
    return sum(
        (-1) ** a * math.comb(minus, a) * math.comb(plus, k - a)
        for a in range(min(k, minus) + 1)
    )


def _orbit_atom(op: ErrorOperator, kappa: int, mu: int) -> tuple[int, int]:
    """<O_kappa | op O_mu> as a Gaussian integer (re, im), O = orbit_sum.

    Orbit sums are fixed by every qubit permutation, so only the Pauli
    factor ``i**p X(x) Z(z)`` of op acts.  A weight-mu string v lands in
    weight kappa exactly when it holds h = (mu + |x| - kappa) / 2 ones
    under x, and it picks up (-1)**|z & v|: a product of signed counts
    over the Y- and X-type qubits (h ones) and the Z-type and untouched
    qubits (mu - h ones).
    """
    x, z = op.x_mask, op.z_mask
    twice_h = mu + x.bit_count() - kappa
    if twice_h % 2:
        return 0, 0
    h = twice_h // 2
    total = _signed_choices(h, (x & z).bit_count(), (x & ~z).bit_count())
    total *= _signed_choices(mu - h, (z & ~x).bit_count(), op.n - (x | z).bit_count())
    return ((total, 0), (0, total), (-total, 0), (0, -total))[op.phase]


@dataclass(frozen=True)
class _Constraint:
    """A homogeneous quadratic equation sum_ij c_ij x_i x_j = 0.

    ``terms`` maps index pairs (i <= j) into the pattern's variable list;
    ``origin`` records which Gram condition produced it.
    """

    terms: tuple[tuple[int, int, Fraction], ...]
    origin: str

    def is_diagonal(self) -> bool:
        return all(i == j for i, j, _ in self.terms)

    def render(self, names: Sequence[str]) -> str:
        bits = []
        for i, j, c in self.terms:
            mono = f"{names[i]}^2" if i == j else f"{names[i]}*{names[j]}"
            bits.append(f"{c}*{mono}")
        return " + ".join(bits) + " = 0"


_FAMILY_OPS = {
    "single_pauli": "XYZ",
    "bitflip": "X",
    "phase": "Z",
}


def _family_ops(n: int, families: Sequence[str]) -> list[ErrorOperator]:
    """Single-qubit Paulis of the families, kind by kind; exchange adds none."""
    kinds = []
    for fam in families:
        if fam == "exchange":
            continue
        if fam not in _FAMILY_OPS:
            raise ValueError(
                f"unknown error family {fam!r}; pick from "
                f"{sorted(_FAMILY_OPS) + ['exchange']}"
            )
        kinds.extend(_FAMILY_OPS[fam])
    return [ErrorOperator.single(n, kind, k) for kind in kinds for k in range(1, n + 1)]


def _canonical(terms: dict[tuple[int, int], int]) -> tuple | None:
    items = tuple(
        (i, j, c) for (i, j), c in sorted(terms.items()) if c != 0
    )
    if not items:
        return None
    lead = items[0][2]
    return tuple((i, j, Fraction(c, lead)) for i, j, c in items)


def _assemble_constraints(
    pattern: SupportPattern, families: Sequence[str]
) -> tuple[list[_Constraint], list[str], list[tuple[int, int]]]:
    """All correctability equations for the pattern, deduplicated.

    Returns (constraints, variable names, variable keys) where each key
    is (word, weight) in variable order and names render as a_kappa.
    """
    n = pattern.n
    keys = [(0, k) for k in sorted(pattern.word0)]
    keys += [(1, k) for k in sorted(pattern.word1)]
    index = {key: pos for pos, key in enumerate(keys)}
    names = [f"a_{k}" for _, k in keys]
    ops = [IdentityOp(n), *_family_ops(n, families)]

    seen: dict[tuple, _Constraint] = {}

    def push(terms: dict[tuple[int, int], int], origin: str) -> None:
        canon = _canonical(terms)
        if canon is not None and canon not in seen:
            seen[canon] = _Constraint(canon, origin)

    def accumulate(dest, i, j, value):
        key = (i, j) if i <= j else (j, i)
        dest[key] = dest.get(key, 0) + value

    for a, p in enumerate(ops):
        for q in ops[a:]:
            e = p.inverse().compose(q)
            re_terms: dict[tuple[int, int], int] = {}
            im_terms: dict[tuple[int, int], int] = {}
            for word, sign in ((0, 1), (1, -1)):
                weights = pattern.word0 if word == 0 else pattern.word1
                for ka in weights:
                    for mu in weights:
                        re, im = _orbit_atom(e, ka, mu)
                        i, j = index[(word, ka)], index[(word, mu)]
                        if re:
                            accumulate(re_terms, i, j, sign * re)
                        if im:
                            accumulate(im_terms, i, j, sign * im)
            origin = f"word blocks must agree at <{p.label()} w, {q.label()} w>"
            push(re_terms, origin)
            push(im_terms, origin + " (imaginary part)")
    for p in ops:
        for q in ops:
            e = p.inverse().compose(q)
            re_terms = {}
            im_terms = {}
            for ka in pattern.word0:
                for mu in pattern.word1:
                    re, im = _orbit_atom(e, ka, mu)
                    i, j = index[(0, ka)], index[(1, mu)]
                    if re:
                        accumulate(re_terms, i, j, re)
                    if im:
                        accumulate(im_terms, i, j, im)
            origin = f"<{p.label()} w0, {q.label()} w1> must vanish"
            push(re_terms, origin)
            push(im_terms, origin + " (imaginary part)")
    return list(seen.values()), names, keys


@dataclass(frozen=True)
class SolverResult:
    pattern: SupportPattern
    families: tuple[str, ...]
    feasible: bool
    method: str  # sign-definite | exact-linear | grid
    coefficients: dict[int, float] | None  # weight -> value, scale-free
    squares: dict[int, Fraction] | None  # exact squared values when known
    residual: float | None
    certificate: str | None
    notes: tuple[str, ...] = ()

    def to_lines(self) -> list[str]:
        lines = [
            f"pattern: {self.pattern.describe()}",
            f"families: {'+'.join(self.families)}",
            f"feasible: {str(self.feasible).lower()}",
            f"method: {self.method}",
        ]
        if self.coefficients is not None:
            for k in sorted(self.coefficients):
                lines.append(f"coefficient a_{k}: {self.coefficients[k]:.12g}")
        if self.squares is not None:
            for k in sorted(self.squares):
                lines.append(f"square a_{k}^2: {self.squares[k]}")
        if self.residual is not None:
            lines.append(f"residual: {self.residual:.3g}")
        if self.certificate is not None:
            lines.append(f"certificate: {self.certificate}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return lines


def realize_code(
    pattern: SupportPattern,
    coefficients: Mapping[int, float],
    squares: Mapping[int, Fraction] | None = None,
    label: str = "searched",
) -> Code:
    """Build the code a coefficient assignment describes.

    With exact ``squares`` the words use surd amplitudes sign-matched to
    ``coefficients``; otherwise float amplitudes.
    """
    maps = []
    for weights in (sorted(pattern.word0), sorted(pattern.word1)):
        entry: dict[int, Amplitude | float] = {}
        for k in weights:
            if squares is not None:
                s = Fraction(squares[k])
                if s == 0:
                    continue
                amp = Amplitude.make(
                    Fraction(1, s.denominator), 0, s.numerator * s.denominator
                )
                if coefficients[k] < 0:
                    amp = amp.scaled(-1)
                entry[k] = amp
            else:
                entry[k] = coefficients[k]
        maps.append(entry)
    if squares is not None:
        spec = PermInvariantSpec(pattern.n, tuple(maps))
        return perm_invariant_code(spec, label=label)
    words = []
    for entry in maps:
        dense = np.zeros(1 << pattern.n, dtype=np.complex128)
        for k, value in entry.items():
            dense += value * orbit_sum(pattern.n, k).to_float().dense
        words.append(StateVector.from_dense(pattern.n, dense))
    return Code(pattern.n, tuple(words), label=label)


def _gate(
    pattern: SupportPattern,
    families: Sequence[str],
    coefficients: dict[int, float],
    squares: dict[int, Fraction] | None,
) -> tuple[bool, float]:
    """Re-verify a candidate through the full correctability checker.

    Exchange operators are always included: they fix every weight-orbit
    word, so they cost nothing and confirm the pattern's built-in
    immunity.  Returns (passed, worst violation magnitude).
    """
    code = realize_code(pattern, coefficients, squares)
    exchanges = basic_error_set(pattern.n, ("exchange",)).ops
    errors = ErrorSet(pattern.n, (*exchanges, *_family_ops(pattern.n, families)))
    if squares is None:
        code = code.to_float()
    report = verify_kl(code, errors, tol=None if squares else DEFAULT_FLOAT_TOL)
    worst = max((v.magnitude for v in report.violations), default=0.0)
    return report.correctable, worst


def _forced_zero_analysis(
    constraints: list[_Constraint], names: list[str], keys: list[tuple[int, int]]
) -> str | None:
    """Propagate sign-definite constraints; detect a word forced to zero."""
    zero: set[int] = set()
    cause: dict[int, _Constraint] = {}
    changed = True
    while changed:
        changed = False
        for con in constraints:
            live = [(i, j, c) for i, j, c in con.terms if i not in zero and j not in zero]
            if not live:
                continue
            if all(i == j for i, j, _ in live) and len({c > 0 for _, _, c in live}) == 1:
                for i, _, _ in live:
                    if i not in zero:
                        zero.add(i)
                        cause[i] = con
                        changed = True
    for word in (0, 1):
        members = [pos for pos, (w, _) in enumerate(keys) if w == word]
        if members and all(pos in zero for pos in members):
            con = cause[members[0]]
            return (
                f"{con.render(names)} (from: {con.origin}); every term is a "
                "square with same-signed coefficient, so the listed "
                f"coefficients must all vanish, leaving word {word} zero"
            )
    return None


def _signs(
    constraints: list[_Constraint], keys: list[tuple[int, int]], squares: list[Fraction]
) -> list[int] | None:
    """First sign choice under which every constraint sums to exactly 0.

    Each word's first nonzero coefficient is +: flipping a whole word's
    sign changes no constraint's zero set.  A term c*a_i*a_j is
    c * sigma_i sigma_j * sqrt(s_i s_j), a rational times sqrt(t) for a
    squarefree t, and surds of distinct t are linearly independent, so a
    constraint vanishes exactly when each t-part does.
    """
    nonzero = [pos for pos in range(len(keys)) if squares[pos]]
    flips = [p for p in nonzero if any(keys[q][0] == keys[p][0] for q in nonzero if q < p)]
    surds = []
    for con in constraints:
        terms = []
        for i, j, c in con.terms:
            prod = squares[i] * squares[j]
            if prod:
                root, t = squarefree_split(prod.numerator * prod.denominator)
                terms.append((i, j, c * root / prod.denominator, t))
        surds.append(terms)
    for choice in product((1, -1), repeat=len(flips)):
        sign = [1] * len(keys)
        for pos, s in zip(flips, choice):
            sign[pos] = s
        for terms in surds:
            parts: dict[int, Fraction] = {}
            for i, j, q, t in terms:
                parts[t] = parts.get(t, 0) + sign[i] * sign[j] * q
            if any(parts.values()):
                break
        else:
            return sign
    return None


def _solve_exact(
    pattern: SupportPattern,
    constraints: list[_Constraint],
    names: list[str],
    keys: list[tuple[int, int]],
    families: tuple[str, ...],
) -> SolverResult | None:
    """Exact path: candidate squares from the diagonal constraints, then signs.

    The diagonal constraints and the word-0 norm are linear in the squares
    s_i = a_i^2.  Their unique solution, or else each nonnegative basic
    solution (len(free) squares set to zero), is a candidate; the first
    candidate with a sign choice that zeroes every constraint exactly is
    confirmed by the exact gate.  Returns None when the squares are not
    pinned, some constraint mixes coefficients and no candidate works.
    """
    d = len(keys)
    rows = [
        [next((c for i, _, c in con.terms if i == pos), Fraction(0)) for pos in range(d)]
        for con in constraints if con.is_diagonal()
    ]
    # fix the free overall scale: word-0 squared norm = 1
    rows.append([Fraction(math.comb(pattern.n, k) if w == 0 else 0) for w, k in keys])
    rhs = [Fraction(0)] * (len(rows) - 1) + [Fraction(1)]

    def infeasible(text: str) -> SolverResult:
        return SolverResult(pattern, families, False, "exact-linear", None, None, None, text)

    status, solution, free = solve_rational(rows, rhs)
    if status == "inconsistent":
        return infeasible(
            "the linear system in the squared coefficients is inconsistent "
            "(exact elimination)"
        )
    candidates = []
    if status == "unique":
        negative = next((pos for pos, s in enumerate(solution) if s < 0), None)
        if negative is not None:
            return infeasible(
                f"unique exact solution needs {names[negative]}^2 = {solution[negative]} < 0"
            )
        candidates.append(solution)
    for kept in combinations(range(d), d - len(free)) if free else ():
        found, part, _ = solve_rational([[row[p] for p in kept] for row in rows], rhs)
        if found == "unique" and min(part) >= 0:
            basic = [part[kept.index(p)] if p in kept else Fraction(0) for p in range(d)]
            if basic not in candidates:
                candidates.append(basic)
    for cand in candidates:
        sign = _signs(constraints, keys, cand)
        if sign is None:
            continue
        squares = {k: cand[pos] for pos, (_, k) in enumerate(keys)}
        coefficients = {k: sign[pos] * math.sqrt(cand[pos]) for pos, (_, k) in enumerate(keys)}
        ok, worst = _gate(pattern, families, coefficients, squares)
        if not ok:
            return SolverResult(
                pattern, families, False, "exact-linear", coefficients, squares, worst,
                None, ("exact candidate failed full re-verification",),
            )
        unused = {k for k, s in squares.items() if not s}
        used = SupportPattern(pattern.n, pattern.word0 - unused, pattern.word1 - unused)
        zeros = ", ".join(f"a_{k}" for k in sorted(unused))
        notes = (
            f"zero squares at {zeros}: the code is the smaller pattern {used.describe()}",
        ) if unused else ()
        return SolverResult(
            pattern, families, True, "exact-linear", coefficients, squares, 0.0, None, notes
        )
    if not candidates:
        return infeasible(
            "every basic solution of the linear system in the squared "
            "coefficients has a negative square (exact elimination)"
        )
    if status == "unique":
        pinned = ", ".join(f"{names[pos]}^2 = {s}" for pos, s in enumerate(solution))
        return infeasible(
            f"the squares are pinned ({pinned}) and no sign choice makes every "
            "constraint vanish exactly"
        )
    return None


def _grid_points(free_dims: int) -> int:
    if free_dims <= 3:
        return 101
    if free_dims == 4:
        return 21
    return 9


def _grid_search(
    pattern: SupportPattern,
    constraints: list[_Constraint],
    names: list[str],
    keys: list[tuple[int, int]],
    families: Sequence[str],
) -> SolverResult:
    """Numerical path: grid over coefficient ratios, then local refinement.

    The leading coefficient of each word is pinned to 1 (patterns declare
    their weights nonzero, and per-word global sign is immaterial), word 1
    carries a scale factor chosen to equalize the two squared norms, and
    the remaining ratios sweep [-span, span].
    """
    n = pattern.n
    d = len(keys)
    word0_len = len(pattern.word0)
    free = [pos for pos in range(d) if pos not in (0, word0_len)]
    f = len(free)

    mask = np.array([float(w) for w, _ in keys])  # 1 on word-1 positions
    norm1 = np.array([float(math.comb(n, k)) for _, k in keys]) * mask
    norm0 = np.array([float(math.comb(n, k)) for _, k in keys]) - norm1

    con_terms = [[(i, j, float(c)) for i, j, c in con.terms] for con in constraints]

    def residuals(points: np.ndarray) -> np.ndarray:
        """points: (P, d) full coefficient vectors -> (P,) max |constraint|."""
        worst = np.zeros(len(points))
        for terms in con_terms:
            val = np.zeros(len(points))
            for i, j, c in terms:
                val += c * points[:, i] * points[:, j]
            np.maximum(worst, np.abs(val), out=worst)
        return worst

    def expand(ratios: np.ndarray) -> np.ndarray:
        """ratios: (P, f) -> (P, d) with pins and norm-balancing scale."""
        pts = np.ones((len(ratios), d))
        pts[:, free] = ratios
        n0 = (pts * pts) @ norm0
        n1 = (pts * pts) @ norm1
        scale = np.sqrt(n0 / n1)
        return pts * (1 + (scale[:, None] - 1) * mask[None, :])

    centers = np.zeros(f)
    span = GRID_SPAN
    best_pt = expand(centers[None, :])[0]
    best_res = float(residuals(best_pt[None, :])[0])
    points_per_dim = _grid_points(f)
    for _ in range(GRID_REFINEMENTS + 1):
        if f == 0:
            break
        axes = [np.linspace(c - span, c + span, points_per_dim) for c in centers]
        mesh = np.meshgrid(*axes, indexing="ij")
        ratios = np.stack([m.ravel() for m in mesh], axis=1)
        pts = expand(ratios)
        res = residuals(pts)
        arg = int(np.argmin(res))
        if res[arg] < best_res:
            best_res = float(res[arg])
            best_pt = pts[arg]
            centers = ratios[arg]
        span /= 10.0

    def vector_residuals(x: np.ndarray) -> np.ndarray:
        out = [sum(c * x[i] * x[j] for i, j, c in terms) for terms in con_terms]
        out.append(float((x * x) @ norm0 - 1.0))
        return np.asarray(out)

    start = best_pt / math.sqrt(float((best_pt * best_pt) @ norm0))
    fit = scipy.optimize.least_squares(vector_residuals, start, xtol=1e-15, ftol=1e-15)
    x = fit.x
    polished = float(np.max(np.abs(vector_residuals(x)[:-1]))) if con_terms else 0.0
    coefficients = {k: float(x[pos]) for pos, (_, k) in enumerate(keys)}
    resolution = 2 * GRID_SPAN / (points_per_dim - 1) / 10**GRID_REFINEMENTS if f else 0.0
    if polished < 1e-10:
        ok, worst = _gate(pattern, families, coefficients, None)
        if ok:
            return SolverResult(
                pattern, tuple(families), True, "grid",
                coefficients, None, polished, None,
                (f"grid {points_per_dim} points/dim over [-{GRID_SPAN:g}, "
                 f"{GRID_SPAN:g}], {GRID_REFINEMENTS} refinements, "
                 "least-squares polish, full re-verification",),
            )
    return SolverResult(
        pattern, tuple(families), False, "grid", None, None,
        min(best_res, polished), None,
        (f"no solution found down to ratio resolution {resolution:g} "
         f"(best residual {min(best_res, polished):.3g}); numerical "
         "evidence, not a proof",),
    )


def solve_coefficients(
    pattern: SupportPattern, families: Sequence[str] = ("single_pauli",)
) -> SolverResult:
    """Decide whether a weight pattern supports a correctable code.

    The constraint system is assembled exactly from single-orbit Gram
    atoms.  Sign-definite constraints give certified infeasibility.  Then
    ``_solve_exact`` takes candidate squares from the diagonal constraints
    and the norm, and signs under which every constraint vanishes exactly;
    its infeasible verdicts carry an exact certificate.  Only a row whose
    squares are not pinned, with constraints mixing coefficients and no
    candidate that works, falls back to grid search.  Feasible answers are
    always re-verified on the realized code (exchange operators included).
    """
    if len(pattern.word0) > MAX_WEIGHTS_PER_WORD or len(pattern.word1) > MAX_WEIGHTS_PER_WORD:
        raise CapabilityError(
            f"patterns are limited to {MAX_WEIGHTS_PER_WORD} weights per word"
        )
    fams = tuple(families)
    constraints, names, keys = _assemble_constraints(pattern, fams)
    forced = _forced_zero_analysis(constraints, names, keys)
    if forced is not None:
        result = SolverResult(pattern, fams, False, "sign-definite", None, None, None, forced)
    else:
        result = _solve_exact(pattern, constraints, names, keys, fams) or _grid_search(
            pattern, constraints, names, keys, fams
        )
    if "exchange" in fams:
        note = (
            "exchange operators fix weight-orbit words, so they add no "
            "constraints; feasibility matches the exchange-free run"
        )
        result = replace(result, notes=(note, *result.notes))
    return result


def survey_patterns(
    n: int,
    max_weights: int = 3,
    families: Sequence[str] = ("single_pauli",),
) -> list[SolverResult]:
    """Run the solver over every complement-dual pattern for n qubits.

    Patterns pair each weight set K with its mirror {n - kappa}; mirrors
    that overlap K are skipped (they would break word orthogonality), and
    each unordered {K, mirror} pair is visited once.  Results come back
    in sorted pattern order.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if max_weights < 1:
        raise ValueError(f"max_weights must be at least 1, got {max_weights}")
    if max_weights > MAX_WEIGHTS_PER_WORD:
        raise CapabilityError(
            f"patterns are limited to {MAX_WEIGHTS_PER_WORD} weights per word"
        )
    seen: set[tuple[int, ...]] = set()
    patterns: list[SupportPattern] = []
    for size in range(1, max_weights + 1):
        for combo in combinations(range(n + 1), size):
            mirror = tuple(sorted(n - k for k in combo))
            key = min(combo, mirror)
            if set(combo) & set(mirror) or key in seen:
                continue
            seen.add(key)
            patterns.append(SupportPattern(n, frozenset(combo), frozenset(mirror)))
    patterns.sort(key=lambda p: (len(p.word0), tuple(sorted(p.word0))))
    return [solve_coefficients(p, families) for p in patterns]


def survey_7bit(families: Sequence[str] = ("single_pauli",)) -> list[SolverResult]:
    """The 7-qubit sweep: every dual pattern with up to 3 weights per word."""
    return survey_patterns(7, max_weights=3, families=families)
