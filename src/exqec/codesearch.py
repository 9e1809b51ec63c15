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
the system is assembled without building a state.  An atom depends on E
only through its Pauli class (phase and the sizes of its Y-, X- and
Z-type supports), and on the phase only as a factor i**phase, so assembly
uses one integer atom per phase-free class (10 for the word blocks and 10
for the cross block with single-qubit Paulis), and the first error pair
of a class names the constraint it yields; the work per pattern does not
grow with n.  Each constraint is an integer row read in slot order: each
monomial a_i a_j sums its atoms once, and the slots come sorted, so a
row needs no sort.  A survey or search call keeps one class table and
one atom table for all its patterns, and the exact gate reads and
extends that atom table.  Feasibility is decided in one exact step: a
constraint that is a positive combination of squares can force a word to
zero (``sign-definite``); otherwise the diagonal constraints pin the
squared coefficients or leave finitely many nonnegative basic solutions,
all read from one elimination, and a finite choice of signs is checked
in exact surd arithmetic on integers (``exact-linear``).  Every
candidate solves the diagonal constraints exactly, so the sign check
reads only the constraints with a cross term.  A row that step leaves
open is reported ``undecided``, never as infeasible.  Every feasible
result has exact squares that pass the exact gate (``_gate``), again
with no state: the layer holds weight maps only, and ``realize_code`` is
the one place a result becomes a ``Code`` of exact words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, product
from typing import Mapping, Sequence

from ._gram import GramTensor, _orbit_atom, _orbit_gram, _pauli_class, _violations
from ._linalg import basic_solutions
from .codes import Code, PermInvariantSpec, perm_invariant_code
from .errors import CapabilityError
from .errorops import ErrorOperator, ErrorSet, IdentityOp
from .qstate import Amplitude, _check_n, squarefree_split, surd_product

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


@dataclass(frozen=True)
class _Constraint:
    """A homogeneous quadratic equation sum_ij c_ij x_i x_j = 0.

    ``terms`` holds (i, j, c) over index pairs (i <= j) into the pattern's
    variable list, a primitive integer row (``_canonical``); ``origin``
    records which Gram condition produced it.
    """

    terms: tuple[tuple[int, int, int], ...]
    origin: str

    def is_diagonal(self) -> bool:
        return all(i == j for i, j, _ in self.terms)

    def render(self, names: Sequence[str]) -> str:
        bits = []
        for i, j, c in self.terms:
            mono = f"{names[i]}^2" if i == j else f"{names[i]}*{names[j]}"
            bits.append(f"{Fraction(c, self.terms[0][2])}*{mono}")
        return " + ".join(bits) + " = 0"


_FAMILY_OPS = {
    "single_pauli": "XYZ",
    "bitflip": "X",
    "phase": "Z",
}


def _family_ops(n: int, families: Sequence[str], top: int) -> list[ErrorOperator]:
    """Single-qubit Paulis of the families on qubits 1..top, kind by kind,
    each kind once in first-seen order; exchange adds none."""
    kinds: list[str] = []
    for fam in families:
        if fam == "exchange":
            continue
        if fam not in _FAMILY_OPS:
            raise ValueError(
                f"unknown error family {fam!r}; pick from "
                f"{sorted(_FAMILY_OPS) + ['exchange']}"
            )
        kinds.extend(kind for kind in _FAMILY_OPS[fam] if kind not in kinds)
    return [ErrorOperator.single(n, kind, k) for kind in kinds for k in range(1, top + 1)]


def _canonical(items: Sequence[tuple[int, int, int]]) -> tuple | None:
    """Nonzero ``(i, j, c)`` terms, given in sorted order, as a primitive
    integer row with a positive first coefficient: one tuple per class of
    proportional rows."""
    if not items:
        return None
    g = math.gcd(*[c for _, _, c in items]) * (1 if items[0][2] > 0 else -1)
    return tuple([(i, j, c // g) for i, j, c in items])


def _class_table(n: int, families: Sequence[str], atoms: dict) -> dict[tuple, tuple]:
    """(block, ny, nx, nz) -> (origin, the class's memo in ``atoms``): with
    the single-qubit Paulis, 10 classes per block.

    Of the ordered error pairs (p, q), those with p <= q make the word blocks
    agree and all make the cross block vanish.  An atom sees p^-1 q through
    its Pauli class (``_pauli_class``), the sizes ``(ny, nx, nz)`` of its Y-,
    X- and Z-type supports, and its phase only as a factor i**phase, so all
    phase variants of a class yield one integer row, real for an even phase
    and imaginary for an odd one.  A class keeps its first pair's origin.
    Lowering a pair's qubits to 1 and 2 keeps its class and never moves it
    later.
    """
    ops = [IdentityOp(n), *_family_ops(n, families, min(n, 2))]
    pairs = [(True, p, q) for a, p in enumerate(ops) for q in ops[a:]]
    pairs += [(False, p, q) for p in ops for q in ops]
    classes: dict[tuple, tuple] = {}
    for block, p, q in pairs:
        e = p.inverse().compose(q)
        phase, *sizes = _pauli_class(e.phase, e.x_mask, e.z_mask)
        key = (block, *sizes)
        if key not in classes:
            classes[key] = (
                f"word blocks must agree at <{p.label()} w, {q.label()} w>" if block
                else f"<{p.label()} w0, {q.label()} w1> must vanish"
            ) + (" (imaginary part)" if phase % 2 else ""), atoms.setdefault(key[1:], {})
    return classes


def _assemble_constraints(
    pattern: SupportPattern, families: Sequence[str], classes: dict
) -> tuple[list[_Constraint], list[str], list[tuple[int, int]]]:
    """All correctability equations for the pattern, deduplicated, from
    ``classes`` (a ``_class_table``).

    Each monomial a_i a_j (i <= j) is a slot, and each block's slots come
    in sorted order: the word blocks' difference has the slots inside one
    word, signed +1 for word 0 and -1 for word 1, and reads atom
    (kappa_i, kappa_j) and, off the diagonal, (kappa_j, kappa_i); the cross
    block has the slots with i in word 0 and j in word 1.  A class's row
    is its nonzero slot sums in that order, so ``_canonical`` needs no sort.

    Returns (constraints, variable names, variable keys) where each key
    is (word, weight) in variable order and names render as a_kappa.
    """
    keys = [(0, k) for k in sorted(pattern.word0)]
    keys += [(1, k) for k in sorted(pattern.word1)]
    names = [f"a_{k}" for _, k in keys]
    by_word = [[(pos, k) for pos, (w, k) in enumerate(keys) if w == word] for word in (0, 1)]
    # (i, j, sign, atoms) per block: the word blocks' difference (True), or
    # the cross block (False)
    slots = {
        True: [
            (i, j, sign, ((ka, mu), (mu, ka)) if i < j else ((ka, mu),))
            for word, sign in ((0, 1), (1, -1))
            for a, (i, ka) in enumerate(by_word[word]) for j, mu in by_word[word][a:]
        ],
        False: [(i, j, 1, ((ka, mu),)) for i, ka in by_word[0] for j, mu in by_word[1]],
    }
    seen: dict[tuple, _Constraint] = {}
    for (block, *sizes), (origin, memo) in classes.items():
        items = []
        for i, j, sign, kms in slots[block]:
            c = 0
            for km in kms:
                count = memo.get(km)
                if count is None:
                    count = memo[km] = _orbit_atom(pattern.n, *sizes, *km)
                c += count
            if c:
                items.append((i, j, sign * c))
        canon = _canonical(items)
        if canon is not None and canon not in seen:
            seen[canon] = _Constraint(canon, origin)
    return list(seen.values()), names, keys


@dataclass(frozen=True)
class SolverResult:
    pattern: SupportPattern
    families: tuple[str, ...]
    feasible: bool  # False for an undecided row as well
    # sign-definite: infeasible, a sign-definite constraint zeroes a word;
    # exact-linear: exact squares and signs, or an exact certificate;
    # undecided: the exact step proves neither; no certificate
    method: str
    coefficients: dict[int, float] | None  # weight -> value, scale-free
    squares: dict[int, Fraction] | None  # exact squared values of a feasible row
    certificate: str | None
    notes: tuple[str, ...] = ()

    @property
    def residual(self) -> float | None:
        """0.0 for a feasible row, whose constraints vanish exactly; else None."""
        return 0.0 if self.feasible else None

    def to_lines(self) -> list[str]:
        verdict = "undecided" if self.method == "undecided" else str(self.feasible).lower()
        lines = [
            f"pattern: {self.pattern.describe()}",
            f"families: {'+'.join(self.families)}",
            f"feasible: {verdict}",
            f"method: {self.method}",
        ]
        coefficients, squares = self.coefficients or {}, self.squares or {}
        lines += [f"coefficient a_{k}: {coefficients[k]:.12g}" for k in sorted(coefficients)]
        lines += [f"square a_{k}^2: {squares[k]}" for k in sorted(squares)]
        if self.residual is not None:
            lines.append(f"residual: {self.residual:.3g}")
        if self.certificate is not None:
            lines.append(f"certificate: {self.certificate}")
        return lines + [f"note: {note}" for note in self.notes]


def _exact_maps(
    pattern: SupportPattern, coefficients: Mapping[int, float], squares: Mapping[int, Fraction]
) -> tuple[dict[int, Amplitude], ...]:
    """Each word's weight -> amplitude map: the surd root of each nonzero
    square, with the sign of its coefficient."""
    maps = []
    for weights in (sorted(pattern.word0), sorted(pattern.word1)):
        entry: dict[int, Amplitude] = {}
        for k in weights:
            s = Fraction(squares[k])
            if s:
                amp = Amplitude.make(Fraction(1, s.denominator), 0, s.numerator * s.denominator)
                entry[k] = amp.scaled(-1) if coefficients[k] < 0 else amp
        maps.append(entry)
    return tuple(maps)


def realize_code(
    pattern: SupportPattern,
    coefficients: Mapping[int, float],
    squares: Mapping[int, Fraction],
    label: str = "searched",
) -> Code:
    """Build the exact code a solution describes: each word's amplitude at
    weight k is the surd root of ``squares[k]``, with the sign of
    ``coefficients[k]``.  Call ``to_float()`` on the result for float
    amplitudes."""
    spec = PermInvariantSpec(pattern.n, _exact_maps(pattern, coefficients, squares))
    return perm_invariant_code(spec, label=label)


class _AtomTable(dict):
    """One call's orbit atoms, phase-free class -> (kappa, mu) -> atom, and
    in ``verdicts`` the exact gate's verdict per weight map."""

    def __init__(self):
        super().__init__()
        self.verdicts: dict[tuple, bool] = {}


def _gate(
    pattern: SupportPattern,
    families: Sequence[str],
    coefficients: dict[int, float],
    squares: dict[int, Fraction],
    atoms: _AtomTable | None = None,
) -> bool:
    """The correctability condition at tolerance 0 on the words' weight
    maps, one orbit atom per Pauli class, over the identity (the words'
    orthogonality and equal norms) and the families' single-qubit errors on
    qubits 1..min(n, 2): the words are permutation-invariant, so every pair
    of single-qubit errors is in the Pauli class of a pair on those qubits.
    Exchanges fix weight-orbit words, so they would only repeat the
    identity's rows and are left out.  The atoms come from ``atoms``, the
    call's table that constraint assembly filled (a fresh one when None).
    The verdict depends only on the nonzero weight maps, which rows of one
    survey share when zero squares drop weights, so the table's
    ``verdicts`` keep it and each map is decided once per call."""
    n = pattern.n
    atoms = _AtomTable() if atoms is None else atoms
    maps = _exact_maps(pattern, coefficients, squares)
    key = (n, tuple(families), tuple(tuple(m.items()) for m in maps))
    if key not in atoms.verdicts:
        errors = ErrorSet(n, (IdentityOp(n), *_family_ops(n, families, min(n, 2))))
        gram = _orbit_gram(n, maps, errors, atoms)
        atoms.verdicts[key] = not _violations(GramTensor(errors, 2, *gram), range(2), 0.0)
    return atoms.verdicts[key]


def _forced_zero_analysis(
    constraints: list[_Constraint], names: list[str], keys: list[tuple[int, int]]
) -> str | None:
    """Propagate sign-definite constraints; detect a word forced to zero."""
    cause: dict[int, _Constraint] = {}  # each variable forced to zero, and why
    changed = True
    while changed:
        changed = False
        for con in constraints:
            live = [(i, j, c) for i, j, c in con.terms if i not in cause and j not in cause]
            if live and all(i == j for i, j, _ in live) and len({c > 0 for *_, c in live}) == 1:
                cause.update((i, con) for i, _, _ in live)
                changed = True
    for word in (0, 1):
        members = [pos for pos, (w, _) in enumerate(keys) if w == word]
        if members and all(pos in cause for pos in members):
            con = cause[members[0]]
            return (
                f"{con.render(names)} (from: {con.origin}); every term is a "
                "square with same-signed coefficient, so the listed "
                f"coefficients must all vanish, leaving word {word} zero"
            )
    return None


def _signs(
    constraints: list[_Constraint], keys: list[tuple[int, int]], nums: Sequence[int], den: int
) -> list[int] | None:
    """First sign choice under which every constraint given sums to exactly
    0, for the squares ``s_i = nums[i] / den``.  ``_solve_exact`` passes
    only the constraints with a cross term: its candidates solve the
    diagonal ones exactly, whatever the signs.

    Each word's first nonzero coefficient is +: flipping a whole word's
    sign changes no constraint's zero set.  With ``nums[i] den = u_i^2 t_i``
    (t_i squarefree, g = gcd(t_i, t_j)), c*a_i*a_j is c u_i u_j g *
    sigma_i sigma_j sqrt(t_i t_j / g^2) / den^2, and surds of distinct
    squarefree t are independent, so each t-part must vanish.
    """
    nonzero = [pos for pos, x in enumerate(nums) if x]
    flips = [p for p in nonzero if any(keys[q][0] == keys[p][0] for q in nonzero if q < p)]
    split = {pos: squarefree_split(nums[pos] * den) for pos in nonzero}
    surds = []
    for con in constraints:
        terms = []
        for i, j, c in con.terms:
            if i in split and j in split:
                (ui, ti), (uj, tj) = split[i], split[j]
                g, t = surd_product(ti, tj)
                terms.append((i, j, c * ui * uj * g, t))
        surds.append(terms)
    for choice in product((1, -1), repeat=len(flips)):
        sign = [1] * len(keys)
        for pos, s in zip(flips, choice):
            sign[pos] = s
        for terms in surds:
            parts: dict[int, int] = {}
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
    atoms: _AtomTable,
) -> SolverResult:
    """Exact path: candidate squares from the diagonal constraints, then signs.

    The constraints are split once.  The diagonal ones, each filled into a
    row by index, and the word-0 norm are linear in the squares s_i = a_i^2.
    Their unique solution, or else each nonnegative basic solution
    (len(free) squares set to zero), is a candidate.  All basic solutions
    come from one elimination (``basic_solutions``); each is tested for
    nonnegativity on its integer numerators, and a candidate stays integers
    over one denominator, in lowest terms, through the sign check; only a
    code's squares become Fractions.  Every candidate solves the diagonal
    rows exactly, so they vanish under any sign choice, and ``_signs``
    reads only the constraints with a cross term.  The first candidate with
    a sign choice that zeroes every constraint exactly and passes the exact
    gate is the code.  Without one the row is infeasible when that is
    proved (inconsistent system, no nonnegative candidate, or pinned
    squares without a sign choice) and undecided otherwise.
    """
    rows, crossing = [], []
    for con in constraints:
        if con.is_diagonal():
            row = [0] * len(keys)
            for i, _, c in con.terms:
                row[i] = c
            rows.append(row)
        else:
            crossing.append(con)
    # fix the free overall scale: word-0 squared norm = 1
    rows.append([math.comb(pattern.n, k) if w == 0 else 0 for w, k in keys])
    rhs = [0] * (len(rows) - 1) + [1]

    def infeasible(text: str) -> SolverResult:
        return SolverResult(pattern, families, False, "exact-linear", None, None, text)

    def undecided(text: str) -> SolverResult:
        return SolverResult(pattern, families, False, "undecided", None, None, None, (text,))

    system = basic_solutions(rows, rhs)
    if system is None:
        return infeasible(
            "the linear system in the squared coefficients is inconsistent "
            "(exact elimination)"
        )
    free, basics = system
    if not free:
        [(nums, den)] = basics
        negative = next((pos for pos, x in enumerate(nums) if x < 0), None)
        if negative is not None:
            return infeasible(
                f"unique exact solution needs {names[negative]}^2 = "
                f"{Fraction(nums[negative], den)} < 0"
            )
    candidates: dict[tuple[tuple[int, ...], int], None] = {}  # lowest terms, first seen first
    for nums, den in basics:
        if min(nums) >= 0:
            g = math.gcd(den, *nums)
            candidates[tuple(x // g for x in nums), den // g] = None

    rejected = False
    for nums, den in candidates:
        sign = _signs(crossing, keys, nums, den)
        if sign is None:
            continue
        squares = {k: Fraction(nums[pos], den) for pos, (_, k) in enumerate(keys)}
        coefficients = {k: sign[pos] * math.sqrt(squares[k]) for pos, (_, k) in enumerate(keys)}
        if not _gate(pattern, families, coefficients, squares, atoms):
            rejected = True
            continue
        unused = {k for k, s in squares.items() if not s}
        used = SupportPattern(pattern.n, pattern.word0 - unused, pattern.word1 - unused)
        zeros = ", ".join(f"a_{k}" for k in sorted(unused))
        notes = (
            f"zero squares at {zeros}: the code is the smaller pattern {used.describe()}",
        ) if unused else ()
        return SolverResult(
            pattern, families, True, "exact-linear", coefficients, squares, None, notes
        )
    if rejected:
        return undecided(
            "a candidate whose sign choice makes every constraint vanish exactly "
            "failed full re-verification, and no other candidate works"
        )
    if not candidates:
        return infeasible(
            "every basic solution of the linear system in the squared "
            "coefficients has a negative square (exact elimination)"
        )
    if not free:
        [(nums, den)] = candidates
        pinned = ", ".join(f"{name}^2 = {Fraction(x, den)}" for name, x in zip(names, nums))
        return infeasible(
            f"the squares are pinned ({pinned}) and no sign choice makes every "
            "constraint vanish exactly"
        )
    return undecided(
        "the squares are not pinned, and no nonnegative basic solution of the "
        "linear system in the squared coefficients admits a sign choice that "
        "makes every constraint vanish exactly"
    )


def solve_coefficients(
    pattern: SupportPattern, families: Sequence[str] = ("single_pauli",)
) -> SolverResult:
    """Decide whether a weight pattern supports a correctable code.

    The constraint system is assembled exactly from single-orbit Gram
    atoms.  Sign-definite constraints give certified infeasibility.  Then
    ``_solve_exact`` takes candidate squares from the diagonal constraints
    and the norm, and signs under which every constraint vanishes exactly.
    Every verdict is exact: a feasible answer carries exact squares whose
    words pass the exact gate (``_gate``) at tolerance 0, and an
    infeasible one carries an exact certificate.  A row
    this step cannot decide has method ``undecided``, ``feasible`` False,
    no certificate and a note saying why.
    """
    if len(pattern.word0) > MAX_WEIGHTS_PER_WORD or len(pattern.word1) > MAX_WEIGHTS_PER_WORD:
        raise CapabilityError(
            f"patterns are limited to {MAX_WEIGHTS_PER_WORD} weights per word"
        )
    atoms = _AtomTable()
    return _solve(pattern, families, _class_table(pattern.n, families, atoms), atoms)


def _solve(
    pattern: SupportPattern, families: Sequence[str], classes: dict, atoms: _AtomTable
) -> SolverResult:
    fams = tuple(families)
    constraints, names, keys = _assemble_constraints(pattern, fams, classes)
    forced = _forced_zero_analysis(constraints, names, keys)
    if forced is not None:
        result = SolverResult(pattern, fams, False, "sign-definite", None, None, forced)
    else:
        result = _solve_exact(pattern, constraints, names, keys, fams, atoms)
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
    in sorted pattern order, solved over one class table and one atom table
    for this call.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if max_weights < 1:
        raise ValueError(f"max_weights must be at least 1, got {max_weights}")
    if max_weights > MAX_WEIGHTS_PER_WORD:
        raise CapabilityError(
            f"patterns are limited to {MAX_WEIGHTS_PER_WORD} weights per word"
        )
    # combinations come by size, then in lexicographic order: keep K < mirror
    patterns = [
        SupportPattern(n, frozenset(combo), frozenset(mirror))
        for size in range(1, max_weights + 1)
        for combo in combinations(range(n + 1), size)
        for mirror in [tuple(n - k for k in reversed(combo))]
        if combo < mirror and not set(combo) & set(mirror)
    ]
    atoms = _AtomTable()
    classes = _class_table(n, families, atoms)
    return [_solve(p, families, classes, atoms) for p in patterns]


def survey_7bit(families: Sequence[str] = ("single_pauli",)) -> list[SolverResult]:
    """The 7-qubit sweep: every dual pattern with up to 3 weights per word."""
    return survey_patterns(7, max_weights=3, families=families)
