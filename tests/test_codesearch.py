from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exqec import _gram, _linalg, cli, codesearch, klverify, qstate
from exqec.codes import Code
from exqec.codesearch import (
    MAX_WEIGHTS_PER_WORD,
    SupportPattern,
    _Constraint,
    _assemble_constraints,
    _orbit_atom,
    bitflip_cross_count,
    phase_offdiag_term,
    realize_code,
    solve_coefficients,
    survey_7bit,
    survey_patterns,
    zk_diag,
)
from exqec.errorops import ErrorOperator, ErrorSet, IdentityOp, PauliString, basic_error_set
from exqec.errors import CapabilityError
from exqec._gram import GramTensor, _pauli_class, _violations
from exqec.klverify import verify_kl
from exqec.qstate import StateVector, inner_product, orbit_sum


# ------------------------------------------------------------- closed forms


def brute_pair(n: int, kind: str, j: int, k: int, kappa: int, mu: int) -> Fraction:
    left = PauliString.single(n, kind, j).apply(orbit_sum(n, kappa))
    right = PauliString.single(n, kind, k).apply(orbit_sum(n, mu))
    return inner_product(left, right).as_fraction()


@pytest.mark.parametrize("n", range(2, 10))
def test_closed_forms_match_brute_force(n):
    for kappa in range(0, n + 1):
        w = orbit_sum(n, kappa)
        assert phase_offdiag_term(n, kappa) == brute_pair(n, "Z", 1, 2, kappa, kappa)
        assert bitflip_cross_count(n, kappa) == brute_pair(n, "X", 1, 2, kappa, kappa)
        z = PauliString.single(n, "Z", 3 if n >= 3 else 1).apply(w)
        assert zk_diag(n, kappa) == inner_product(w, z).as_fraction()


def test_closed_forms_do_not_depend_on_the_qubit_pair():
    for j, k in [(1, 2), (2, 5), (4, 9), (8, 9)]:
        assert phase_offdiag_term(9, 4) == brute_pair(9, "Z", j, k, 4, 4)
        assert bitflip_cross_count(9, 4) == brute_pair(9, "X", j, k, 4, 4)


def test_closed_form_argument_checks():
    with pytest.raises(ValueError):
        phase_offdiag_term(1, 0)  # needs two distinct qubits
    with pytest.raises(ValueError):
        bitflip_cross_count(4, 5)
    assert zk_diag(1, 0) == 1  # diagonal form is fine on a single qubit
    assert zk_diag(1, 1) == -1


def test_closed_form_spot_values():
    assert zk_diag(9, 0) == 1
    assert zk_diag(9, 6) == Fraction(-1, 3) * 84
    assert bitflip_cross_count(9, 6) == 2 * 21
    assert phase_offdiag_term(9, 6) == Fraction(0)  # (9-12)^2 = 9 cancels


# --------------------------------------------------------- orbit gram atoms


def op_atom(op, kappa, mu):
    """<O_kappa | op O_mu> as a Gaussian integer (re, im): ``i**phase``
    times the integer atom of op's Pauli class."""
    phase, *sizes = _pauli_class(op.phase, op.x_mask, op.z_mask)
    t = _orbit_atom(op.n, *sizes, kappa, mu)
    return ((t, 0), (0, t), (-t, 0), (0, -t))[phase]


def support_oracle(n, ny, nx, nz, kappa, mu):
    """The atom of class (ny, nx, nz) summed over the 2**s strings v on its
    s = ny + nx + nz support qubits, with no signed binomial: v extends to
    C(n - s, mu - |v|) weight-mu strings, each moved by X(x) Z(z) to weight
    |v ^ x| + mu - |v| with sign (-1)**|z & v|."""
    s = ny + nx + nz
    x = (1 << (ny + nx)) - 1  # Y-type support bits, then X-type, then Z-type
    z = ((1 << ny) - 1) | ((1 << nz) - 1) << (ny + nx)
    total = 0
    for v in range(1 << s):
        rest = mu - v.bit_count()
        if rest >= 0 and kappa - (v ^ x).bit_count() == rest:
            total += (-1) ** (z & v).bit_count() * math.comb(n - s, rest)
    return total


_SMALL_CLASSES = [
    (ny, nx, nz) for ny in range(5) for nx in range(5 - ny) for nz in range(5 - ny - nx)
]


@st.composite
def small_classes_and_weights(draw):
    n = draw(st.integers(min_value=1, max_value=128))
    ny, nx, nz = draw(st.sampled_from([c for c in _SMALL_CLASSES if sum(c) <= n]))
    mu = draw(st.integers(min_value=0, max_value=n))
    near = st.integers(min_value=max(0, mu - 4), max_value=min(n, mu + 4))
    kappa = draw(st.one_of(near, st.integers(min_value=0, max_value=n)))
    return n, ny, nx, nz, kappa, mu


@settings(max_examples=500, deadline=None)
@given(small_classes_and_weights())
def test_orbit_atom_matches_the_support_oracle(case):
    """Past any state oracle: every class of support at most 4 against the
    sum over its support strings, for n up to 128."""
    assert _orbit_atom(*case) == support_oracle(*case)


def test_orbit_atom_matches_the_support_oracle_on_every_small_class():
    """All 35 classes of support at most 4 at n = 128, each mu, and each
    kappa that a support of 4 can reach."""
    assert len(_SMALL_CLASSES) == 35
    for ny, nx, nz in _SMALL_CLASSES:
        for mu in range(129):
            for kappa in range(max(0, mu - 4), min(128, mu + 4) + 1):
                assert _orbit_atom(128, ny, nx, nz, kappa, mu) == support_oracle(
                    128, ny, nx, nz, kappa, mu
                )


def test_orbit_atom_is_zero_exactly_where_the_support_oracle_is():
    """Every class of support at most 4 on n <= 10 qubits, every kappa and
    mu in 0..n: the atom's explicit zeros (odd or negative h, h beyond the
    X-type support, h beyond mu) and its signed counts vanish exactly
    where the sum over the support strings does, kappa > mu + ny + nx
    included."""
    beyond = 0
    for n in range(1, 11):
        for ny, nx, nz in (c for c in _SMALL_CLASSES if sum(c) <= n):
            for kappa, mu in product(range(n + 1), repeat=2):
                atom = _orbit_atom(n, ny, nx, nz, kappa, mu)
                assert (atom == 0) == (support_oracle(n, ny, nx, nz, kappa, mu) == 0)
                beyond += kappa > mu + ny + nx
    assert beyond > 0


@st.composite
def operators_and_weights(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    top = (1 << n) - 1
    op = ErrorOperator(
        n,
        draw(st.integers(min_value=0, max_value=top)),
        draw(st.integers(min_value=0, max_value=top)),
        draw(st.integers(min_value=0, max_value=3)),
        tuple(draw(st.permutations(range(1, n + 1)))),
    )
    kappa = draw(st.integers(min_value=0, max_value=n))
    mu = draw(st.integers(min_value=0, max_value=n))
    return op, kappa, mu


@settings(max_examples=300, deadline=None)
@given(operators_and_weights())
def test_orbit_atom_matches_brute_force(case):
    """<O_kappa | E O_mu> in closed form against the states themselves, for
    arbitrary masks, phases and qubit permutations."""
    op, kappa, mu = case
    left = orbit_sum(op.n, kappa)
    right = op.apply(orbit_sum(op.n, mu))
    assert op_atom(op, kappa, mu) == inner_product(left, right).as_gaussian()


@pytest.mark.parametrize("n", [2, 3, 9, 17, 25, 40])
def test_orbit_atom_matches_public_closed_forms(n):
    """Beyond any brute-force size: the atom reproduces the three
    independently derived single-orbit formulas."""
    for kind, closed in (("Z", phase_offdiag_term), ("X", bitflip_cross_count)):
        for j, k in ((1, 2), (1, n), (n - 1, n)):
            left = ErrorOperator.single(n, kind, j)
            e = left.inverse().compose(ErrorOperator.single(n, kind, k))
            for kappa in range(n + 1):
                assert op_atom(e, kappa, kappa) == (closed(n, kappa), 0)
    for k in (1, n):
        z = ErrorOperator.single(n, "Z", k)
        for kappa in range(n + 1):
            assert op_atom(z, kappa, kappa) == (zk_diag(n, kappa), 0)


def test_constraint_assembly_builds_no_state(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("constraint assembly touched a state vector")

    monkeypatch.setattr(qstate, "orbit_sum", forbidden)
    monkeypatch.setattr(qstate, "inner_product", forbidden)
    monkeypatch.setattr(ErrorOperator, "apply", forbidden)
    monkeypatch.setattr(StateVector, "__init__", forbidden)
    pattern = SupportPattern(9, {0, 6}, {3, 9})
    families = ("single_pauli", "exchange")
    constraints, names, keys = _assemble_constraints(
        pattern, families, codesearch._class_table(pattern.n, families, {})
    )
    assert names == ["a_0", "a_6", "a_3", "a_9"]
    assert keys == [(0, 0), (0, 6), (1, 3), (1, 9)]
    assert constraints and all(con.is_diagonal() for con in constraints)


def reference_assembly(pattern, families):
    """The O(ops^2) double loop over every ordered operator pair, one atom
    per pair and weight pair, kept as the reference for the class-based
    assembly."""
    n = pattern.n
    kinds = []
    for fam in families:
        kinds += [k for k in {"single_pauli": "XYZ", "bitflip": "X", "phase": "Z"}.get(fam, "")
                  if k not in kinds]
    ops = [IdentityOp(n)]
    ops += [ErrorOperator.single(n, kind, k) for kind in kinds for k in range(1, n + 1)]
    keys = [(0, k) for k in sorted(pattern.word0)] + [(1, k) for k in sorted(pattern.word1)]
    index = {key: pos for pos, key in enumerate(keys)}
    seen = {}

    def push(terms, origin):
        canon = codesearch._canonical([(i, j, c) for (i, j), c in sorted(terms.items()) if c])
        if canon is not None and canon not in seen:
            seen[canon] = origin

    def add(dest, i, j, value):
        key = (min(i, j), max(i, j))
        dest[key] = dest.get(key, 0) + value

    for a, p in enumerate(ops):
        for q in ops[a:]:
            e = p.inverse().compose(q)
            re_terms, im_terms = {}, {}
            for word, sign, weights in ((0, 1, pattern.word0), (1, -1, pattern.word1)):
                for ka in weights:
                    for mu in weights:
                        re, im = op_atom(e, ka, mu)
                        add(re_terms, index[(word, ka)], index[(word, mu)], sign * re)
                        add(im_terms, index[(word, ka)], index[(word, mu)], sign * im)
            origin = f"word blocks must agree at <{p.label()} w, {q.label()} w>"
            push(re_terms, origin)
            push(im_terms, origin + " (imaginary part)")
    for p in ops:
        for q in ops:
            e = p.inverse().compose(q)
            re_terms, im_terms = {}, {}
            for ka in pattern.word0:
                for mu in pattern.word1:
                    re, im = op_atom(e, ka, mu)
                    add(re_terms, index[(0, ka)], index[(1, mu)], re)
                    add(im_terms, index[(0, ka)], index[(1, mu)], im)
            origin = f"<{p.label()} w0, {q.label()} w1> must vanish"
            push(re_terms, origin)
            push(im_terms, origin + " (imaginary part)")
    return [(canon, origin) for canon, origin in seen.items()], [f"a_{k}" for _, k in keys], keys


@st.composite
def patterns_and_families(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    word0 = draw(st.sets(st.integers(min_value=0, max_value=n), min_size=1, max_size=min(n, 3)))
    rest = sorted(set(range(n + 1)) - word0)
    word1 = draw(st.sets(st.sampled_from(rest), min_size=1, max_size=3))
    families = draw(st.lists(
        st.sampled_from(["single_pauli", "bitflip", "phase", "exchange"]),
        min_size=1, max_size=4, unique=True,
    ))
    return SupportPattern(n, word0, word1), tuple(families)


@settings(max_examples=80, deadline=None)
@given(patterns_and_families())
def test_class_assembly_matches_the_pair_loops(case):
    """One atom per Pauli class gives the same constraints, in the same
    order and with the same origins, as one atom per operator pair."""
    pattern, families = case
    constraints, names, keys = _assemble_constraints(
        pattern, families, codesearch._class_table(pattern.n, families, {})
    )
    got = [(con.terms, con.origin) for con in constraints]
    assert (got, names, keys) == reference_assembly(pattern, families)


def test_assembly_work_does_not_grow_with_n(monkeypatch):
    """Same-shape patterns at n=7 and n=15 cost the same operator products
    and atoms, and a repeated call costs the same again (no hidden cache)."""
    counts = Counter()
    compose, atom = ErrorOperator.compose, codesearch._orbit_atom

    def counted_compose(self, other):
        counts["compose"] += 1
        return compose(self, other)

    def counted_atom(*args):
        counts["atom"] += 1
        return atom(*args)

    monkeypatch.setattr(ErrorOperator, "compose", counted_compose)
    monkeypatch.setattr(codesearch, "_orbit_atom", counted_atom)

    def work(pattern):
        counts.clear()
        families = ("single_pauli", "exchange")
        _assemble_constraints(pattern, families, codesearch._class_table(pattern.n, families, {}))
        return dict(counts)

    small = work(SupportPattern(7, {0, 5}, {2, 7}))
    large = work(SupportPattern(15, {0, 13}, {2, 15}))
    assert small == large == work(SupportPattern(15, {0, 13}, {2, 15}))
    # identity and X, Y, Z on qubits 1 and 2: 28 block pairs and 49 cross pairs
    assert small["compose"] == 28 + 49
    assert 0 < small["atom"] < 2 * 7 * 7 * 4


def test_survey_evaluates_each_atom_once(monkeypatch):
    """One survey evaluates each (Pauli class, kappa, mu) atom at most once
    across all its patterns, and a second survey does the same work again:
    the class table lives for one call."""
    calls = Counter()
    atom = codesearch._orbit_atom

    def counted_atom(n, ny, nx, nz, kappa, mu):
        calls[(ny, nx, nz), kappa, mu] += 1
        return atom(n, ny, nx, nz, kappa, mu)

    monkeypatch.setattr(codesearch, "_orbit_atom", counted_atom)
    first = survey_patterns(7, 3)
    once = dict(calls)
    calls.clear()
    assert survey_patterns(7, 3) == first
    assert once and max(once.values()) == 1
    assert calls == once


def phase_keeping_assembly(pattern, families):
    """Constraint assembly over a class table that keeps every phase: one
    class per (block, phase, Y, X, Z support sizes), each giving a real and
    an imaginary row from its first pair's E.  Kept as the reference for
    the phase-free table; returns the rows and the number of classes."""
    n = pattern.n
    ops = [IdentityOp(n), *codesearch._family_ops(n, families, min(n, 2))]
    pairs = [(True, p, q) for a, p in enumerate(ops) for q in ops[a:]]
    pairs += [(False, p, q) for p in ops for q in ops]
    classes = {}
    for block, p, q in pairs:
        e = p.inverse().compose(q)
        cls = (block, _pauli_class(e.phase, e.x_mask, e.z_mask))
        if cls not in classes:
            classes[cls] = e, (
                f"word blocks must agree at <{p.label()} w, {q.label()} w>" if block
                else f"<{p.label()} w0, {q.label()} w1> must vanish"
            )
    keys = [(0, k) for k in sorted(pattern.word0)] + [(1, k) for k in sorted(pattern.word1)]
    index = {key: pos for pos, key in enumerate(keys)}
    seen = {}
    for (block, _), (e, origin) in classes.items():
        parts = ((0, 0, 1), (1, 1, -1)) if block else ((0, 1, 1),)
        rows = ({}, {})
        for wa, wb, sign in parts:
            for ka in (pattern.word0, pattern.word1)[wa]:
                for mu in (pattern.word0, pattern.word1)[wb]:
                    i, j = sorted((index[wa, ka], index[wb, mu]))
                    for dest, value in zip(rows, op_atom(e, ka, mu)):
                        dest[i, j] = dest.get((i, j), 0) + sign * value
        for terms, suffix in zip(rows, ("", " (imaginary part)")):
            canon = codesearch._canonical([(i, j, c) for (i, j), c in sorted(terms.items()) if c])
            if canon is not None and canon not in seen:
                seen[canon] = origin + suffix
    return list(seen.items()), len(classes)


def _survey_style_patterns(n, max_weights):
    """Every complement-dual pattern a survey visits, and each one with a
    weight dropped from word 0."""
    for size in range(1, max_weights + 1):
        for combo in combinations(range(n + 1), size):
            mirror = tuple(n - k for k in reversed(combo))
            if combo < mirror and not set(combo) & set(mirror):
                yield SupportPattern(n, combo, mirror)
                if size > 1:
                    yield SupportPattern(n, combo[:-1], mirror)


@pytest.mark.parametrize("n", range(2, 10))
def test_phase_free_classes_match_the_phase_keeping_table(n):
    """Dropping the phase from the class key leaves every pattern's
    constraints, their order and their origins as they were; with the
    single-qubit Paulis the table shrinks from 29 classes to 20."""
    for families in (("single_pauli",), ("bitflip",), ("phase",), ("bitflip", "phase")):
        classes = codesearch._class_table(n, families, {})
        for pattern in _survey_style_patterns(n, 3):
            constraints, _, _ = _assemble_constraints(pattern, families, classes)
            reference, size = phase_keeping_assembly(pattern, families)
            assert [(con.terms, con.origin) for con in constraints] == reference
        if families == ("single_pauli",):
            assert (size, len(classes)) == (29, 20)


def test_survey_counts_each_phase_free_atom_once(monkeypatch):
    """One survey, gate included, counts each (phase-free class, kappa, mu)
    atom at most once: the gate reads the table assembly filled and adds
    only the weight pairs assembly never needed.  Every entry of the table
    is the atom counted afresh, and on every candidate and sign choice the
    gate's verdict with the survey's table is its verdict with a fresh one."""
    calls, sources = Counter(), Counter()
    gate, candidates = codesearch._gate, []

    def counting(module):
        atom = module._orbit_atom

        def counted(n, ny, nx, nz, kappa, mu):
            calls[(ny, nx, nz), kappa, mu] += 1
            sources[module.__name__] += 1
            return atom(n, ny, nx, nz, kappa, mu)

        monkeypatch.setattr(module, "_orbit_atom", counted)

    def recording(*args):
        candidates.append(args)
        return gate(*args)

    counting(codesearch)
    counting(_gram)
    monkeypatch.setattr(codesearch, "_gate", recording)
    survey_patterns(7, 3)
    assert calls and max(calls.values()) == 1
    assert sources["exqec.codesearch"] and sources["exqec._gram"]
    atoms = candidates[0][4]
    assert all(args[4] is atoms for args in candidates)
    assert sum(len(memo) for memo in atoms.values()) == len(calls)
    for cls, memo in atoms.items():
        assert all(count == support_oracle(7, *cls, *km) for km, count in memo.items())
    verdicts = Counter()
    for pattern, families, coefficients, squares, shared in candidates:
        weights = sorted(k for k, s in squares.items() if s)
        for signs in product((1, -1), repeat=len(weights)):
            coeffs = dict(coefficients)
            coeffs.update((k, s * abs(coeffs[k])) for k, s in zip(weights, signs))
            verdict = gate(pattern, families, coeffs, squares, shared)
            assert verdict == gate(pattern, families, coeffs, squares)
            verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


def test_pattern_search_and_verifier_share_one_atom():
    assert codesearch._orbit_atom is _gram._orbit_atom
    assert not hasattr(codesearch, "_signed_choices")


# ------------------------------------------------------------------ patterns


def test_support_pattern_validation():
    p = SupportPattern(9, {0, 6}, {3, 9})
    assert p.is_complement_dual
    assert "{0,6} / {3,9}" in p.describe()
    assert not SupportPattern(9, {0, 6}, {3, 8}).is_complement_dual
    with pytest.raises(ValueError):
        SupportPattern(9, set(), {3})
    with pytest.raises(ValueError):
        SupportPattern(9, {0, 10}, {3})
    with pytest.raises(ValueError):
        SupportPattern(9, {0, 3}, {3, 9})
    with pytest.raises(ValueError, match="between 1 and 24, got 25"):
        SupportPattern(25, {0}, {25})


# ----------------------------------------------------------------- solving


def test_dual_orbit_pattern_solves_exactly():
    result = solve_coefficients(
        SupportPattern(9, {0, 6}, {3, 9}), families=("single_pauli", "exchange")
    )
    assert result.feasible
    assert result.method == "exact-linear"
    assert result.residual == 0.0
    assert result.squares == {
        0: Fraction(1, 4),
        6: Fraction(1, 112),
        3: Fraction(1, 112),
        9: Fraction(1, 4),
    }
    # each word is normalized: sum over kappa of C(9, kappa) a_kappa^2 = 1
    assert sum(Fraction(84 if k in (3, 6) else 1) * s for k, s in result.squares.items()) == 2
    assert any("exchange operators fix weight-orbit words" in note for note in result.notes)
    lines = result.to_lines()
    assert "feasible: true" in lines
    assert "square a_6^2: 1/112" in lines
    assert "residual: 0" in lines


def test_residual_is_read_off_the_verdict():
    """``residual`` is no stored field: 0.0 on a feasible row, None (and no
    printed line) on the others."""
    assert "residual" not in {f.name for f in dataclasses.fields(codesearch.SolverResult)}
    # sign-definite at n = 9, undecided at n = 5
    for pattern in (SupportPattern(9, {0}, {9}), SupportPattern(5, {0, 1, 3}, {2, 4, 5})):
        result = solve_coefficients(pattern)
        assert not result.feasible and result.residual is None
        assert not any(line.startswith("residual") for line in result.to_lines())


def test_dual_orbit_solution_realizes_the_builtin(ruskai9):
    result = solve_coefficients(SupportPattern(9, {0, 6}, {3, 9}))
    code = realize_code(result.pattern, result.coefficients, result.squares)
    # same words up to the overall normalization (builtin words have norm 2)
    realized = code.words[0]
    reference = ruskai9.words[0].scaled(Fraction(1, 2))
    assert realized == reference


def test_single_weight_pair_is_certified_infeasible():
    result = solve_coefficients(SupportPattern(9, {0}, {9}))
    assert not result.feasible
    assert result.method == "sign-definite"
    assert "a_0^2 + 1*a_9^2 = 0" in result.certificate
    assert "word blocks must agree" in result.certificate


def test_families_parameter_changes_the_answer():
    pattern = SupportPattern(9, {0}, {9})
    flips_only = solve_coefficients(pattern, families=("bitflip",))
    assert flips_only.feasible
    assert flips_only.method == "exact-linear"
    assert flips_only.squares == {0: Fraction(1), 9: Fraction(1)}
    phase_only = solve_coefficients(pattern, families=("phase",))
    assert not phase_only.feasible
    assert phase_only.method == "sign-definite"
    with pytest.raises(ValueError):
        solve_coefficients(pattern, families=("bogus",))


def _record_gate_errors(monkeypatch) -> list:
    """Each error list the exact gate hands to its Gram step, in call order."""
    gated = []
    orbit_gram = codesearch._orbit_gram

    def recording(n, maps, errors, atoms):
        gated.append(errors.ops)
        return orbit_gram(n, maps, errors, atoms)

    monkeypatch.setattr(codesearch, "_orbit_gram", recording)
    return gated


@pytest.mark.parametrize(
    "families", [("single_pauli", "single_pauli"), ("bitflip", "single_pauli")]
)
def test_repeated_families_use_each_operator_once(monkeypatch, families):
    """A Pauli named by two families is one error: the verdict matches the
    single_pauli run, and the exact gate sees distinct operators."""
    pattern = SupportPattern(7, {0, 5}, {2, 7})
    reference = solve_coefficients(pattern, ("single_pauli",))
    gated = _record_gate_errors(monkeypatch)
    result = solve_coefficients(pattern, families)
    assert (result.feasible, result.method, result.squares) == (
        reference.feasible, reference.method, reference.squares
    )
    assert result.feasible and gated
    assert all(len(set(ops)) == len(ops) for ops in gated)


def test_seven_qubit_pattern_found_by_grid():
    """The pattern the grid used to find is now pinned and signed exactly."""
    result = solve_coefficients(SupportPattern(7, {0, 5}, {2, 7}))
    assert result.feasible
    assert result.method == "exact-linear"
    assert result.squares == {
        0: Fraction(3, 10),
        5: Fraction(1, 30),
        2: Fraction(1, 30),
        7: Fraction(3, 10),
    }
    code = realize_code(result.pattern, result.coefficients, result.squares)
    report = verify_kl(code, basic_error_set(7, families=("single_pauli", "exchange")))
    assert report.correctable and report.tolerance == 0.0
    assert report.rank == 22


@pytest.mark.parametrize(
    "n, word0, word1, lead, inner",
    [
        (9, {0, 7}, {2, 9}, Fraction(5, 14), Fraction(1, 56)),
        (13, {0, 11}, {2, 13}, Fraction(9, 22), Fraction(1, 132)),
    ],
)
def test_codes_the_grid_missed_are_found_exactly(n, word0, word1, lead, inner):
    result = solve_coefficients(SupportPattern(n, word0, word1))
    assert result.feasible
    assert result.method == "exact-linear"
    assert result.squares == {0: lead, n: lead, 2: inner, n - 2: inner}
    assert result.residual == 0.0


@pytest.mark.parametrize(
    "n, word0, word1, lead, inner",
    [
        (13, {0, 11}, {2, 13}, Fraction(9, 22), Fraction(1, 132)),
        (20, {0, 12}, {8, 20}, Fraction(1, 6), Fraction(1, 151164)),
    ],
    ids=["n13", "n20"],
)
def test_gate_builds_no_state(monkeypatch, n, word0, word1, lead, inner):
    """The exact gate checks the words' weight maps: no orbit sum, state,
    operator image, inner product, sparse or float Gram or ``verify_kl``,
    and no error with a permutation factor."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the exact gate touched a state")

    for module, name in (
        (qstate, "orbit_sum"), (qstate, "inner_product"), (_gram, "_float_gram"),
        (_gram, "_exact_gram"), (klverify, "verify_kl"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(StateVector, "__init__", forbidden)
    monkeypatch.setattr(ErrorOperator, "apply", forbidden)
    gated = _record_gate_errors(monkeypatch)
    result = solve_coefficients(SupportPattern(n, word0, word1))
    assert result.feasible and result.method == "exact-linear"
    outer, middle = {min(word0), max(word1)}, {max(word0), min(word1)}
    assert result.squares == {**dict.fromkeys(outer, lead), **dict.fromkeys(middle, inner)}
    assert gated and not any(op.perm for ops in gated for op in ops)


@pytest.mark.parametrize("n, calls, codes", [(7, 5, 1), (9, 19, 4)])
def test_survey_gates_each_distinct_code_once(monkeypatch, capsys, n, calls, codes):
    """Feasible rows whose zero squares drop weights gate the same weight
    maps: the n = 7 survey makes 5 gate calls on one code and the n = 9
    one 19 calls on 4 codes, and the gate builds one Gram per code.  The
    n = 7 survey still prints its golden bytes."""
    gate, made = codesearch._gate, []

    def recording(*args):
        made.append(args)
        return gate(*args)

    monkeypatch.setattr(codesearch, "_gate", recording)
    gated = _record_gate_errors(monkeypatch)
    assert cli.run(["survey", "--n", str(n), "--max-weights", "3"]) == 0
    out = capsys.readouterr().out
    assert (len(made), len(gated)) == (calls, codes)
    if n == 7:
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "704b7930428a4fc0b56144f338e16696bfb50875d28c699df2243c17c62921af"
        )
    # a call's verdicts stay with it: the next survey gates its codes afresh
    gated.clear()
    codesearch.survey_patterns(n, 3)
    assert len(gated) == codes


def test_gate_agrees_with_the_sparse_engine(monkeypatch):
    """Every sign choice on the nonzero squares of every feasible survey row
    for n = 5..8: the gate's verdict is the sparse engine's on the realized
    code with the exchanges included."""
    monkeypatch.setattr(_gram, "_orbit_coefficients", lambda word: None)
    verdicts = Counter()
    for n in range(5, 9):
        errors = basic_error_set(n, ("single_pauli", "exchange"))
        for row in survey_patterns(n, 3):
            if not row.feasible:
                continue
            weights = sorted(k for k, s in row.squares.items() if s)
            for signs in product((1, -1), repeat=len(weights)):
                coeffs = dict(row.coefficients)
                coeffs.update((k, s * abs(coeffs[k])) for k, s in zip(weights, signs))
                gate = codesearch._gate(row.pattern, row.families, coeffs, row.squares)
                code = realize_code(row.pattern, coeffs, row.squares)
                assert gate == verify_kl(code, errors).correctable
                verdicts[gate] += 1
    assert verdicts == {True: 80, False: 80}


def test_two_qubit_gate_matches_the_full_error_list(monkeypatch):
    """The gate puts its single-qubit errors on qubits 1..min(n, 2). Every
    candidate reaching it in the n = 2..11 two-weight and n = 2..8
    three-weight surveys, under every sign choice, gets the verdict that the
    identity and X, Y, Z on all n qubits give."""
    gate = codesearch._gate
    candidates = []

    def recording(*args):
        candidates.append(args)
        return gate(*args)

    monkeypatch.setattr(codesearch, "_gate", recording)
    for n in range(2, 12):
        survey_patterns(n, 2)
    for n in range(2, 9):
        survey_patterns(n, 3)
    verdicts = Counter()
    for pattern, families, coefficients, squares, _ in candidates:
        n = pattern.n
        assert families == ("single_pauli",)
        singles = [ErrorOperator.single(n, kind, k) for kind in "XYZ" for k in range(1, n + 1)]
        errors = ErrorSet(n, (IdentityOp(n), *singles))
        weights = sorted(k for k, s in squares.items() if s)
        for signs in product((1, -1), repeat=len(weights)):
            coeffs = dict(coefficients)
            coeffs.update((k, s * abs(coeffs[k])) for k, s in zip(weights, signs))
            maps = codesearch._exact_maps(pattern, coeffs, squares)
            tensor = GramTensor(errors, 2, *codesearch._orbit_gram(n, maps, errors))
            full = not _violations(tensor, range(2), 0.0)
            assert gate(pattern, families, coeffs, squares) == full
            verdicts[full] += 1
    assert verdicts == {True: 232, False: 152}


def test_underdetermined_squares_need_no_linear_program():
    """A diagonal system with a free square takes a nonnegative basic
    solution, exactly; the scipy guard below runs the same solve."""
    result = solve_coefficients(SupportPattern(9, {0, 3}, {6, 9}), families=("bitflip",))
    assert result.feasible
    assert result.method == "exact-linear"
    assert result.squares == {0: 0, 3: Fraction(1, 84), 6: Fraction(1, 84), 9: 0}
    assert result.notes == (
        "zero squares at a_0, a_9: the code is the smaller pattern "
        "n=9 weights {3} / {6} (complement-dual)",
    )


@pytest.mark.parametrize(
    "word1, families, pinned",
    [
        ({3, 7}, ("single_pauli",), "a_0^2 = 1/8, a_4^2 = 1/40, a_3^2 = 1/40, a_7^2 = 1/8"),
        # a_0 a_4 carries sqrt(105) and a_2 a_6 is rational: summing the surd
        # parts together would accept a sign choice the exact gate rejects
        ({2, 6}, ("bitflip", "phase"), "a_0^2 = 1/4, a_4^2 = 3/140, a_2^2 = 1/28, a_6^2 = 1/28"),
    ],
)
def test_pinned_squares_without_a_sign_choice_are_infeasible(word1, families, pinned):
    result = solve_coefficients(SupportPattern(7, {0, 4}, word1), families)
    assert not result.feasible
    assert result.method == "exact-linear"
    assert result.squares is None
    assert result.certificate == (
        f"the squares are pinned ({pinned}) and no sign choice makes every "
        "constraint vanish exactly"
    )


def reference_signs(constraints, keys, squares):
    """The Fraction sign check that the integer ``_signs`` replaced: one
    squarefree split of s_i s_j per term, kept as its reference."""
    nonzero = [pos for pos in range(len(keys)) if squares[pos]]
    flips = [p for p in nonzero if any(keys[q][0] == keys[p][0] for q in nonzero if q < p)]
    surds = []
    for con in constraints:
        terms = []
        for i, j, c in con.terms:
            prod = squares[i] * squares[j]
            if prod:
                root, t = qstate.squarefree_split(prod.numerator * prod.denominator)
                terms.append((i, j, c * root / prod.denominator, t))
        surds.append(terms)
    for choice in product((1, -1), repeat=len(flips)):
        sign = [1] * len(keys)
        for pos, s in zip(flips, choice):
            sign[pos] = s
        for terms in surds:
            parts = {}
            for i, j, q, t in terms:
                parts[t] = parts.get(t, 0) + sign[i] * sign[j] * q
            if any(parts.values()):
                break
        else:
            return sign
    return None


_SQUARES = [Fraction(0), Fraction(3, 10), Fraction(1, 30), Fraction(1, 4),
            Fraction(1, 112), Fraction(2, 7), Fraction(9, 22), Fraction(1, 132)]
# feasible codes whose last coefficient is negative, and a pinned row whose
# a_0 a_4 carries sqrt(105) while a_2 a_6 is rational
_SIGN_ROWS = [
    (SupportPattern(7, {0, 5}, {2, 7}), ("single_pauli",)),
    (SupportPattern(10, {0, 8}, {2, 10}), ("single_pauli",)),
    (SupportPattern(11, {1, 8}, {3, 10}), ("single_pauli",)),
    (SupportPattern(7, {0, 4}, {2, 6}), ("bitflip", "phase")),
]


@settings(max_examples=150, deadline=None)
@given(st.one_of(patterns_and_families(), st.sampled_from(_SIGN_ROWS)), st.data())
def test_integer_signs_match_the_fraction_reference(case, data):
    """The integer sign check over one common denominator returns the same
    sign list, or None, as the Fraction check on the rows scaled to a first
    coefficient of 1, for drawn squares and for the candidate squares the
    solver itself tries, a feasible row's own among them."""
    pattern, families = case
    constraints, _, keys = _assemble_constraints(
        pattern, families, codesearch._class_table(pattern.n, families, {})
    )
    squares = None
    if data.draw(st.booleans(), label="solver's squares"):
        with mock.patch.object(codesearch, "_signs", wraps=codesearch._signs) as spy:
            solve_coefficients(pattern, families)
        tried = [call.args[2:] for call in spy.call_args_list]
        if tried:
            nums, den = data.draw(st.sampled_from(tried), label="candidate")
            squares = [Fraction(x, den) for x in nums]
    if squares is None:
        squares = data.draw(
            st.lists(st.sampled_from(_SQUARES), min_size=len(keys), max_size=len(keys)),
            label="squares",
        )
        den = math.lcm(*(s.denominator for s in squares))
        nums = [int(s * den) for s in squares]
    scaled = [
        _Constraint(tuple((i, j, Fraction(c, con.terms[0][2])) for i, j, c in con.terms), "")
        for con in constraints
    ]
    assert codesearch._signs(constraints, keys, nums, den) == reference_signs(scaled, keys, squares)


@pytest.mark.parametrize("n", range(2, 10))
def test_sign_check_skips_only_rows_every_candidate_solves(n, monkeypatch):
    """``_solve_exact`` passes ``_signs`` only the constraints with a cross
    term.  On every call a survey makes, each diagonal constraint of the
    row sums to exactly 0 at the candidate squares, and ``_signs`` over
    the row's full constraint list gives the same sign list, or None."""
    solve_exact, signs = codesearch._solve_exact, codesearch._signs
    row, calls = {}, []

    def recording_solve(pattern, constraints, *args):
        row["constraints"] = constraints
        return solve_exact(pattern, constraints, *args)

    def recording_signs(constraints, keys, nums, den):
        sign = signs(constraints, keys, nums, den)
        calls.append((row["constraints"], constraints, keys, nums, den, sign))
        return sign

    monkeypatch.setattr(codesearch, "_solve_exact", recording_solve)
    monkeypatch.setattr(codesearch, "_signs", recording_signs)
    for families in (("single_pauli",), ("bitflip",), ("phase",), ("bitflip", "phase")):
        survey_patterns(n, 3, families)
    assert calls
    for full, passed, keys, nums, den, sign in calls:
        assert passed == [con for con in full if not con.is_diagonal()]
        squares = [Fraction(x, den) for x in nums]
        for con in full:
            if con.is_diagonal():
                assert sum(c * squares[i] for i, _, c in con.terms) == 0
        assert signs(full, keys, nums, den) == sign


_PINNED = re.compile(r"a_(\d+)\^2 = (-?\d+(?:/\d+)?)")


@pytest.mark.parametrize("n", range(5, 10))
def test_exact_verdicts_agree_with_float_verification(n):
    """Exact against float: every exact two-weight verdict is checked on
    the float copies of its codes.  A feasible code passes; for pinned
    squares with no sign choice, every sign pattern on those squares
    fails."""
    errors = basic_error_set(n)
    rows = [r for r in survey_patterns(n, 2) if len(r.pattern.word0) == 2]
    decided = [r for r in rows if r.method == "exact-linear"]
    assert decided and all(r.method != "undecided" for r in rows)
    for r in decided:
        if r.feasible:
            code = realize_code(r.pattern, r.coefficients, r.squares).to_float()
            assert verify_kl(code, errors, tol=1e-9).correctable
            continue
        assert r.certificate.startswith("the squares are pinned")
        squares = {int(k): Fraction(v) for k, v in _PINNED.findall(r.certificate)}
        weights = sorted(squares)
        for signs in product((1, -1), repeat=len(weights)):
            code = realize_code(r.pattern, dict(zip(weights, signs)), squares).to_float()
            assert not verify_kl(code, errors, tol=1e-9).correctable


def test_seven_qubit_code_verifies_exactly():
    """Regression: the n=7 discovery is a genuine exact code."""
    pattern = SupportPattern(7, {0, 5}, {2, 7})
    squares = {
        0: Fraction(3, 10),
        5: Fraction(1, 30),
        2: Fraction(1, 30),
        7: Fraction(3, 10),
    }
    signs = {0: 1.0, 5: -1.0, 2: 1.0, 7: 1.0}
    code = realize_code(pattern, signs, squares)
    errors = basic_error_set(7, families=("single_pauli", "exchange"))
    report = verify_kl(code, errors)  # exact arithmetic, tolerance 0
    assert report.correctable
    assert report.rank == 22  # 1 (identity+exchange) + 7 + 7 + 7
    # the relative sign is essential: flipping it breaks correctability
    flipped = realize_code(pattern, {k: 1.0 for k in signs}, squares)
    assert not verify_kl(flipped, errors).correctable


def test_weight_budget_is_enforced():
    wide = SupportPattern(9, {0, 1, 2, 3, 4}, {5, 6, 7, 8, 9})
    with pytest.raises(CapabilityError):
        solve_coefficients(wide)
    with pytest.raises(CapabilityError):
        survey_patterns(9, max_weights=MAX_WEIGHTS_PER_WORD + 1)


# ------------------------------------------------------------------ surveys


def test_five_qubit_survey_is_all_infeasible():
    """No n=5 pattern is feasible: 10 rows are certified infeasible and the
    exact step leaves 3 three-weight rows undecided."""
    results = survey_patterns(5)
    assert len(results) == 13
    assert all(not r.feasible for r in results)
    assert all(r.pattern.is_complement_dual for r in results)
    certified = [r for r in results if r.method in ("sign-definite", "exact-linear")]
    undecided = [r for r in results if r.method == "undecided"]
    assert len(certified) == 10 and all(r.certificate for r in certified)
    assert len(undecided) == 3
    for r in undecided:
        assert len(r.pattern.word0) == 3
        assert r.certificate is None and r.squares is None
        assert "feasible: undecided" in r.to_lines()
        assert "note: the squares are not pinned" in r.to_lines()[-1]
    sizes = [len(r.pattern.word0) for r in results]
    assert sizes == sorted(sizes)


def test_seven_qubit_survey_finds_the_discovery():
    results = survey_7bit()
    assert len(results) == 32
    assert sum(r.method == "undecided" for r in results) == 8
    feasible = [r for r in results if r.feasible]
    assert len(feasible) == 5
    descriptions = {tuple(sorted(r.pattern.word0)) for r in feasible}
    assert (0, 5) in descriptions
    errors = basic_error_set(7, families=("single_pauli", "exchange"))
    for r in feasible:
        assert r.method == "exact-linear"
        code = realize_code(r.pattern, r.coefficients, r.squares)
        assert verify_kl(code, errors, tol=0.0).correctable
        # the larger feasible patterns are the same code with unused weights
        extras = (r.pattern.word0 | r.pattern.word1) - {0, 5, 2, 7}
        assert all(r.squares[k] == 0 for k in extras)
        assert any("smaller pattern n=7 weights {0,5} / {2,7}" in note
                   for note in r.notes) == bool(extras)


def test_survey_eliminates_once_per_exact_pattern(monkeypatch):
    """Each pattern that reaches ``_solve_exact`` takes all its basic
    solutions from one ``_eliminate`` call, not one per column subset."""
    calls = Counter()

    def counted(name, module):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted("_eliminate", _linalg)
    counted("_solve_exact", codesearch)
    survey_patterns(7, 3)
    assert calls == {"_eliminate": 18, "_solve_exact": 18}


def test_two_weight_region_up_to_24_qubits():
    """The observed two-weight region (not a proof): for n = 2..24 the
    pattern {a, b} / {n-b, n-a}, a < b, is feasible exactly when
    2b >= n + 3 and a + b <= n - 2, so T(floor((n-5)/2)) rows are feasible
    (T(k) = k(k+1)/2, 0 for k < 1); no row is undecided and no
    single-weight row is feasible."""
    for n in range(2, 25):
        feasible = 0
        for r in survey_patterns(n, 2):
            assert r.method != "undecided", r.pattern.describe()
            if len(r.pattern.word0) == 1:
                assert not r.feasible, r.pattern.describe()
                continue
            a, b = sorted(r.pattern.word0)
            assert r.pattern.word1 == {n - b, n - a}
            assert r.feasible == (2 * b >= n + 3 and a + b <= n - 2), r.pattern.describe()
            feasible += r.feasible
        k = max((n - 5) // 2, 0)
        assert feasible == k * (k + 1) // 2, n


def test_survey_pairs_each_pattern_with_its_mirror():
    results = survey_patterns(4, max_weights=1)
    seen = {(tuple(sorted(r.pattern.word0)), tuple(sorted(r.pattern.word1))) for r in results}
    assert seen == {((0,), (4,)), ((1,), (3,))}  # weight 2 mirrors onto itself


@pytest.mark.parametrize(
    "survey", [survey_7bit, lambda: survey_patterns(9, 2)], ids=["n7", "n9"]
)
def test_survey_verdicts_are_exact(monkeypatch, survey):
    """No verdict touches float arithmetic: a feasible row has exact squares,
    an infeasible one an exact certificate, and a row the exact step cannot
    decide says so instead of offering numerical evidence."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the solver built a float code")

    monkeypatch.setattr(Code, "to_float", forbidden)
    monkeypatch.setattr(StateVector, "to_float", forbidden)
    for r in survey():
        lines = r.to_lines()
        assert not any("numerical evidence" in line for line in lines)
        if r.feasible:
            assert r.squares and all(isinstance(v, Fraction) for v in r.squares.values())
        elif "feasible: false" in lines:
            assert any(line.startswith("certificate: ") for line in lines)
        else:
            assert r.method == "undecided" and "feasible: undecided" in lines


def test_candidate_failing_the_gate_leaves_the_row_undecided(monkeypatch):
    """A sign choice the exact gate rejects certifies nothing: the pinned
    n=7 code becomes undecided, not infeasible."""
    monkeypatch.setattr(codesearch, "_gate", lambda *args: False)
    result = solve_coefficients(SupportPattern(7, {0, 5}, {2, 7}))
    assert not result.feasible
    assert result.method == "undecided"
    assert result.certificate is None and result.squares is None
    assert result.notes == (
        "a candidate whose sign choice makes every constraint vanish exactly "
        "failed full re-verification, and no other candidate works",
    )


def test_import_leaves_scipy_optimize_unloaded():
    """No scipy module is loaded by the import, by solves (feasible,
    undecided, underdetermined) or by the Shor exchange demo."""
    code = (
        "import sys, exqec\n"
        "exqec.solve_coefficients(exqec.SupportPattern(7, {0, 5}, {2, 7}))\n"
        "exqec.solve_coefficients(exqec.SupportPattern(5, {0, 1, 3}, {2, 4, 5}))\n"
        "exqec.solve_coefficients(exqec.SupportPattern(9, {0, 3}, {6, 9}), ('bitflip',))\n"
        "exqec.shor_exchange_demo()\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
