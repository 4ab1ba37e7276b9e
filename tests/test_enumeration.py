from __future__ import annotations

import ast
import math
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimbasis import (
    BasisSet,
    CircuitSet,
    SizeLimitError,
    basis_set_invariants,
    circuit_basis,
    circuit_invariant,
    enumerate_basis_sets,
    enumerate_circuit_sets,
    equation_system,
    is_circuit_set,
    unified_basis,
)
import dimbasis
from dimbasis import enumeration, linalg
from dimbasis.model import _Value
from conftest import matrix_of
from oracles import (
    oracle_basis_set_invariants,
    oracle_basis_sets,
    oracle_circuit_basis,
    oracle_circuit_sets,
    oracle_unified_basis,
)

# Quantity order (dP/l, rho, mu, d, u). Canonical orientations of the five
# circuit invariant pairs of the turbulent pipe matrix.
PIPE_CIRCUIT_BASIS = {
    (1, 1, -2, 3, 0),   # (dP/l) rho d^3 / mu^2
    (1, -2, 1, 0, -3),  # (dP/l) mu / (rho^2 u^3)
    (1, -1, 0, 1, -2),  # (dP/l) d / (rho u^2)
    (1, 0, -1, 2, -1),  # (dP/l) d^2 / (mu u)
    (0, 1, -1, 1, 1),   # rho d u / mu  (Reynolds)
}


def test_pipe_has_ten_basis_sets(pipe):
    sets = enumerate_basis_sets(pipe)
    assert len(sets) == 10
    assert [b.indices for b in sets] == sorted(b.indices for b in sets)


def test_falling_body_basis_sets_exact_list(falling_body):
    sets = [b.indices for b in enumerate_basis_sets(falling_body)]
    assert sets == [
        (0, 2), (0, 3), (0, 4),
        (1, 2), (1, 3), (1, 4),
        (2, 3), (2, 4), (3, 4),
    ]


def test_two_body_basis_sets_match_brute_force(two_body):
    sets = [b.indices for b in enumerate_basis_sets(two_body)]
    assert len(sets) == 7
    assert sets == oracle_basis_sets(two_body)
    # the three subsets containing both masses are the rejected ones
    for subset in sets:
        assert not {2, 3}.issubset(subset)


def test_pipe_circuit_sets(pipe):
    circuits = [c.indices for c in enumerate_circuit_sets(pipe)]
    assert circuits == [
        (0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 4),
    ]


def test_two_column_difference_has_one_circuit():
    matrix = matrix_of(("X",), (("q1", (1,)), ("q2", (-1,))))
    assert [c.indices for c in enumerate_circuit_sets(matrix)] == [(0, 1)]


def test_zero_column_is_a_singleton_circuit():
    matrix = matrix_of(("L", "T"), (("a", (1, 0)), ("z", (0, 0))))
    circuits = [c.indices for c in enumerate_circuit_sets(matrix)]
    assert (1,) in circuits


def test_circuit_invariants_on_named_circuits(pipe, falling_body, two_body):
    reynolds = circuit_invariant(pipe, CircuitSet((1, 2, 3, 4)))
    assert reynolds.exponents == (0, 1, -1, 1, 1)

    start_circuit = circuit_invariant(falling_body, CircuitSet((1, 2, 3)))
    assert start_circuit.exponents == (0, 1, -2, 1, 0)  # S0 g / V0^2 pair

    mass_ratio = circuit_invariant(two_body, CircuitSet((2, 3)))
    assert mass_ratio.exponents == (0, 0, 1, -1, 0)  # m1 / m2 pair


def test_circuit_invariant_rejects_non_circuit(pipe):
    with pytest.raises(ValueError):
        circuit_invariant(pipe, CircuitSet((1, 2, 3)))  # independent set
    with pytest.raises(ValueError):
        circuit_invariant(pipe, CircuitSet((0, 1, 2, 3, 4)))  # not minimal


@pytest.mark.parametrize("subset", [(-4, -3, -2, -1), (1, 2, 3, 9), (5,)])
def test_circuit_test_rejects_indices_outside_the_quantities(pipe, subset):
    # Negative indices used to alias columns counted from the end, so the
    # first subset passed as the Reynolds circuit; 9 raised IndexError.
    bad = next(j for j in subset if not 0 <= j < 5)
    message = f"quantity index {bad} out of range for 5 quantities"
    with pytest.raises(ValueError, match=message):
        is_circuit_set(pipe, subset)
    with pytest.raises(ValueError, match=message):
        circuit_invariant(pipe, CircuitSet(subset))


def test_basis_set_invariants_rejects_indices_outside_the_quantities(pipe):
    with pytest.raises(ValueError, match="quantity index 9 out of range for 5 quantities"):
        basis_set_invariants(pipe, BasisSet((1, 2, 9)))


@pytest.mark.parametrize("subset, bad", [([True, 2], "True"), ([0.5], "0.5")])
def test_circuit_test_rejects_non_integer_indices(pipe, subset, bad):
    # True used to pass as column 1, and 0.5 raised TypeError.
    with pytest.raises(ValueError, match=f"^quantity index must be an integer, got {bad}$"):
        is_circuit_set(pipe, subset)


def test_circuit_test_of_empty_and_repeated_subsets(pipe):
    assert not is_circuit_set(pipe, ())
    assert not is_circuit_set(pipe, (1, 1))


def test_index_set_iterates_in_sorted_order():
    assert list(BasisSet((3, 0, 1))) == [0, 1, 3]


def test_circuit_test_runs_one_elimination_and_no_rank(pipe, monkeypatch):
    calls = []
    for name in ("rank", "kernel_basis"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name,
                            lambda rows, name=name, real=real: calls.append(name) or real(rows))
    subsets = [s for k in range(1, 6) for s in combinations(range(5), k)]
    circuits = [s for s in subsets if is_circuit_set(pipe, s)]
    for circuit in circuits:
        circuit_invariant(pipe, CircuitSet(circuit))
    assert len(circuits) == 5
    assert calls == ["kernel_basis"] * (len(subsets) + len(circuits))


@pytest.mark.parametrize("stage", [enumerate_circuit_sets, circuit_basis, unified_basis])
def test_circuit_scan_runs_one_elimination_per_subset(pipe, monkeypatch, stage):
    # 5 + 10 + 10 + 5 = 30 subsets; the pairs come with the scan, not from a
    # second elimination per circuit.
    calls = []
    real = linalg.kernel_basis
    monkeypatch.setattr(linalg, "kernel_basis", lambda rows: calls.append(1) or real(rows))
    assert len(stage(pipe)) == 5
    assert len(calls) == 30


def test_pipe_circuit_basis_exact_set(pipe):
    assert {p.exponents for p in circuit_basis(pipe)} == PIPE_CIRCUIT_BASIS


def test_falling_body_circuit_basis_has_eight_pairs(falling_body):
    assert len(circuit_basis(falling_body)) == 8


def test_two_body_circuit_basis(two_body):
    assert {p.exponents for p in circuit_basis(two_body)} == {
        (0, 0, 1, -1, 0),
        (2, -3, 1, 0, 1),
        (2, -3, 0, 1, 1),
    }


# ------------------------------------------------------- basis-set systems


def test_pipe_system_density_viscosity_diameter(pipe):
    system = basis_set_invariants(pipe, BasisSet((1, 2, 3)))
    assert [i.exponents for i in system.invariants] == [
        (1, 1, -2, 3, 0),
        (0, 1, -1, 1, 1),
    ]


def test_pipe_system_viscosity_diameter_velocity(pipe):
    system = basis_set_invariants(pipe, BasisSet((2, 3, 4)))
    assert [i.exponents for i in system.invariants] == [
        (1, 0, -1, 2, -1),
        (0, 1, -1, 1, 1),
    ]


def test_falling_body_system_initial_position_gravity(falling_body):
    system = basis_set_invariants(falling_body, BasisSet((1, 3)))
    assert [i.exponents for i in system.invariants] == [
        (1, -1, 0, 0, 0),    # S(t) / S0
        (0, -1, 2, -1, 0),   # V0^2 / (S0 g)
        (0, -1, 0, 1, 2),    # g t^2 / S0
    ]


def test_system_orientation_has_positive_exponent_on_owner(pipe):
    for basis in enumerate_basis_sets(pipe):
        system = basis_set_invariants(pipe, basis)
        non_basis = [j for j in range(5) if j not in basis]
        assert len(system.invariants) == 2
        for owner, invariant in zip(non_basis, system.invariants):
            assert invariant.exponents[owner] > 0
            for j, e in enumerate(invariant.exponents):
                if e and j != owner:
                    assert j in basis


def test_basis_set_invariants_rejects_non_basis(pipe):
    with pytest.raises(ValueError):
        basis_set_invariants(pipe, BasisSet((0, 1)))  # wrong size
    with pytest.raises(ValueError):
        basis_set_invariants(pipe, BasisSet((4,)))
    for out_of_range in ((1, 2, 5), (-1, 1, 2)):
        with pytest.raises(ValueError, match="out of range"):
            basis_set_invariants(pipe, BasisSet(out_of_range))


def test_basis_set_reduction_runs_one_elimination_and_no_rank_or_solve(pipe, monkeypatch):
    from dimbasis import representations

    calls = []
    for name in ("rank", "kernel_basis", "solve_in_basis"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name,
                            lambda *a, name=name, real=real: calls.append(name) or real(*a))
    system = basis_set_invariants(pipe, BasisSet((1, 2, 3)))
    assert len(system.invariants) == 2
    assert calls == ["kernel_basis"]
    representations.equation_system(pipe, 0)
    assert "solve_in_basis" not in calls


# ---------------------------------------------------------- unified basis


def test_pipe_unified_basis_equals_circuit_basis_as_pairs(pipe):
    unified = unified_basis(pipe)
    assert len(unified) == 5
    assert {i.exponents for i in unified} == PIPE_CIRCUIT_BASIS


def test_two_quantity_unified_basis_single_orientation():
    matrix = matrix_of(("X",), (("q1", (1,)), ("q2", (-1,))))
    assert [i.exponents for i in unified_basis(matrix)] == [(1, 1)]


def test_laminar_unified_basis_is_one_invariant(laminar):
    unified = unified_basis(laminar)
    assert [i.exponents for i in unified] == [(1, -1, 2, -1)]


def test_unified_subset_of_circuit_pairs(pipe, laminar, falling_body, two_body):
    for matrix in (pipe, laminar, falling_body, two_body):
        circuit_pairs = {p.exponents for p in circuit_basis(matrix)}
        assert unified_basis(matrix) == oracle_unified_basis(matrix)
        for invariant in unified_basis(matrix):
            assert invariant.exponents in circuit_pairs
            assert next(e for e in invariant.exponents if e) > 0  # canonical


@st.composite
def small_matrices(draw):
    """Up to 4x8 with entries in [-3, 3]; often a row is the sum of two others."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    entries = st.integers(-3, 3)
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    if m >= 3 and draw(st.booleans()):
        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
    return matrix_of(
        tuple(f"D{i}" for i in range(m)),
        tuple((f"q{j}", tuple(row[j] for row in rows)) for j in range(n)),
    )


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_unified_basis_matches_per_basis_set_union(matrix):
    assert unified_basis(matrix) == oracle_unified_basis(matrix)


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_basis_set_invariants_match_per_quantity_solves(matrix):
    n = len(matrix.quantities)
    for subset in (s for k in range(n + 1) for s in combinations(range(n), k)):
        try:
            expected = oracle_basis_set_invariants(matrix, subset)
        except ValueError:
            with pytest.raises(ValueError):
                basis_set_invariants(matrix, BasisSet(subset))
        else:
            assert basis_set_invariants(matrix, BasisSet(subset)).invariants == expected


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_circuit_scan_and_test_match_oracle(matrix):
    expected = oracle_circuit_sets(matrix)
    assert [c.indices for c in enumerate_circuit_sets(matrix)] == expected
    n = len(matrix.quantities)
    found = [s for k in range(1, n + 1) for s in combinations(range(n), k)
             if is_circuit_set(matrix, s)]
    assert sorted(found) == expected


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_circuit_basis_matches_per_circuit_derivation(matrix):
    assert circuit_basis(matrix) == oracle_circuit_basis(matrix)


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_circuit_basis_pairs_lie_on_their_circuits(matrix):
    circuits = enumerate_circuit_sets(matrix)
    pairs = circuit_basis(matrix)
    assert len(pairs) == len(circuits)
    for pair, circuit in zip(pairs, circuits):
        e = pair.exponents
        assert math.gcd(*e) == 1
        assert all(sum(a * x for a, x in zip(row, e)) == 0 for row in matrix.rows)
        assert {j for j, x in enumerate(e) if x} == set(circuit.indices)


def test_oracles_import_only_value_types_from_the_package():
    """The oracles check the engine, so they may not call it."""
    source = Path(__file__).with_name("oracles.py").read_text(encoding="utf-8")
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "dimbasis" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dimbasis"):
            assert node.module == "dimbasis"
            imported.extend(alias.name for alias in node.names)
    assert imported
    for name in imported:
        value = getattr(dimbasis, name)
        assert isinstance(value, type) and issubclass(value, _Value), name


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_oracle_invariants_hold_by_definition(matrix):
    """The Cramer's-rule oracles checked against the definitions alone."""
    def support(e):
        return {j for j, x in enumerate(e) if x}

    def in_kernel(e):
        return all(sum(a * x for a, x in zip(row, e)) == 0 for row in matrix.rows)

    circuits = oracle_circuit_sets(matrix)
    pairs = oracle_circuit_basis(matrix)
    assert len(pairs) == len(circuits)
    for pair, circuit in zip(pairs, circuits):
        e = pair.exponents
        assert in_kernel(e) and math.gcd(*e) == 1 and support(e) == set(circuit)
    n = len(matrix.quantities)
    for basis in oracle_basis_sets(matrix):
        owners = [i for i in range(n) if i not in basis]
        invariants = oracle_basis_set_invariants(matrix, basis)
        assert len(invariants) == len(owners)
        for i, invariant in zip(owners, invariants):
            e = invariant.exponents
            assert in_kernel(e) and e[i] > 0 and support(e) <= {*basis, i}


# -------------------------------------------------------------- properties


def test_circuit_minimality(pipe, falling_body):
    from oracles import oracle_subset_rank

    for matrix in (pipe, falling_body):
        for circuit in enumerate_circuit_sets(matrix):
            subset = circuit.indices
            assert oracle_subset_rank(matrix, subset) == len(subset) - 1
            for k in range(len(subset)):
                proper = subset[:k] + subset[k + 1 :]
                if proper:
                    assert oracle_subset_rank(matrix, proper) == len(proper)


def test_cardinality_bounds(pipe, laminar, falling_body, two_body):
    for matrix in (pipe, laminar, falling_body, two_body):
        n, r = len(matrix.quantities), matrix.rank
        size = len(circuit_basis(matrix))
        assert n - r <= size <= math.comb(n, r + 1)


def test_enumeration_matches_oracles_randomized():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        matrix = matrix_of(
            tuple(f"D{i}" for i in range(m)),
            tuple(
                (f"q{j}", tuple(rng.randint(-3, 3) for _ in range(m)))
                for j in range(n)
            ),
        )
        assert [b.indices for b in enumerate_basis_sets(matrix)] == oracle_basis_sets(matrix)
        assert [c.indices for c in enumerate_circuit_sets(matrix)] == oracle_circuit_sets(matrix)


def test_rank_zero_matrix_edge_cases():
    matrix = matrix_of(("L",), (("a", (0,)), ("b", (0,))))
    assert [b.indices for b in enumerate_basis_sets(matrix)] == [()]
    assert [c.indices for c in enumerate_circuit_sets(matrix)] == [(0,), (1,)]
    system = basis_set_invariants(matrix, BasisSet(()))
    assert [i.exponents for i in system.invariants] == [(1, 0), (0, 1)]
    assert [i.exponents for i in unified_basis(matrix)] == [(0, 1), (1, 0)]


def test_duplicate_columns_give_two_element_circuit():
    matrix = matrix_of(("L", "T"), (("a", (1, -1)), ("b", (1, -1)), ("c", (0, 1))))
    circuits = [c.indices for c in enumerate_circuit_sets(matrix)]
    assert (0, 1) in circuits


def test_subset_cap_is_inclusive(pipe, monkeypatch):
    # The pipe scan visits 5 + 10 + 10 + 5 = 30 subsets, its basis sets C(5, 3) = 10.
    monkeypatch.setattr(enumeration, "_MAX_SUBSETS", 30)
    assert len(enumerate_circuit_sets(pipe)) == 5
    monkeypatch.setattr(enumeration, "_MAX_SUBSETS", 29)
    assert len(enumerate_basis_sets(pipe)) == 10
    with pytest.raises(SizeLimitError, match="30 column subsets, exceeding the cap of 29"):
        enumerate_circuit_sets(pipe)


def test_largest_checked_inputs_are_under_the_subset_cap():
    # The ROADMAP cardinality rung 4 x 12 scans 1,585 subsets and its basis-set
    # reductions are charged C(12, 4) * 9 = 4,455 eliminations; a rank-6
    # 20-quantity scan (137,979 subsets) is the smallest refused at n <= 20.
    assert math.comb(12, 4) * (12 - 4 + 1) == 4455
    assert 4455 <= enumeration._MAX_SUBSETS < 137979
    rng = random.Random(1)
    rung = matrix_of("ABCD", [(f"q{j}", [rng.randint(-3, 3) for _ in "ABCD"]) for j in range(12)])
    assert rung.rank == 4
    enumeration._check_size(rung, "circuit scan", "basis-set enumeration", "basis-set reductions")


def test_size_cap_enforced(wide):
    # The library's only guards are the work budgets; a wide matrix of low
    # rank passes them all, whatever its quantity count.
    assert (len(wide.quantities), wide.rank) == (21, 2)
    assert [b.indices for b in enumerate_basis_sets(wide)] == oracle_basis_sets(wide)
    invariants = [p.exponents for p in circuit_basis(wide)]
    for rep in equation_system(wide, 0).representations:
        invariants.append(rep.dependent_invariant.exponents)
        invariants.extend(inv.exponents for inv in rep.active_invariants)
    assert invariants
    assert all(sum(a * x for a, x in zip(row, e)) == 0 for row in wide.rows for e in invariants)
