"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line
(visible with ``pytest -s`` or on failure). All comparisons are exact except
the explicitly stated 1e-9 relative tolerance for numerical unit-rescaling
invariance.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dimbasis import (
    BasisSet,
    basis_set_invariants,
    circuit_basis,
    enumerate_basis_sets,
    enumerate_circuit_sets,
    equation_system,
    evaluate_invariant,
    graver_basis,
    unified_basis,
)
from conftest import (
    CLI_GOLDEN,
    FIXTURE_DIR,
    falling_body_matrix,
    laminar_matrix,
    matrix_of,
    pipe_matrix,
    run_main,
    two_body_matrix,
)
from oracles import oracle_basis_sets, oracle_circuit_sets

F = Fraction


def criterion(number: int, description: str):
    """Decorator printing one pass/fail line per acceptance criterion."""

    def wrap(fn):
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"acceptance {number}: FAIL - {description}")
                raise
            print(f"acceptance {number}: PASS - {description}")

        run.__name__ = fn.__name__
        return run

    return wrap


# Quantity order (dP/l, rho, mu, d, u): the displayed two-invariant system of
# every pipe-flow basis set, each invariant oriented with a positive exponent
# on its non-basis quantity.
PIPE_SYSTEMS = {
    (0, 1, 2): [(1, 1, -2, 3, 0), (-1, 2, -1, 0, 3)],
    (0, 1, 3): [(-1, -1, 2, -3, 0), (-1, 1, 0, -1, 2)],
    (0, 1, 4): [(1, -2, 1, 0, -3), (1, -1, 0, 1, -2)],
    (0, 2, 3): [(1, 1, -2, 3, 0), (-1, 0, 1, -2, 1)],
    (0, 2, 4): [(-1, 2, -1, 0, 3), (1, 0, -1, 2, -1)],
    (0, 3, 4): [(-1, 1, 0, -1, 2), (-1, 0, 1, -2, 1)],
    (1, 2, 3): [(1, 1, -2, 3, 0), (0, 1, -1, 1, 1)],
    (1, 2, 4): [(1, -2, 1, 0, -3), (0, 1, -1, 1, 1)],
    (1, 3, 4): [(1, -1, 0, 1, -2), (0, -1, 1, -1, -1)],
    (2, 3, 4): [(1, 0, -1, 2, -1), (0, 1, -1, 1, 1)],
}

PIPE_CIRCUIT_BASIS = {
    (1, 1, -2, 3, 0),
    (1, -2, 1, 0, -3),
    (1, -1, 0, 1, -2),
    (1, 0, -1, 2, -1),
    (0, 1, -1, 1, 1),
}


def canonical(vector):
    first = next(e for e in vector if e)
    return vector if first > 0 else tuple(-e for e in vector)


@criterion(1, "summary table (n, r, n-r, circuit-basis size, upper bound)")
def test_criterion_1_summary_table():
    expected = [
        (pipe_matrix(), 5, 3, 2, 5, 5),
        (laminar_matrix(), 4, 3, 1, 1, 1),
        (falling_body_matrix(), 5, 2, 3, 8, 10),
        (two_body_matrix(), 5, 3, 2, 3, 5),
    ]
    for matrix, n, r, n_minus_r, size, upper in expected:
        assert len(matrix.quantities) == n
        assert matrix.rank == r
        assert n - r == n_minus_r
        assert len(circuit_basis(matrix)) == size
        assert math.comb(n, r + 1) == upper


@criterion(2, "pipe-flow basis sets, per-basis systems, circuit and unified bases")
def test_criterion_2_pipe_golden():
    pipe = pipe_matrix()
    bases = enumerate_basis_sets(pipe)
    assert [b.indices for b in bases] == sorted(PIPE_SYSTEMS)
    for basis in bases:
        system = basis_set_invariants(pipe, basis)
        produced = [inv.exponents for inv in system.invariants]
        expected = PIPE_SYSTEMS[basis.indices]
        assert {canonical(v) for v in produced} == {canonical(v) for v in expected}
        assert produced == expected  # b > 0 orientation reproduces the table
    assert {p.exponents for p in circuit_basis(pipe)} == PIPE_CIRCUIT_BASIS
    assert {i.exponents for i in unified_basis(pipe)} == PIPE_CIRCUIT_BASIS


@criterion(3, "representation prefactors for the three worked relations")
def test_criterion_3_representations():
    pipe = pipe_matrix()
    reps = equation_system(pipe, 0).representations
    assert [dict(r.scaling) for r in reps] == [
        {1: -1, 2: 2, 3: -3},   # rho^-1 mu^2 d^-3
        {1: 2, 2: -1, 4: 3},    # rho^2 mu^-1 u^3
        {1: 1, 3: -1, 4: 2},    # rho d^-1 u^2
        {2: 1, 3: -2, 4: 1},    # mu d^-2 u
    ]

    falling = falling_body_matrix()
    reps = equation_system(falling, 0, (4,)).representations
    assert len(reps) == 3
    assert [dict(r.scaling) for r in reps] == [{1: 1}, {1: 1}, {2: 2, 3: -1}]
    assert [[a.exponents for a in r.active_invariants] for r in reps] == [
        [(0, 1, -2, 1, 0), (0, -1, 1, 0, 1)],
        [(0, -1, 2, -1, 0), (0, -1, 0, 1, 2)],
        [(0, 1, -2, 1, 0), (0, 0, -1, 1, 1)],
    ]

    two_body = two_body_matrix()
    reps = equation_system(two_body, 0).representations
    assert len(reps) == 2
    squared = [
        {j: e * r.dependent_invariant.exponents[0] for j, e in r.scaling}
        for r in reps
    ]
    assert squared == [{1: 3, 2: -1, 4: -1}, {1: 3, 3: -1, 4: -1}]
    assert [[a.exponents for a in r.active_invariants] for r in reps] == [
        [(0, 0, -1, 1, 0)],
        [(0, 0, 1, -1, 0)],
    ]


# The eight (name, exponent) result rows of the reference kernel-enumeration
# script on the falling-body matrix, exactly as emitted (rational entries
# included); quantity order (S(t), S0, V0, g, t).
SCRIPT_ROWS = [
    {"S(t)": -1, "S0": 1},
    {"S(t)": 1, "V0": -2, "g": 1},
    {"S(t)": -1, "V0": 1, "t": 1},
    {"S(t)": F(-1, 2), "g": F(1, 2), "t": 1},
    {"S0": 1, "V0": -2, "g": 1},
    {"S0": -1, "V0": 1, "t": 1},
    {"S0": F(-1, 2), "g": F(1, 2), "t": 1},
    {"V0": -1, "g": 1, "t": 1},
]


@criterion(4, "falling-body circuit enumeration matches the script output")
def test_criterion_4_script_equivalence():
    from dimbasis import linalg

    falling = falling_body_matrix()
    circuits = enumerate_circuit_sets(falling)
    assert len(circuits) == 8

    names = falling.names
    normalized = set()
    for row in SCRIPT_ROWS:
        dense = tuple(F(row.get(name, 0)) for name in names)
        normalized.add(linalg.primitive_scale(dense))
    produced = {pair.exponents for pair in circuit_basis(falling)}
    assert produced == normalized
    # supports line up with the enumerated circuit sets
    assert {tuple(sorted(j for j, e in enumerate(v) if e)) for v in normalized} == {
        c.indices for c in circuits
    }


@criterion(5, "Graver bases: exact set, circuit containment, method agreement")
def test_criterion_5_graver():
    d121 = matrix_of(("X",), (("q1", (1,)), ("q2", (2,)), ("q3", (1,))))
    assert {g.exponents for g in graver_basis(d121)} == {
        (2, -1, 0),
        (1, 0, -1),
        (0, 1, -2),
        (1, -1, 1),
    }
    fixtures = [pipe_matrix(), laminar_matrix(), falling_body_matrix(), two_body_matrix()]
    for matrix in fixtures + [d121]:
        assert len(matrix.quantities) <= 5
        completed = graver_basis(matrix)
        assert set(circuit_basis(matrix)) <= completed
        brute = graver_basis(matrix, "brute_force", bound=4)
        assert completed == brute


@criterion(6, "brute-force property suite over 200 random matrices")
def test_criterion_6_random_property_suite():
    rng = random.Random(60221023)
    for _ in range(200):
        m = rng.randint(1, 3)
        n = rng.randint(1, 6)
        matrix = matrix_of(
            tuple(f"D{i}" for i in range(m)),
            tuple(
                (f"q{j}", tuple(rng.randint(-3, 3) for _ in range(m)))
                for j in range(n)
            ),
        )
        r = matrix.rank
        rows = matrix.rows

        basis_sets = enumerate_basis_sets(matrix)
        assert [b.indices for b in basis_sets] == oracle_basis_sets(matrix)
        circuits = enumerate_circuit_sets(matrix)
        assert [c.indices for c in circuits] == oracle_circuit_sets(matrix)

        pairs = circuit_basis(matrix)
        emitted = [p.canonical for p in pairs]
        for basis in basis_sets:
            system = basis_set_invariants(matrix, basis)
            assert len(system.invariants) == n - r
            non_basis = [j for j in range(n) if j not in basis]
            for owner, inv in zip(non_basis, system.invariants):
                assert inv.exponents[owner] > 0
                assert all(
                    j == owner or j in basis
                    for j, e in enumerate(inv.exponents)
                    if e
                )
            emitted.extend(system.invariants)
        emitted.extend(unified_basis(matrix))
        for inv in emitted:
            assert math.gcd(*(abs(e) for e in inv.exponents)) == 1
            for row in rows:
                assert sum(a * e for a, e in zip(row, inv.exponents)) == 0

        assert n - r <= len(pairs) <= math.comb(n, r + 1)

        values = [rng.uniform(0.5, 2.0) for _ in range(n)]
        for pair in pairs:
            reference = evaluate_invariant(pair.canonical, values)
            for _ in range(10):
                scales = [rng.uniform(0.5, 2.0) for _ in range(m)]
                scaled = [
                    v * math.prod(s**a for s, a in zip(scales, q.dims))
                    for v, q in zip(values, matrix.quantities)
                ]
                assert evaluate_invariant(pair.canonical, scaled) == pytest.approx(
                    reference, rel=1e-9
                )


def _run_cli(args: list[str]) -> bytes:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "dimbasis", *args],
        capture_output=True,
        env=env,
        check=True,
    )
    return result.stdout


@criterion(7, "byte-identical CLI output across repeated runs, all formats")
def test_criterion_7_cli_determinism():
    # Real process pairs on pipe.dim, both commands, every format. The other
    # fixtures run twice in-process; every output must also equal the
    # benchmark golden, which a separate process wrote at an earlier commit,
    # so a difference between processes still shows.
    fixtures = ["pipe.dim", "laminar.dim", "falling_body.dim", "two_body.dim"]
    for filename in fixtures:
        path = str(FIXTURE_DIR / filename)
        for command in ("circuit-basis", "representations"):
            for fmt in ("text", "latex", "json"):
                args = [command, "--input", path, "--format", fmt]
                if filename == "pipe.dim":
                    first, second = _run_cli(args), _run_cli(args)
                else:
                    (code1, first, _), (code2, second, _) = run_main(args), run_main(args)
                    assert code1 == code2 == 0
                golden = CLI_GOLDEN[f"{filename} {command} {fmt}"]["stdout"]
                assert first == second == golden.encode("utf-8")
                assert first  # nonempty output
