"""Textbook problems as fixtures, with counts pinned from the oracles.

Each problem's basis sets and circuits come from ``tests/oracles.py``, and its
Graver pairs from ``oracle_graver_completion(integer_kernel_basis(rows))``,
which holds both orientations of each pair. The command line must print as
many lines, and ``check`` must pass.
"""

from __future__ import annotations

import pytest

from dimbasis.linalg import integer_kernel_basis
from conftest import FIXTURE_DIR, fixture_matrix, run_main
from oracles import oracle_basis_sets, oracle_circuit_sets, oracle_graver_completion


@pytest.mark.parametrize("name, basis_sets, circuits, graver", [
    # A pendulum: the amplitude theta0 is dimensionless (a loop), and the mass
    # is alone in M, so no invariant holds it.
    ("pendulum", 3, 2, 2),
    # Forced convection with buoyancy over L, T, M, Theta: beta and dT are one
    # column up to sign. The reference completion takes about 30 s here, so its
    # count, 217, is pinned without rerunning it.
    ("convection", 133, 63, 217),
    # Joule heating of a wire over L, T, M, Theta, I.
    ("joule_heating", 34, 10, 15),
])
def test_physical_problem_counts(name, basis_sets, circuits, graver):
    matrix = fixture_matrix(name)
    assert len(oracle_basis_sets(matrix)) == basis_sets
    assert len(oracle_circuit_sets(matrix)) == circuits
    if name != "convection":
        assert len(oracle_graver_completion(integer_kernel_basis(matrix.rows))) == 2 * graver
    path = str(FIXTURE_DIR / f"{name}.dim")
    for command, lines in (("basis-sets", basis_sets), ("circuits", circuits), ("graver", graver)):
        code, out, err = run_main([command, "--input", path])
        assert (code, len(out.splitlines()), err) == (0, lines, b""), command
    assert run_main(["check", "--input", path])[0] == 0
