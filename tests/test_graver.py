from __future__ import annotations

import random

import pytest

from dimbasis import SizeLimitError, circuit_basis, conforms, graver_basis
from conftest import matrix_of


def single_row(*entries):
    return matrix_of(("X",), tuple((f"q{k+1}", (e,)) for k, e in enumerate(entries)))


def test_graver_of_1_2_1():
    matrix = single_row(1, 2, 1)
    assert {g.exponents for g in graver_basis(matrix)} == {
        (2, -1, 0),
        (1, 0, -1),
        (0, 1, -2),
        (1, -1, 1),
    }


def test_graver_of_two_column_difference():
    matrix = single_row(1, -1)
    assert {g.exponents for g in graver_basis(matrix)} == {(1, 1)}
    assert {g.exponents for g in graver_basis(matrix, "brute_force", bound=1)} == {(1, 1)}


def test_pipe_graver_contains_all_circuit_tuples(pipe):
    graver = {g.exponents for g in graver_basis(pipe, "brute_force", bound=3)}
    circuits = {p.exponents for p in circuit_basis(pipe)}
    assert circuits <= graver


def test_methods_agree_on_fixture_matrices(pipe, laminar, falling_body, two_body):
    for matrix in (pipe, laminar, falling_body, two_body):
        completed = graver_basis(matrix)
        max_entry = max(
            (abs(e) for g in completed for e in g.exponents), default=0
        )
        brute = graver_basis(matrix, "brute_force", bound=max(max_entry, 1))
        assert completed == brute


def test_conforms_partial_order():
    assert conforms((1, 0, -1), (2, 0, -3))
    assert not conforms((1, 0, -1), (2, 0, 3))  # sign clash
    assert not conforms((3, 0, -1), (2, 0, -3))  # magnitude
    assert conforms((0, 0), (5, -7))


def test_graver_elements_are_pairwise_minimal_kernel_vectors(falling_body):
    rows = falling_body.rows
    elements = sorted(g.exponents for g in graver_basis(falling_body))
    for vector in elements:
        for row in rows:
            assert sum(r * x for r, x in zip(row, vector)) == 0
    for v in elements:
        for w in elements:
            if v != w:
                assert not conforms(w, v)
                # the flipped orientation must not dominate either
                assert not conforms(tuple(-x for x in w), v)


def test_check_reports_non_circuit_witnesses():
    matrix = single_row(1, 2, 1)
    circuits, elements = set(circuit_basis(matrix)), graver_basis(matrix)
    assert circuits <= elements
    assert [p.exponents for p in elements - circuits] == [(1, -1, 1)]


def test_check_trivial_case_has_no_witnesses():
    matrix = single_row(1, -1)
    assert set(circuit_basis(matrix)) == graver_basis(matrix)


def test_check_falling_body_with_completion(falling_body):
    assert set(circuit_basis(falling_body)) <= graver_basis(falling_body)


def test_graver_method_validation(pipe, wide):
    for bound in (None, 0, -1):
        with pytest.raises(ValueError, match="^brute-force bound must be at least 1$"):
            graver_basis(pipe, "brute_force", bound=bound)
    for bound in (1.5, "2", True):
        with pytest.raises(ValueError, match="^brute-force bound must be an integer, got "):
            graver_basis(pipe, "brute_force", bound=bound)
    for bound in (7, 0):
        with pytest.raises(ValueError, match=f"^the completion method takes no bound, got {bound}"):
            graver_basis(pipe, "completion", bound=bound)
    with pytest.raises(ValueError):
        graver_basis(pipe, "newton")
    with pytest.raises(SizeLimitError, match=r"^brute-force box has 3\^21 points, "):
        graver_basis(wide, "brute_force", bound=1)


def test_brute_force_box_cap(pipe, monkeypatch):
    with pytest.raises(SizeLimitError, match=r"^brute-force box has 2001\^5 points, "
                       r"exceeding the cap of 1000000$"):
        graver_basis(pipe, "brute_force", bound=1000)
    # The cap is inclusive: a box of exactly MAX_BOX_POINTS points still runs.
    monkeypatch.setattr("dimbasis.graver.MAX_BOX_POINTS", 3**5)
    assert graver_basis(pipe, "brute_force", bound=1)
    with pytest.raises(SizeLimitError):
        graver_basis(pipe, "brute_force", bound=2)


def test_completion_budget_is_inclusive(pipe, monkeypatch):
    # The pipe-flow completion computes 45 normal forms.
    monkeypatch.setattr("dimbasis.graver._MAX_NORMAL_FORMS", 45)
    assert len(graver_basis(pipe)) == 5
    monkeypatch.setattr("dimbasis.graver._MAX_NORMAL_FORMS", 44)
    with pytest.raises(SizeLimitError,
                       match=r"^Graver completion would compute more than 44 normal forms$"):
        graver_basis(pipe)


def test_graver_of_saturation_sensitive_matrix():
    # The rational kernel basis of [[2, 1, 1]] clears to an index-2
    # sublattice; a correct Graver computation still finds (0, 1, -1).
    matrix = single_row(2, 1, 1)
    completed = {g.exponents for g in graver_basis(matrix)}
    assert completed == {g.exponents for g in graver_basis(matrix, "brute_force", bound=2)}
    assert (0, 1, -1) in completed


def test_methods_agree_on_random_small_matrices():
    rng = random.Random(99)
    for _ in range(25):
        m = rng.randint(1, 2)
        n = rng.randint(2, 4)
        matrix = matrix_of(
            tuple(f"D{i}" for i in range(m)),
            tuple(
                (f"q{j}", tuple(rng.randint(-2, 2) for _ in range(m)))
                for j in range(n)
            ),
        )
        completed = graver_basis(matrix)
        max_entry = max((abs(e) for g in completed for e in g.exponents), default=0)
        brute = graver_basis(matrix, "brute_force", bound=max_entry + 1)
        assert completed == brute
