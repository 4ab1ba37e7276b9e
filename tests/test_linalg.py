from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimbasis import build_matrix, linalg
from conftest import pipe_matrix
from oracles import oracle_express, oracle_is_kernel_lattice_basis, oracle_rank

PIPE_ROWS = pipe_matrix().rows

F = Fraction


# ---------------------------------------------------------------- rank


def test_rank_pipe_matrix(pipe):
    assert linalg.rank(pipe.rows) == 3


def test_rank_zero_matrix():
    assert linalg.rank([[0]]) == 0


def test_rank_falling_body(falling_body):
    assert linalg.rank(falling_body.rows) == 2


@pytest.mark.parametrize("bad", [[], [[]], [[1], [1, 2]]])
def test_rank_rejects_malformed(bad):
    with pytest.raises(ValueError):
        linalg.rank(bad)


def test_rank_rejects_non_integer_entries():
    with pytest.raises(ValueError):
        linalg.rank([[1, 0.5]])


def test_rank_matches_determinant_oracle_seeded():
    rng = random.Random(20240817)
    for _ in range(150):
        m = rng.randint(1, 4)
        n = rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        cols = [tuple(rows[i][j] for i in range(m)) for j in range(n)]
        assert linalg.rank(rows) == oracle_rank(cols)


@st.composite
def structured_rows(draw, max_m, max_n):
    """Entries up to 10^6 in size, with zero rows and columns and rows that sum others."""
    m, n = draw(st.integers(1, max_m)), draw(st.integers(1, max_n))
    entries = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))
    rows = []
    for i in range(m):
        kind = draw(st.sampled_from(["drawn", "zero", "sum"] if i else ["drawn", "zero"]))
        if kind == "drawn":
            rows.append(draw(st.lists(entries, min_size=n, max_size=n)))
        elif kind == "zero":
            rows.append([0] * n)
        else:
            parts = draw(st.sets(st.integers(0, i - 1), min_size=1))
            rows.append([sum(rows[k][j] for k in parts) for j in range(n)])
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n - 1)):
        for row in rows:
            row[j] = 0
    return rows


@settings(max_examples=150, deadline=None)
@given(structured_rows(4, 6))
def test_rank_matches_determinant_oracle(rows):
    assert linalg.rank(rows) == oracle_rank(list(zip(*rows)))


@settings(max_examples=100, deadline=None)
@given(structured_rows(8, 12))
def test_rank_matches_fraction_echelon(rows):
    assert linalg.rank(rows) == len(linalg.kernel_basis(rows).pivot_columns)


def test_rank_and_build_matrix_do_no_fraction_arithmetic(monkeypatch, pipe):
    def no_fraction(*args):
        raise AssertionError("Fraction arithmetic on the rank path")

    monkeypatch.setattr(linalg, "Fraction", no_fraction)
    assert linalg.rank(pipe.rows) == 3
    assert build_matrix(pipe.system, pipe.quantities).rank == 3


# ---------------------------------------------------------------- kernel


def test_kernel_of_1x2_difference():
    basis = linalg.kernel_basis([[1, -1]])
    assert len(basis.vectors) == 1
    assert linalg.scale_to_primitive(basis.vectors[0]) == (1, 1)


def test_kernel_vectors_multiply_back_to_zero(falling_body):
    rows = falling_body.rows
    basis = linalg.kernel_basis(rows)
    assert len(basis.vectors) == 3
    for vector in basis.vectors:
        for row in rows:
            assert sum(r * x for r, x in zip(row, vector)) == 0


def test_kernel_of_full_column_rank_is_empty():
    basis = linalg.kernel_basis([[1, 0], [0, 1]])
    assert basis.vectors == ()
    assert basis.pivot_columns == (0, 1)
    assert basis.free_columns == ()


def test_kernel_reports_unit_entries_on_free_columns(pipe):
    basis = linalg.kernel_basis(pipe.rows)
    assert sorted(basis.free_columns + basis.pivot_columns) == list(range(5))
    for vector, free in zip(basis.vectors, basis.free_columns):
        assert vector[free] == 1
        for other in basis.free_columns:
            if other != free:
                assert vector[other] == 0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=1, max_size=5),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_kernel_membership_property(rows):
    basis = linalg.kernel_basis(rows)
    assert len(basis.vectors) == len(rows[0]) - linalg.rank(rows)
    for vector in basis.vectors:
        for row in rows:
            assert sum(r * x for r, x in zip(row, vector)) == 0


@st.composite
def deficient_rows(draw):
    """Up to 4x6 with entries in [-2, 2]; often a row is the sum of two others."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                         min_size=1, max_size=4))
    if len(rows) >= 3 and draw(st.booleans()):
        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
    return rows


@settings(max_examples=100, deadline=None)
@given(deficient_rows())
def test_kernel_basis_matches_determinant_oracle(rows):
    # The pivot columns, unit entries on the free columns and kernel membership
    # fix the kernel basis uniquely, whatever elimination computes it.
    columns = list(zip(*rows))
    pivots: list[int] = []
    for j, column in enumerate(columns):
        if oracle_rank([columns[c] for c in pivots] + [column]) > len(pivots):
            pivots.append(j)
    free = tuple(j for j in range(len(columns)) if j not in pivots)
    basis = linalg.kernel_basis(rows)
    assert (basis.pivot_columns, basis.free_columns) == (tuple(pivots), free)
    assert len(basis.vectors) == len(free)
    for vector, own in zip(basis.vectors, free):
        assert [vector[f] for f in free] == [int(f == own) for f in free]
        assert all(sum(a * x for a, x in zip(row, vector)) == 0 for row in rows)


# ---------------------------------------------------------------- primitive scaling


def test_primitive_scale_appendix_style_line():
    assert linalg.primitive_scale((F(-1, 2), F(1, 2), F(1))) == (1, -1, -2)


def test_primitive_scale_gcd_reduction():
    assert linalg.primitive_scale((2, 4, 6)) == (1, 2, 3)


def test_primitive_scale_sign_canonicalization():
    assert linalg.primitive_scale((0, -3, 6)) == (0, 1, -2)


def test_primitive_scale_rejects_zero_vector():
    with pytest.raises(ValueError):
        linalg.primitive_scale((0, 0, 0))


rational_vectors = st.lists(
    st.fractions(min_value=-8, max_value=8, max_denominator=12),
    min_size=1,
    max_size=6,
).filter(lambda v: any(v))


@settings(max_examples=100, deadline=None)
@given(rational_vectors)
def test_primitive_scale_idempotent(vector):
    once = linalg.primitive_scale(vector)
    assert linalg.primitive_scale(once) == once


@settings(max_examples=100, deadline=None)
@given(rational_vectors)
def test_primitive_scale_orientation_free(vector):
    flipped = [-x for x in vector]
    assert linalg.primitive_scale(vector) == linalg.primitive_scale(flipped)


@settings(max_examples=100, deadline=None)
@given(rational_vectors)
def test_primitive_scale_is_primitive_and_parallel(vector):
    ints = linalg.primitive_scale(vector)
    import math

    assert math.gcd(*(abs(x) for x in ints)) == 1
    assert next(x for x in ints if x) > 0
    # parallel: cross-ratios agree
    ratio = None
    for original, scaled in zip(vector, ints):
        if original:
            r = F(scaled) / F(original)
            assert ratio is None or r == ratio
            ratio = r
        else:
            assert scaled == 0


# ---------------------------------------------------------------- solving


def test_solve_velocity_in_density_viscosity_diameter(pipe):
    x = linalg.solve_in_basis(pipe.rows, (1, 2, 3), 4)
    assert x == (-1, 1, -1)
    cols = pipe.columns
    combined = [
        sum(coef * cols[j][i] for coef, j in zip(x, (1, 2, 3))) for i in range(3)
    ]
    assert tuple(combined) == cols[4]


def test_solve_identity_submatrix_scaled_target():
    rows = [[1, 0, 3], [0, 1, 0]]
    assert linalg.solve_in_basis(rows, (0, 1), 2) == (3, 0)


def test_solve_initial_position_in_velocity_gravity(falling_body):
    assert linalg.solve_in_basis(falling_body.rows, (2, 3), 1) == (2, -1)


def test_solve_rejects_dependent_basis():
    # Columns 0 and 1 are equal and the target lies in their span, so only the
    # independence check can refuse the basis.
    rows = [[1, 1, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(ValueError, match="^basis columns are not linearly independent$"):
        linalg.solve_in_basis(rows, (0, 1), 2)


def test_solve_rejects_wrong_cardinality(pipe):
    with pytest.raises(ValueError):
        linalg.solve_in_basis(pipe.rows, (1, 2), 4)


def test_solve_rejects_target_in_basis(pipe):
    with pytest.raises(ValueError):
        linalg.solve_in_basis(pipe.rows, (1, 2, 3), 2)


@pytest.mark.parametrize("rows, basis, target, message", [
    (PIPE_ROWS, (True, 2, 3), 4, "column index must be an integer, got True"),
    (PIPE_ROWS, (1, 2, 3), 4.0, "column index must be an integer, got 4.0"),
    (PIPE_ROWS, (1, 1, 2), 4, "basis columns contain duplicates"),
    (PIPE_ROWS, (1, 2, 9), 4, "column index 9 out of range for 5 columns"),
    # Columns 0 and 1 are equal, and the target is their multiple.
    ([[1, 1, 1, 0], [0, 0, 0, 1]], (0, 1), 2, "basis columns are not linearly independent"),
], ids=["bool basis column", "float target", "duplicate", "out of range", "dependent basis"])
def test_solve_error_messages(rows, basis, target, message):
    with pytest.raises(ValueError) as error:
        linalg.solve_in_basis(rows, basis, target)
    assert str(error.value) == message


@settings(max_examples=100, deadline=None)
@given(deficient_rows())
def test_solve_matches_cramer_oracle(rows):
    columns = list(zip(*rows))
    pivots: list[int] = []
    for j, column in enumerate(columns):
        if oracle_rank([columns[c] for c in pivots] + [column]) > len(pivots):
            pivots.append(j)
    for target in (j for j in range(len(columns)) if j not in pivots):
        expected = oracle_express([columns[c] for c in pivots], columns[target])
        assert linalg.solve_in_basis(rows, pivots, target) == expected


# ---------------------------------------------------------------- integer kernel lattice


def is_reduced_hermite(basis) -> bool:
    """Pivots (first nonzero entries) positive and moving right, other entries
    in each pivot's column in [0, pivot)."""
    pivots = [next(j for j, x in enumerate(v) if x) for v in basis]
    return pivots == sorted(set(pivots)) and all(
        basis[k][j] > 0 and all(0 <= v[j] < basis[k][j] for v in basis[:k])
        for k, j in enumerate(pivots)
    )


def test_integer_kernel_is_saturated():
    # Clearing denominators of the rational kernel basis of [[2, 1, 1]] spans
    # only an index-2 sublattice; the lattice basis must still reach (0, 1, -1).
    basis = linalg.integer_kernel_basis([[2, 1, 1]])
    assert basis == ((1, 0, -2), (0, 1, -1))
    assert oracle_is_kernel_lattice_basis([[2, 1, 1]], basis)
    cleared = [linalg.scale_to_primitive(v) for v in linalg.kernel_basis([[2, 1, 1]]).vectors]
    assert not oracle_is_kernel_lattice_basis([[2, 1, 1]], cleared)


@settings(max_examples=100, deadline=None)
@given(structured_rows(3, 6), st.data())
def test_integer_kernel_basis_properties(rows, data):
    basis = linalg.integer_kernel_basis(rows)
    assert oracle_is_kernel_lattice_basis(rows, basis)
    assert is_reduced_hermite(basis)
    # The form is canonical for the lattice, so unimodular row operations on
    # the matrix, which keep its kernel, keep the basis.
    i, j = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, len(rows) - 1))
    swapped = list(rows)
    swapped[i], swapped[j] = rows[j], rows[i]
    assert linalg.integer_kernel_basis(swapped) == basis
    if i != j:
        q = data.draw(st.integers(-5, 5))
        added = list(rows)
        added[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        assert linalg.integer_kernel_basis(added) == basis


# Seed 1 of the benchmark's column-major draw, 5 x 14 with entries in [-3, 3].
SEEDED_5X14 = [
    [-2, -3, 0, -2, 0, -3, 3, -3, -3, 2, 0, -2, -1, 2],
    [1, -1, 0, -3, 0, 2, -2, -3, 0, -3, 0, 2, -3, -3],
    [3, -3, 2, 0, 1, 0, 1, -3, 2, 1, 1, -2, 0, -2],
    [3, 0, 0, -3, 3, -1, -3, 2, -2, -2, -2, 3, 3, 2],
    [3, 3, 3, 3, 3, 2, -1, 1, 0, 3, -1, 0, 1, 2],
]


def test_seeded_5x14_hermite_basis():
    basis = linalg.integer_kernel_basis(SEEDED_5X14)
    assert [next(x for x in v if x) for v in basis] == [1, 1, 1, 1, 1, 1, 1, 7, 12]
    assert is_reduced_hermite(basis)
    assert max(abs(x) for v in basis for x in v) == 69
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in SEEDED_5X14 for v in basis)
