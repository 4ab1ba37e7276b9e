from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dimbasis import build_matrix, linalg
from oracles import oracle_rank

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
    assert linalg.rank(rows) == len(linalg._echelon(rows)[1])


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


def test_solve_rejects_dependent_basis(pipe):
    # S(t) and S0 columns are parallel in the falling-body matrix; here use
    # a duplicated column instead.
    rows = [[1, 1, 0], [2, 2, 1]]
    with pytest.raises(ValueError):
        linalg.solve_in_basis(rows, (0, 1), 2)


def test_solve_rejects_wrong_cardinality(pipe):
    with pytest.raises(ValueError):
        linalg.solve_in_basis(pipe.rows, (1, 2), 4)


def test_solve_rejects_target_in_basis(pipe):
    with pytest.raises(ValueError):
        linalg.solve_in_basis(pipe.rows, (1, 2, 3), 2)


# ---------------------------------------------------------------- span membership


def test_express_in_span_hits_and_misses():
    vectors = [(1, 0, 1), (0, 1, 1)]
    assert linalg.express_in_span(vectors, (2, 3, 5)) == (2, 3)
    assert linalg.express_in_span(vectors, (0, 0, 1)) is None


def test_express_in_span_empty_generators():
    assert linalg.express_in_span([], (0, 0)) == ()
    assert linalg.express_in_span([], (1, 0)) is None


def test_express_in_span_accepts_fractions():
    vectors = [(F(1, 2), 0), (0, F(1, 3))]
    assert linalg.express_in_span(vectors, (1, F(2, 3))) == (2, 2)


@st.composite
def independent_vectors(draw):
    """Up to 5 vectors of dimension up to 5, independent by the minor oracle."""
    dim = draw(st.integers(1, 5))
    k = draw(st.integers(0, dim))
    vector = st.tuples(*[st.integers(-3, 3)] * dim)
    vectors = draw(st.lists(vector, min_size=k, max_size=k))
    assume(oracle_rank(vectors) == k)
    return vectors, dim


@settings(max_examples=100, deadline=None)
@given(independent_vectors(), st.data())
def test_express_in_span_differential(case, data):
    vectors, dim = case
    k = len(vectors)
    coefficients = data.draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
    target = tuple(sum(c * v[i] for c, v in zip(coefficients, vectors)) for i in range(dim))
    assert linalg.express_in_span(vectors, target) == tuple(coefficients)
    # A unit vector that raises the rank moves the target off the span.
    units = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    for unit in units:
        if oracle_rank(vectors + [unit]) == k + 1:
            off = tuple(t + u for t, u in zip(target, unit))
            assert linalg.express_in_span(vectors, off) is None
            break
    # Appending the target makes the vectors dependent.
    with pytest.raises(ValueError, match="not linearly independent"):
        linalg.express_in_span(vectors + [target], target)


# ---------------------------------------------------------------- integer kernel lattice


def test_integer_kernel_is_saturated():
    # Clearing denominators of the rational kernel basis of [[2, 1, 1]] spans
    # only an index-2 sublattice; the lattice basis must still reach (0, 1, -1).
    basis = linalg.integer_kernel_basis([[2, 1, 1]])
    assert len(basis) == 2
    coeffs = linalg.express_in_span(basis, (0, 1, -1))
    assert coeffs is not None
    assert all(c.denominator == 1 for c in coeffs)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=1, max_size=5),
        min_size=1,
        max_size=3,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_integer_kernel_basis_properties(rows):
    basis = linalg.integer_kernel_basis(rows)
    assert len(basis) == len(rows[0]) - linalg.rank(rows)
    for vector in basis:
        for row in rows:
            assert sum(r * x for r, x in zip(row, vector)) == 0
    # every rational kernel basis vector lies in the rational span already;
    # saturation is what matters: scaled primitives must be integer combos
    for vector in linalg.kernel_basis(rows).vectors:
        primitive = linalg.scale_to_primitive(vector)
        coeffs = linalg.express_in_span(basis, primitive)
        assert coeffs is not None
        assert all(c.denominator == 1 for c in coeffs)
