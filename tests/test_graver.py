from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimbasis import SizeLimitError, circuit_basis, conforms, graver, graver_basis, linalg
from dimbasis.problem import parse_problem
from conftest import FIXTURE_DIR, matrix_of, run_main
from oracles import oracle_box_minimal, oracle_graver_completion, oracle_normal_form


def single_row(*entries):
    return matrix_of(("X",), tuple((f"q{k+1}", (e,)) for k, e in enumerate(entries)))


def matrix_of_rows(rows):
    return matrix_of(tuple(f"D{i}" for i in range(len(rows))),
                     tuple((f"q{j}", col) for j, col in enumerate(zip(*rows))))


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


def test_conforms_refuses_vectors_of_unequal_length():
    for x, y in (((1, 2, 3), (1, 2)), ((1, 2), (1, 2, 3)), ((), (0,))):
        with pytest.raises(ValueError, match="^cannot compare vectors of lengths "):
            conforms(x, y)


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
    # The pipe-flow completion computes 15 normal forms, which scan 132 generators
    # in all, counting the list's length at each.
    monkeypatch.setattr("dimbasis.graver._MAX_GENERATOR_SCANS", 132)
    assert len(graver_basis(pipe)) == 5
    monkeypatch.setattr("dimbasis.graver._MAX_GENERATOR_SCANS", 131)
    with pytest.raises(SizeLimitError,
                       match=r"^Graver completion would scan more than 131 generators$"):
        graver_basis(pipe)


# Seeded matrices with entries in [-2, 2] (seed 3 of the benchmark's column-major
# draw) and their Graver pair counts. Their elements reach entries of 6 and 15,
# so a brute-force box of 13^6 or 31^6 points cannot check them.
SEEDED = {
    "2x6": ([[-1, 2, 0, 1, -2, -2], [2, -1, 2, 2, 2, 1]], 64),
    "3x6": ([[-1, -1, 1, 2, 0, -1], [2, 0, 2, -2, 2, 1], [2, 2, -2, 1, -1, 2]], 37),
}


@pytest.mark.parametrize("shape", sorted(SEEDED))
def test_completion_matches_two_orientation_reference(shape):
    rows, pairs = SEEDED[shape]
    completed = graver._completion(rows)
    assert completed == oracle_graver_completion(linalg.integer_kernel_basis(rows))
    assert len(completed) == 2 * pairs


# Seed 3, 3 x 7: the two-orientation reference takes over 20 s here, so the
# elements are checked against the definition instead.
SEEDED_3X7 = [[-1, -1, 1, 2, 0, -1, 2], [2, 0, 2, -2, 2, 1, 1], [2, 2, -2, 1, -1, 2, 1]]


def test_seeded_3x7_graver_basis():
    matrix = matrix_of_rows(SEEDED_3X7)
    pairs = graver_basis(matrix)
    assert len(pairs) == 201
    assert set(circuit_basis(matrix)) <= pairs
    elements = [g.exponents for g in pairs]
    elements += [tuple(-x for x in v) for v in elements]
    for v in elements:
        assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in SEEDED_3X7)
        assert math.gcd(*v) == 1
        assert not any(w != v and conforms(w, v) for w in elements)


def test_seeded_3x7_completion_budget_is_inclusive(monkeypatch):
    # The 3 x 7 matrix has no zero or repeated column, so the completion runs on
    # it as given: 33,718 normal forms charged 11,904,334 generator scans.
    matrix = matrix_of_rows(SEEDED_3X7)
    monkeypatch.setattr("dimbasis.graver._MAX_GENERATOR_SCANS", 11_904_334)
    assert len(graver_basis(matrix)) == 201
    monkeypatch.setattr("dimbasis.graver._MAX_GENERATOR_SCANS", 11_904_333)
    with pytest.raises(SizeLimitError,
                       match=r"^Graver completion would scan more than 11904333 generators$"):
        graver_basis(matrix)


@st.composite
def packed_reductions(draw):
    """A packed vector, a list of nonzero packed generators and the guard bits.

    Entries of the vector reach 9 and those of the generators 3, so several
    generators usually reduce the vector, some of them more than once.
    """
    n = draw(st.integers(1, 5))
    width = 5

    def vector(limit: int):
        return draw(st.lists(st.integers(-limit, limit), min_size=n, max_size=n))

    generators = [vector(3) for _ in range(draw(st.integers(0, 12)))]
    packed = [graver._pack(g, width) for g in generators if any(g)]
    return graver._pack(vector(9), width), packed, graver._guards(width, 2 * n)


@settings(max_examples=300, deadline=None)
@given(case=packed_reductions())
def test_one_pass_normal_form_matches_restarting_reference(case):
    a, generators, guards = case
    assert graver._normal_form(a, generators, guards) == oracle_normal_form(a, generators, guards)


def test_completion_matches_reference_on_fixtures(pipe, laminar, falling_body, two_body):
    for matrix in (pipe, laminar, falling_body, two_body):
        reference = oracle_graver_completion(linalg.integer_kernel_basis(matrix.rows))
        assert graver._completion(matrix.rows) == reference


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


def differential_rows(rng: random.Random) -> list[list[int]]:
    """A random m x n matrix, m <= 3 and n <= 6, with entries in [-2, 2].

    One in three has its last row the sum of the others (rank-deficient for
    m >= 2) and one in three a zero column.
    """
    m, n = rng.randint(1, 3), rng.randint(1, 6)
    rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
    if m > 1 and rng.random() < 1 / 3:
        rows[-1] = [sum(col) for col in zip(*rows[:-1])]
    if rng.random() < 1 / 3:
        zero = rng.randrange(n)
        for row in rows:
            row[zero] = 0
    return rows


_rng = random.Random(19)
# Edge cases besides the seeded draws: n = 1 (the box search's left half is
# empty), a zero matrix, repeated rows and a full-rank matrix.
DIFFERENTIAL = [
    [[0]], [[2]], [[1], [-1]], [[0, 0, 0]], [[1, -2, 2], [1, -2, 2]], [[1, 0], [0, 1]],
] + [differential_rows(_rng) for _ in range(60)]


def test_completion_matches_two_orientation_reference_on_random_matrices():
    for rows in DIFFERENTIAL:
        reference = oracle_graver_completion(linalg.integer_kernel_basis(rows))
        assert graver._completion(rows) == reference, rows


def test_box_search_matches_box_oracle_on_random_matrices():
    for rows in DIFFERENTIAL:
        for bound in (1, 2, 3) if len(rows[0]) <= 4 else (1, 2):
            assert graver._brute_force(rows, bound) == oracle_box_minimal(rows, bound), rows


# Matrices with entries in [-300, 300], a few large among small ones: random
# draws of 1 x 3 to 2 x 5, kept where the two-orientation reference finishes in
# well under a second. Their Graver elements reach entries of 149 to 51,554,
# past what the completion's starting field width of 8 bits holds (127).
WIDE = [
    [[-246, -219, -1]],
    [[2, -190, -159]],
    [[-104, -1, -289]],
    [[-269, 1, 0, -85]],
    [[123, 1, 0, 180]],
    [[-1, 2, -298], [-1, -173, 0]],
    [[-2, -69, -1], [-195, -2, -1]],
    [[-278, -2, 1, 0], [-1, 2, -2, 0]],
    [[0, 2, -2, -1], [-44, 1, -157, 0]],
    [[-1, -2, 1, -1], [20, 0, -1, 160]],
    [[-2, -1, -184, 0], [2, -1, 0, 29]],
    [[0, -225, -1, -80, 2], [0, 2, -1, 1, -1]],
    [[0, 0, -2, 0, 2], [-42, -275, 1, -1, -1]],
    [[-150, 2, 1, 2, -1], [1, -2, -1, 0, 1]],
    [[2, -1, -190, -2, 0], [-2, 0, 2, 2, 0]],
]


def test_completion_matches_reference_on_wide_entries():
    for rows in WIDE:
        completed = graver._completion(rows)
        assert completed == oracle_graver_completion(linalg.integer_kernel_basis(rows)), rows
        assert max(abs(x) for v in completed for x in v) > 127, rows


def test_box_search_matches_box_oracle_on_wide_entries():
    for rows in WIDE:
        for bound in (1, 2):
            assert graver._brute_force(rows, bound) == oracle_box_minimal(rows, bound), rows


def test_completion_from_the_least_field_width(pipe, laminar, falling_body, two_body, monkeypatch):
    # Each case is completed with the fields starting as narrow as its lattice
    # basis allows, so a sum that outgrows them widens them, and must give the
    # same Graver set as at the default width. 14 of the 87 cases widen, the
    # pipe among them; the other fixtures' sums never outgrow their bases.
    cases = [m.rows for m in (pipe, laminar, falling_body, two_body)]
    cases += WIDE + DIFFERENTIAL + [rows for rows, _ in SEEDED.values()]
    expected = [graver._completion(rows) for rows in cases]
    widths: list[int] = []
    pack = graver._pack
    monkeypatch.setattr("dimbasis.graver._pack", lambda v, width: widths.append(width) or pack(v, width))
    monkeypatch.setattr("dimbasis.graver._MIN_FIELD_WIDTH", 1)
    widened = []
    for rows, elements in zip(cases, expected):
        widths.clear()
        assert graver._completion(rows) == elements, rows
        widened.append(len(set(widths)) > 1)
    assert widened[0] and sum(widened) >= 10


def test_box_search_joins_halves_of_unlike_row_sums():
    # The left columns' row sums are 1 and 2, the right ones' 241 and 4: a join
    # that encodes the two halves' images differently loses these points.
    rows = [[0, 1, 120, -121, 0], [1, 1, 0, 1, -3]]
    for bound in (1, 2, 3):
        found = graver._brute_force(rows, bound)
        assert found == oracle_box_minimal(rows, bound)
        assert found


def test_box_search_keys_row_sums_next_to_a_power_of_two():
    # The search joins half-points on an integer key with one digit per row sum.
    # Each big row's entries sum to 2^p - 1, 2^p or 2^p + 1, next to a small row.
    # A point of the box brings the big row to the largest power of two not above
    # its largest reachable sum while the small row reads -1, so a digit base one
    # bit narrower than the row sums need joins that point as a kernel point.
    for p in (2, 5, 12, 40):
        for big in ([2 ** (p - 1), 0, 2 ** (p - 1) - 1, 0], [1, 0, 2**p - 1, 0], [2**p, 0, 1, 0]):
            small = [0, 1, 0, 0]
            for rows in ([big, small], [small, big]):
                for bound in (1, 2):
                    assert graver._brute_force(rows, bound) == oracle_box_minimal(rows, bound), rows


@st.composite
def repeated_column_rows(draw):
    """An m x n matrix, m <= 3 and n <= 6, entries in [-2, 2], with repeats.

    Up to three of its columns are copies of earlier ones, negated copies or
    zero columns, each put at a drawn place among the others.
    """
    m = draw(st.integers(1, 3))
    columns = draw(st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m),
                            min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, min(3, 6 - len(columns))))):
        source = draw(st.sampled_from(columns))
        column = draw(st.sampled_from([source, [-x for x in source], [0] * m]))
        columns.insert(draw(st.integers(0, len(columns))), column)
    return [list(row) for row in zip(*columns)]


def exponents(pairs) -> set[tuple[int, ...]]:
    return {p.exponents for p in pairs}


# The reference takes up to a few seconds on the largest of these draws (about
# 190 elements), so the draws are fewer than elsewhere.
@settings(max_examples=100, deadline=None)
@given(rows=repeated_column_rows())
@example(rows=[[0, 0, 0]])  # loops only: the simple matrix has no column
@example(rows=[[1, -1, 0, 1, 2], [2, -2, 0, 2, 1]])
def test_expansion_matches_reference_on_the_full_matrix(rows):
    # The reference completes the unsimplified matrix; both orientations of a
    # pair are in it, and the pair is read from the one with a positive lead.
    reference = oracle_graver_completion(linalg.integer_kernel_basis(rows))
    assert exponents(graver_basis(matrix_of_rows(rows))) == {
        v for v in reference if next(filter(None, v)) > 0
    }


@settings(max_examples=80, deadline=None)
@given(rows=repeated_column_rows(), data=st.data())
def test_graver_basis_follows_column_permutation_and_negation(rows, data):
    n = len(rows[0])
    pairs = exponents(graver_basis(matrix_of_rows(rows)))
    elements = pairs | {tuple(-x for x in v) for v in pairs}
    order = data.draw(st.permutations(range(n)))
    permuted = [[row[j] for j in order] for row in rows]
    assert exponents(graver_basis(matrix_of_rows(permuted))) == {
        w for w in (tuple(v[j] for j in order) for v in elements) if next(filter(None, w)) > 0
    }
    flip = data.draw(st.integers(0, n - 1))
    negated = [[-x if j == flip else x for j, x in enumerate(row)] for row in rows]
    assert exponents(graver_basis(matrix_of_rows(negated))) == {
        w for w in (tuple(-x if j == flip else x for j, x in enumerate(v)) for v in elements)
        if next(filter(None, w)) > 0
    }


PIPE_10 = FIXTURE_DIR / "pipe_10.dim"


def test_ten_quantity_pipe_graver_basis():
    # d, l, eps and h are all lengths: the completion runs on 7 columns and the
    # expansion shares each length exponent among the four of them.
    matrix = parse_problem(PIPE_10.read_text(encoding="utf-8")).matrix
    pairs = graver_basis(matrix)
    assert len(pairs) == 444
    assert set(circuit_basis(matrix)) <= pairs
    elements = exponents(pairs)
    both = elements | {tuple(-x for x in v) for v in elements}
    for v in elements:
        assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in matrix.rows)
        assert math.gcd(*v) == 1
        assert not any(w != v and conforms(w, v) for w in both)
    bounded = {v for v in elements if max(map(abs, v)) <= 1}
    assert exponents(graver_basis(matrix, "brute_force", bound=1)) == bounded
    code, out, err = run_main(["graver", "--input", str(PIPE_10)])
    assert (code, len(out.decode("utf-8").splitlines()), err) == (0, 444, b"")


def test_expansion_budget_is_inclusive(monkeypatch):
    matrix = parse_problem(PIPE_10.read_text(encoding="utf-8")).matrix
    monkeypatch.setattr("dimbasis.graver._MAX_EXPANDED_PAIRS", 444)
    assert len(graver_basis(matrix)) == 444
    monkeypatch.setattr("dimbasis.graver._MAX_EXPANDED_PAIRS", 443)
    with pytest.raises(SizeLimitError, match=r"^Graver expansion would build 444 pairs, "
                       r"exceeding the cap of 443$"):
        graver_basis(matrix)


def test_expansion_over_budget_exits_2(tmp_path):
    # One row [14, -1, ..., -1] with eight -1 columns: the simple matrix [14, -1]
    # has the one pair (1, 14), whose 14 splits among the eight in C(21, 7) ways,
    # besides the 28 pairs within the class: 116,308 pairs.
    path = tmp_path / "split.dim"
    path.write_text(json.dumps({
        "dimensions": ["L"],
        "quantities": [{"name": "a", "dims": [14]}]
        + [{"name": f"b{j}", "dims": [-1]} for j in range(8)],
    }))
    assert run_main(["graver", "--input", str(path)]) == (
        2, b"", b"error: Graver expansion would build 116308 pairs, exceeding the cap of 100000\n"
    )
