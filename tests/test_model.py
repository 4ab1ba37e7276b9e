from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimbasis import (
    DimensionSystem,
    Invariant,
    InvariantPair,
    Quantity,
    build_matrix,
    evaluate_invariant,
)
from conftest import matrix_of


def test_build_pipe_matrix(pipe):
    assert len(pipe.quantities) == 5
    assert pipe.system.size == 3
    assert pipe.rank == 3
    assert pipe.rows[0] == (-2, -3, -1, 1, 1)
    assert pipe.columns[4] == (1, -1, 0)
    assert pipe.index_of("mu") == 2


def test_dimensionless_quantity_gives_rank_zero():
    matrix = matrix_of(("L", "T"), (("k", (0, 0)),))
    assert matrix.rank == 0


def test_duplicate_names_rejected():
    system = DimensionSystem(("L",))
    with pytest.raises(ValueError, match="duplicate"):
        build_matrix(system, (Quantity("a", (1,)), Quantity("a", (2,))))


def test_dims_length_mismatch_rejected():
    system = DimensionSystem(("L", "T"))
    with pytest.raises(ValueError, match="exponents"):
        build_matrix(system, (Quantity("a", (1,)),))


def test_quantity_name_validation():
    Quantity("S(t)", (1,))
    Quantity("dP/l", (1,))
    with pytest.raises(ValueError):
        Quantity("bad name", (1,))
    with pytest.raises(ValueError):
        Quantity("a,b", (1,))


def test_dimension_system_validation():
    with pytest.raises(ValueError):
        DimensionSystem(())
    with pytest.raises(ValueError):
        DimensionSystem(("L", "L"))
    with pytest.raises(ValueError):
        DimensionSystem(("2L",))


# ---------------------------------------------------------------- invariants


def test_invariant_rejects_zero_and_non_primitive():
    with pytest.raises(ValueError):
        Invariant((0, 0))
    with pytest.raises(ValueError):
        Invariant((2, 4))


def test_invariant_pair_identity():
    a = InvariantPair(Invariant((0, 1, -1, 1, 1)))
    b = InvariantPair(Invariant((0, -1, 1, -1, -1)))
    assert a == b
    assert a.exponents == (0, 1, -1, 1, 1)
    assert len({a, b}) == 1


def test_reynolds_support(pipe):
    reynolds = Invariant((0, 1, -1, 1, 1))
    assert reynolds.support == {1, 2, 3, 4}
    assert {pipe.names[j] for j in reynolds.support} == {"rho", "mu", "d", "u"}


def test_unit_invariant_support_is_singleton():
    assert Invariant((0, 1, 0)).support == {1}


def test_embedded_displacement_invariant_support(falling_body):
    inv = Invariant((1, 0, 0, -1, -2))
    assert len(inv.support) == 3


# ---------------------------------------------------------------- evaluation


def test_evaluate_all_ones():
    assert evaluate_invariant(Invariant((1, -2, 3)), (1.0, 1.0, 1.0)) == 1.0


def test_evaluate_reynolds_hand_check():
    # rho*d*u/mu at (rho, mu, d, u) = (2, 4, 3, 6): 2*3*6/4 = 9
    reynolds = Invariant((0, 1, -1, 1, 1))
    assert evaluate_invariant(reynolds, (7.0, 2.0, 4.0, 3.0, 6.0)) == pytest.approx(9.0)


def test_evaluate_rejects_nonpositive_values():
    inv = Invariant((1, 1))
    with pytest.raises(ValueError):
        evaluate_invariant(inv, (1.0, 0.0))
    with pytest.raises(ValueError):
        evaluate_invariant(inv, (1.0, -2.0))


def test_evaluate_rejects_length_mismatch():
    with pytest.raises(ValueError):
        evaluate_invariant(Invariant((1, 1)), (1.0,))


def test_unit_rescaling_invariance(pipe):
    """Scaling the base units must not move any invariant's value."""
    from dimbasis import circuit_basis

    rng = random.Random(7)
    values = [rng.uniform(0.5, 2.0) for _ in pipe.quantities]
    for pair in circuit_basis(pipe):
        reference = evaluate_invariant(pair.canonical, values)
        for _ in range(10):
            scales = [rng.uniform(0.5, 2.0) for _ in pipe.system.names]
            scaled = [
                v * prod(s**a for s, a in zip(scales, q.dims))
                for v, q in zip(values, pipe.quantities)
            ]
            rescaled = evaluate_invariant(pair.canonical, scaled)
            assert rescaled == pytest.approx(reference, rel=1e-9)


def prod(items):
    result = 1.0
    for x in items:
        result *= x
    return result


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=2, max_size=5).filter(any),
    st.integers(0, 2**32 - 1),
)
def test_kernel_invariants_evaluate_invariantly(dims_column, seed):
    """Random single-dimension matrices: every circuit invariant is unit-free."""
    from dimbasis import circuit_basis

    matrix = matrix_of(
        ("D",), tuple((f"q{k}", (d,)) for k, d in enumerate(dims_column))
    )
    rng = random.Random(seed)
    values = [rng.uniform(0.5, 2.0) for _ in dims_column]
    scale = rng.uniform(0.25, 4.0)
    for pair in circuit_basis(matrix):
        scaled = [v * scale**d for v, d in zip(values, dims_column)]
        assert evaluate_invariant(pair.canonical, scaled) == pytest.approx(
            evaluate_invariant(pair.canonical, values), rel=1e-9
        )
