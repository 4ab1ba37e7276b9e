from __future__ import annotations

import random
from fractions import Fraction

import pytest

from dimbasis import (
    BasisSet,
    admissible_basis_sets,
    build_representation,
    equation_system,
    express_dependent_invariant,
)
from conftest import matrix_of
from oracles import evaluate_invariant

F = Fraction


def scaling_as_dict(rep):
    return {j: e for j, e in rep.scaling}


def test_admissible_pipe_dependent_pressure(pipe):
    bases = admissible_basis_sets(pipe, 0)
    assert [b.indices for b in bases] == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]


def test_admissible_falling_body_excluding_time(falling_body):
    bases = admissible_basis_sets(falling_body, 0, (4,))
    assert [b.indices for b in bases] == [(1, 2), (1, 3), (2, 3)]


def test_admissible_two_body_dependent_period(two_body):
    bases = admissible_basis_sets(two_body, 0)
    assert [b.indices for b in bases] == [(1, 2, 4), (1, 3, 4)]


def test_admissible_validates_roles(pipe):
    with pytest.raises(ValueError):
        admissible_basis_sets(pipe, 9)
    with pytest.raises(ValueError):
        admissible_basis_sets(pipe, 0, (0,))
    with pytest.raises(ValueError):
        admissible_basis_sets(pipe, 0, (17,))


# ----------------------------------------------------------- single builds


def test_pipe_representation_density_diameter_velocity(pipe):
    rep = build_representation(pipe, 0, BasisSet((1, 3, 4)))
    assert scaling_as_dict(rep) == {1: 1, 3: -1, 4: 2}  # rho u^2 / d
    assert rep.dependent_invariant.exponents == (1, -1, 0, 1, -2)
    assert [a.exponents for a in rep.active_invariants] == [(0, -1, 1, -1, -1)]


def test_laminar_representation_has_constant_function(laminar):
    rep = build_representation(laminar, 0, BasisSet((1, 2, 3)))
    assert scaling_as_dict(rep) == {1: 1, 2: -2, 3: 1}  # mu u / d^2
    assert rep.active_invariants == ()


def test_two_body_representation_fractional_prefactor(two_body):
    rep = build_representation(two_body, 0, BasisSet((1, 2, 4)))
    assert scaling_as_dict(rep) == {1: F(3, 2), 2: F(-1, 2), 4: F(-1, 2)}
    assert [a.exponents for a in rep.active_invariants] == [(0, 0, -1, 1, 0)]


def test_build_rejects_basis_containing_dependent(pipe):
    with pytest.raises(ValueError):
        build_representation(pipe, 0, BasisSet((0, 1, 2)))


@pytest.mark.parametrize("dependent", [7, -1])
def test_build_rejects_dependent_outside_the_quantities(pipe, dependent):
    # Both used to end in a bare AssertionError.
    with pytest.raises(ValueError, match=f"dependent index {dependent} out of range for 5"):
        build_representation(pipe, dependent, BasisSet((1, 2, 3)))


# ---------------------------------------------------------------- systems


def test_pipe_equation_system(pipe):
    system = equation_system(pipe, 0)
    assert system.warning is None
    assert [rep.function_name for rep in system.representations] == [
        "Phi_1", "Phi_2", "Phi_3", "Phi_4",
    ]
    prefactors = [scaling_as_dict(rep) for rep in system.representations]
    assert prefactors == [
        {1: -1, 2: 2, 3: -3},
        {1: 2, 2: -1, 4: 3},
        {1: 1, 3: -1, 4: 2},
        {2: 1, 3: -2, 4: 1},
    ]


def test_reductions_are_charged_for_admissible_subsets_only(pipe, monkeypatch):
    from dimbasis import SizeLimitError, enumeration

    # C(5, 3) = 10 basis subsets under the cap; of them C(4, 3) = 4 avoid the
    # dependent quantity, and each is charged n - r + 1 = 3 eliminations.
    monkeypatch.setattr(enumeration, "_MAX_SUBSETS", 12)
    assert len(equation_system(pipe, 0).representations) == 4
    monkeypatch.setattr(enumeration, "_MAX_SUBSETS", 11)
    with pytest.raises(SizeLimitError, match="run 12 eliminations, exceeding the cap of 11"):
        equation_system(pipe, 0)


def test_falling_body_equation_system(falling_body):
    system = equation_system(falling_body, 0, (4,))
    assert len(system.representations) == 3
    assert [scaling_as_dict(rep) for rep in system.representations] == [
        {1: 1},
        {1: 1},
        {2: 2, 3: -1},
    ]
    # n - r - 1 active invariants each, with the excluded quantity's
    # invariant still present as a function argument
    for rep in system.representations:
        assert len(rep.active_invariants) == 2


def test_two_body_equation_system_squared_forms(two_body):
    system = equation_system(two_body, 0)
    assert len(system.representations) == 2
    for rep in system.representations:
        b = rep.dependent_invariant.exponents[0]
        assert b == 2
        squared = {j: e * b for j, e in rep.scaling}
        if rep.basis.indices == (1, 2, 4):
            assert squared == {1: 3, 2: -1, 4: -1}  # t^2 = d^3/(m1 G) * Phi
        else:
            assert squared == {1: 3, 3: -1, 4: -1}


def test_empty_system_carries_warning():
    # only one quantity of nonzero dimension: no basis set avoids it
    matrix = matrix_of(("L",), (("a", (1,)), ("b", (1,))))
    system = equation_system(matrix, 0, (1,))
    assert system.representations == ()
    assert system.warning is not None


def test_active_invariant_count(pipe, falling_body, two_body):
    for matrix, dependent, excluded in (
        (pipe, 0, ()),
        (falling_body, 0, (4,)),
        (two_body, 0, ()),
    ):
        n, r = len(matrix.quantities), matrix.rank
        for rep in equation_system(matrix, dependent, excluded).representations:
            assert len(rep.active_invariants) == n - r - 1


def test_prefactor_carries_dependent_dimensions(pipe, falling_body, two_body):
    """The scaling product has exactly the dependent quantity's dimensions."""
    for matrix, dependent, excluded in (
        (pipe, 0, ()),
        (falling_body, 0, (4,)),
        (two_body, 0, ()),
    ):
        target = matrix.quantities[dependent].dims
        for rep in equation_system(matrix, dependent, excluded).representations:
            for i in range(matrix.system.size):
                total = sum(
                    e * matrix.quantities[j].dims[i] for j, e in rep.scaling
                )
                assert total == target[i]


# ------------------------------------------------- representation coherence


def test_dependent_invariants_relate_by_integer_products(pipe, two_body):
    for matrix, dependent in ((pipe, 0), (two_body, 0)):
        reps = equation_system(matrix, dependent).representations
        for source in reps:
            for target in reps:
                witness = express_dependent_invariant(source, target)
                assert witness is not None
                a, exponents = witness
                combined = [a * e for e in target.dependent_invariant.exponents]
                for coeff, active in zip(exponents, target.active_invariants):
                    combined = [
                        c + coeff * e for c, e in zip(combined, active.exponents)
                    ]
                assert tuple(combined) == source.dependent_invariant.exponents


def test_representations_agree_numerically(pipe, falling_body, two_body):
    """Fixing Phi = 1 in one representation pins the dependent value; every
    other representation must reproduce it with Phi set to the implied
    product of its own active invariants (relative 1e-9)."""
    rng = random.Random(2718)
    for matrix, dependent, excluded in (
        (pipe, 0, ()),
        (falling_body, 0, (4,)),
        (two_body, 0, ()),
    ):
        reps = equation_system(matrix, dependent, excluded).representations
        values = [rng.uniform(0.5, 2.0) for _ in matrix.quantities]
        for source in reps:
            # dep value making dep_inv(source) equal 1
            b = source.dependent_invariant.exponents[dependent]
            rest = 1.0
            for j, e in enumerate(source.dependent_invariant.exponents):
                if j != dependent and e:
                    rest *= values[j] ** e
            dep_value = rest ** (-1.0 / b)
            probe = list(values)
            probe[dependent] = dep_value
            assert evaluate_invariant(source.dependent_invariant, probe) == pytest.approx(1.0, rel=1e-9)
            for target in reps:
                a, exponents = express_dependent_invariant(source, target)
                lhs = evaluate_invariant(target.dependent_invariant, probe) ** a
                rhs = 1.0
                for coeff, active in zip(exponents, target.active_invariants):
                    rhs *= evaluate_invariant(active, probe) ** (-coeff)
                assert lhs == pytest.approx(rhs, rel=1e-9)
