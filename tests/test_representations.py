from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from dimbasis import (
    BasisSet,
    Invariant,
    Representation,
    admissible_basis_sets,
    build_representation,
    equation_system,
    express_dependent_invariant,
)
from conftest import matrix_of
from oracles import evaluate_invariant, oracle_express

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


@pytest.mark.parametrize("dependent, excluded, message", [
    (True, (), "dependent index must be an integer, got True"),
    (1.0, (), "dependent index must be an integer, got 1.0"),
    ("1", (), "dependent index must be an integer, got '1'"),
    (0, (2.0,), "excluded index must be an integer, got 2.0"),
    (0, (False,), "excluded index must be an integer, got False"),
])
def test_roles_reject_indices_that_are_not_ints(pipe, dependent, excluded, message):
    whole = f"^{re.escape(message)}$"
    with pytest.raises(ValueError, match=whole):
        equation_system(pipe, dependent, excluded)
    with pytest.raises(ValueError, match=whole):
        admissible_basis_sets(pipe, dependent, excluded)
    if not excluded:
        with pytest.raises(ValueError, match=whole):
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


def seeded_3x7(seed: int):
    """The benchmark's column-major draw: 3 x 7, entries in [-3, 3]."""
    rng = random.Random(seed)
    columns = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(7)]
    return matrix_of(("D0", "D1", "D2"), tuple((f"q{j}", col) for j, col in enumerate(columns)))


def related_pairs(system) -> int:
    """Checks the read-off against the rational solve, and counts related pairs.

    Pairs of a representation with itself are not counted.
    """
    related = 0
    for source in system.representations:
        for target in system.representations:
            result = express_dependent_invariant(source, target)
            generators = (target.dependent_invariant, *target.active_invariants)
            x = oracle_express([g.exponents for g in generators],
                               source.dependent_invariant.exponents)
            if x is None or any(c.denominator != 1 for c in x):
                assert result is None
                continue
            assert result == (int(x[0]), tuple(int(c) for c in x[1:]))
            a, exponents = result
            combined = [a * e for e in target.dependent_invariant.exponents]
            for coeff, active in zip(exponents, target.active_invariants):
                combined = [c + coeff * e for c, e in zip(combined, active.exponents)]
            assert tuple(combined) == source.dependent_invariant.exponents
            related += source is not target
    return related


def test_dependent_invariant_read_off_matches_rational_solve(
    pipe, laminar, falling_body, two_body
):
    counts = [
        related_pairs(equation_system(matrix, 0, excluded))
        for matrix, excluded in ((falling_body, (4,)), (pipe, ()), (two_body, ()), (laminar, ()))
    ]
    assert counts == [6, 12, 2, 0]
    seeded = [related_pairs(equation_system(seeded_3x7(seed), 0)) for seed in range(6)]
    assert seeded == [109, 96, 148, 60, 49, 74]


def test_express_dependent_invariant_refuses_different_dependents(pipe):
    source = equation_system(pipe, 0).representations[0]
    target = equation_system(pipe, 1).representations[0]
    with pytest.raises(ValueError, match="^representations describe different dependent"):
        express_dependent_invariant(source, target)


def test_read_off_gives_none_unless_it_gives_the_source(pipe, laminar):
    source = equation_system(pipe, 0).representations[1]
    # A zero at the invariant's own quantity leaves its coefficient undefined.
    broken = Representation(
        dependent=0,
        basis=source.basis,
        scaling=source.scaling,
        dependent_invariant=Invariant((0,) + source.dependent_invariant.exponents[1:]),
        active_invariants=source.active_invariants,
    )
    assert express_dependent_invariant(source, broken) is None
    # The same quantities with another velocity dimension: the coefficients read
    # off the non-basis entries, (1, (0,)), miss the source on the basis.
    other = matrix_of(("L", "T", "M"), tuple(
        (q.name, (1, -2, 0) if q.name == "u" else q.dims) for q in pipe.quantities
    ))
    target = equation_system(other, 0).representations[1]
    assert source.basis == target.basis
    assert express_dependent_invariant(source, target) is None
    # Representations over different numbers of quantities.
    fewer = equation_system(laminar, 0).representations[0]
    assert express_dependent_invariant(source, fewer) is None
    assert express_dependent_invariant(fewer, source) is None


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
