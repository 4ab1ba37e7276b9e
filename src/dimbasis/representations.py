"""Representations of a functional relation, one per admissible basis set.

Designating a dependent quantity q and a basis set B (not containing q, nor
any explicitly excluded quantity) turns the reduced invariant of q over B,
say q^b * prod(q_j^{c_j}), into an explicit formula

    q = prod(q_j^{-c_j / b}) * Phi(pi_1, ..., pi_{n-r-1})^{1/b},

where the arguments of the unknown function Phi are the reduced invariants
of the remaining non-basis quantities. Enumerating all admissible basis sets
yields every such representation; together they form an equation system for
the same underlying relation.

Excluded quantities are only barred from basis sets. They keep their matrix
columns and may still occur inside invariants.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .enumeration import BasisSet, _check_size, basis_set_invariants, enumerate_basis_sets
from .model import DimensionalMatrix, Invariant, _check_roles, _set, _Value


class Representation(_Value):
    """One explicit power-product form of the functional relation.

    ``scaling`` holds the prefactor as (quantity index, exact rational
    exponent) pairs in quantity order, zero exponents omitted. The dependent
    quantity itself appears to the first power; fractional exponents (for
    example 3/2) are kept exact rather than raised to an integer power.
    """

    __slots__ = (
        "dependent", "basis", "scaling", "dependent_invariant", "active_invariants",
        "function_name",
    )
    dependent: int
    basis: BasisSet
    scaling: tuple[tuple[int, Fraction], ...]
    dependent_invariant: Invariant
    active_invariants: tuple[Invariant, ...]
    function_name: str

    def __init__(
        self,
        dependent: int,
        basis: BasisSet,
        scaling: tuple[tuple[int, Fraction], ...],
        dependent_invariant: Invariant,
        active_invariants: tuple[Invariant, ...],
        function_name: str = "Phi",
    ):
        _set(self, "dependent", dependent)
        _set(self, "basis", basis)
        _set(self, "scaling", scaling)
        _set(self, "dependent_invariant", dependent_invariant)
        _set(self, "active_invariants", active_invariants)
        _set(self, "function_name", function_name)


class EquationSystem(_Value):
    """All representations of one relation, viewed as simultaneous equations."""

    __slots__ = ("dependent", "representations", "warning")
    dependent: int
    representations: tuple[Representation, ...]
    warning: str | None

    def __init__(
        self,
        dependent: int,
        representations: tuple[Representation, ...],
        warning: str | None = None,
    ):
        _set(self, "dependent", dependent)
        _set(self, "representations", representations)
        _set(self, "warning", warning)


def admissible_basis_sets(
    matrix: DimensionalMatrix,
    dependent: int,
    excluded: tuple[int, ...] = (),
) -> list[BasisSet]:
    """Basis sets containing neither the dependent nor any excluded quantity."""
    excluded = tuple(excluded)
    _check_roles(matrix, dependent, excluded)
    barred = {dependent, *excluded}
    return [
        basis
        for basis in enumerate_basis_sets(matrix)
        if not barred.intersection(basis.indices)
    ]


def build_representation(
    matrix: DimensionalMatrix,
    dependent: int,
    basis: BasisSet,
    function_name: str = "Phi",
) -> Representation:
    """Build the representation of the relation attached to one basis set."""
    _check_roles(matrix, dependent, ())
    if dependent in basis:
        raise ValueError("the basis set must not contain the dependent quantity")
    system = basis_set_invariants(matrix, basis)

    # The reduced invariants come one per non-basis quantity, in quantity order.
    owners = [j for j in range(len(matrix.quantities)) if j not in basis]
    dep_invariant = system.invariants[owners.index(dependent)]
    actives = [inv for j, inv in zip(owners, system.invariants) if j != dependent]
    b = dep_invariant.exponents[dependent]
    scaling = tuple(
        (j, Fraction(-dep_invariant.exponents[j], b))
        for j in basis.indices
        if dep_invariant.exponents[j]
    )
    return Representation(
        dependent=dependent,
        basis=basis,
        scaling=scaling,
        dependent_invariant=dep_invariant,
        active_invariants=tuple(actives),
        function_name=function_name,
    )


def equation_system(
    matrix: DimensionalMatrix,
    dependent: int,
    excluded: tuple[int, ...] = (),
) -> EquationSystem:
    """All representations for a dependent quantity, numbered Phi_1, Phi_2, ...

    An empty system carries a warning instead of raising: having no
    admissible basis set is an analysis outcome, not a usage error. The
    reductions of the basis subsets that avoid the dependent and excluded
    quantities are charged against the subset cap before the enumeration
    starts.
    """
    excluded = tuple(excluded)
    _check_roles(matrix, dependent, excluded)
    _check_size(
        matrix, "basis-set enumeration", "basis-set reductions", barred=1 + len(excluded)
    )
    bases = admissible_basis_sets(matrix, dependent, excluded)
    if not bases:
        name = matrix.quantities[dependent].name
        return EquationSystem(
            dependent=dependent,
            representations=(),
            warning=f"no admissible basis set for dependent quantity {name!r}",
        )
    reps = tuple(
        build_representation(matrix, dependent, basis, function_name=f"Phi_{k + 1}")
        for k, basis in enumerate(bases)
    )
    return EquationSystem(dependent=dependent, representations=reps)


def express_dependent_invariant(
    source: Representation, target: Representation
) -> tuple[int, tuple[int, ...]] | None:
    """Integer exponents writing one dependent invariant over another system.

    Looks for integers (a, e_1, ..., e_k) with

        dep_inv(source) = a * dep_inv(target) + sum(e_i * active_i(target))

    in exponent space, i.e. the source invariant as a power product of the
    target representation's invariants. Returns None when the unique rational
    solution is not integral (or does not exist). Both representations must
    describe the same dependent quantity.
    """
    if source.dependent != target.dependent:
        raise ValueError("representations describe different dependent quantities")
    generators = [target.dependent_invariant.exponents]
    generators.extend(inv.exponents for inv in target.active_invariants)
    coefficients = linalg.express_in_span(
        generators, source.dependent_invariant.exponents
    )
    if coefficients is None or any(c.denominator != 1 for c in coefficients):
        return None
    ints = [int(c) for c in coefficients]
    return ints[0], tuple(ints[1:])
