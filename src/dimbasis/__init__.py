"""dimbasis: exact-arithmetic generalized dimensional analysis.

Given a dimensional matrix over integer exponents, this package enumerates
every maximal independent set of quantities (basis set), every minimal
dependent set (circuit set), the corresponding minimal invariant pairs
(circuit basis and unified basis), the Graver basis of the integer kernel
(as the same :class:`InvariantPair` type as the circuit basis, so the
embedding of the circuits reads ``set(circuit_basis(m)) <= graver_basis(m)``),
and every power-product representation of a designated functional relation.
All core arithmetic is exact rational; floating point appears only in
numerical evaluation helpers.
"""

from .enumeration import (
    BasisSet,
    BasisSetSystem,
    CircuitSet,
    basis_set_invariants,
    circuit_basis,
    circuit_invariant,
    enumerate_basis_sets,
    enumerate_circuit_sets,
    is_circuit_set,
    unified_basis,
)
from .errors import DEFAULT_MAX_N, SizeLimitError
from .graver import conforms, graver_basis
from .model import (
    DimensionSystem,
    DimensionalMatrix,
    Invariant,
    InvariantPair,
    Quantity,
    build_matrix,
    evaluate_invariant,
)
from .problem import Problem, ProblemParseError, parse_dimension_expression, parse_problem
from .representations import (
    EquationSystem,
    Representation,
    admissible_basis_sets,
    build_representation,
    equation_system,
    express_dependent_invariant,
)

__version__ = "0.1.0"

__all__ = [
    "BasisSet",
    "BasisSetSystem",
    "CircuitSet",
    "DEFAULT_MAX_N",
    "DimensionSystem",
    "DimensionalMatrix",
    "EquationSystem",
    "Invariant",
    "InvariantPair",
    "Problem",
    "ProblemParseError",
    "Quantity",
    "Representation",
    "SizeLimitError",
    "admissible_basis_sets",
    "basis_set_invariants",
    "build_matrix",
    "build_representation",
    "circuit_basis",
    "circuit_invariant",
    "conforms",
    "enumerate_basis_sets",
    "enumerate_circuit_sets",
    "equation_system",
    "evaluate_invariant",
    "express_dependent_invariant",
    "graver_basis",
    "is_circuit_set",
    "parse_dimension_expression",
    "parse_problem",
    "unified_basis",
]
