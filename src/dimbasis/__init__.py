"""dimbasis: exact-arithmetic generalized dimensional analysis.

Given a dimensional matrix over integer exponents, this package enumerates
every maximal independent set of quantities (basis set), every minimal
dependent set (circuit set), the corresponding minimal invariant pairs
(circuit basis and unified basis), the Graver basis of the integer kernel
(as the same :class:`InvariantPair` type as the circuit basis, so the
embedding of the circuits reads ``set(circuit_basis(m)) <= graver_basis(m)``),
and every power-product representation of a designated functional relation.
All arithmetic is exact, on integers and rationals; no floating point is
used anywhere in the package.

``import dimbasis`` loads no submodule: each public name and each submodule
loads on first access, so a command-line run imports only what it uses.
"""

from importlib import import_module

# Each public name with the submodule that defines it, resolved by the
# module-level __getattr__ below (PEP 562).
_EXPORTS = {
    **dict.fromkeys((
        "BasisSet", "BasisSetSystem", "CircuitSet", "basis_set_invariants", "circuit_basis",
        "circuit_invariant", "enumerate_basis_sets", "enumerate_circuit_sets",
        "is_circuit_set", "unified_basis",
    ), "enumeration"),
    **dict.fromkeys(("conforms", "graver_basis"), "graver"),
    **dict.fromkeys((
        "DimensionSystem", "DimensionalMatrix", "Invariant", "InvariantPair", "Quantity",
        "SizeLimitError", "build_matrix",
    ), "model"),
    **dict.fromkeys(
        ("Problem", "ProblemParseError", "parse_dimension_expression", "parse_problem"),
        "problem",
    ),
    **dict.fromkeys((
        "EquationSystem", "Representation", "admissible_basis_sets", "build_representation",
        "equation_system", "express_dependent_invariant",
    ), "representations"),
}
_SUBMODULES = (
    "cli", "enumeration", "graver", "linalg", "model", "problem", "render", "representations",
)

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
