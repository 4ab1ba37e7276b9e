"""Enumeration of basis sets, circuit sets and minimal-invariant bases.

Terminology, with the quantity columns of a dimensional matrix as ground set:

* basis set: a maximal independent set of columns (size = rank). These are
  the admissible "repeating variable" choices.
* circuit set: a minimal dependent set; every proper subset is independent.
  A column subset is a circuit exactly when it carries a fully supported
  kernel line: a one-dimensional kernel (so rank |S| - 1) with no zero entry.
* circuit invariant: that line as a primitive integer vector over all
  quantities, unique up to sign, stored as an :class:`~dimbasis.model.InvariantPair`.
* circuit basis: all circuit invariant pairs of the matrix.
* unified basis: the union over all basis sets of their reduced invariants,
  deduplicated at pair level. As a set of pairs it equals the circuit basis:
  each reduced invariant is the fundamental circuit of its non-basis
  quantity, and every circuit C is the fundamental circuit of any e in C over
  a basis set extending C - e (Oxley, *Matroid Theory*, section 1.2). It is
  therefore read off the circuit scan, which runs one elimination per subset
  and keeps each circuit's line: sets, circuit basis and unified basis alike.

Enumeration is exhaustive over column subsets and therefore intended for
desk-scale matrices. There is no quantity cap: before a stage starts, an input
is refused when the work the stage will do exceeds its budget, C(n, r) subsets
for the basis sets, C(n, 1) + ... + C(n, r + 1) for the circuit scan, and
C(n - b, r) * (n - r + 1) eliminations and back-substitutions for the
basis-set reductions, where b counts the quantities barred from basis sets
(none for ``check``; the dependent and excluded ones for ``representations``).
All outputs are in deterministic lexicographic order.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterator, Sequence

from . import linalg
from .model import (
    DimensionalMatrix, Invariant, InvariantPair, SizeLimitError, _check_index, _set, _Value,
)

# A scanned subset costs one Fraction kernel, 0.55 ms in the rank-6 circuit scan
# on 20 quantities (75 s for 137,979 subsets, Python 3.11) and more at higher
# rank, so the cap refuses a stage of over a minute's subsets at that rate. A
# basis subset costs one integer rank, which is cheaper.
_MAX_SUBSETS = 120_000


class IndexSet(_Value):
    """Sorted, distinct column indices of a set of quantities.

    Serves both as a basis set (a maximal independent set, possibly empty)
    and as a circuit set (a minimal dependent set). Each index is an ``int``,
    not a ``bool``.
    """

    __slots__ = ("indices",)
    indices: tuple[int, ...]

    def __init__(self, indices: Sequence[int]):
        indices = tuple(indices)
        for j in indices:
            if type(j) is not int:  # a bool would pass as 0 or 1
                raise ValueError(f"index must be an integer, got {j!r}")
        indices = tuple(sorted(indices))
        if len(set(indices)) != len(indices):
            raise ValueError("indices must be distinct")
        _set(self, "indices", indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, index: int) -> bool:
        return index in self.indices


BasisSet = CircuitSet = IndexSet


class BasisSetSystem(_Value):
    """The reduced invariants attached to one basis set.

    There is one invariant per non-basis quantity, in quantity order, each
    oriented so that the exponent of its non-basis quantity is positive and
    every other nonzero exponent lies in the basis.
    """

    __slots__ = ("basis", "invariants")
    basis: BasisSet
    invariants: tuple[Invariant, ...]

    def __init__(self, basis: BasisSet, invariants: tuple[Invariant, ...]):
        _set(self, "basis", basis)
        _set(self, "invariants", invariants)


def _check_size(matrix: DimensionalMatrix, *stages: str, barred: int = 0) -> None:
    """Refuse the input before any of ``stages`` starts.

    Each stage is charged its eliminations: one per subset, and for the
    reductions n - r + 1 per basis subset that avoids the ``barred``
    quantities (one elimination over all n columns, then one
    back-substitution per non-basis quantity).
    """
    n, r = len(matrix.quantities), matrix.rank
    costs = {
        "basis-set enumeration": (comb(n, r), "visit {} column subsets"),
        "circuit scan": (sum(comb(n, k) for k in range(1, r + 2)), "visit {} column subsets"),
        "basis-set reductions": (comb(n - barred, r) * (n - r + 1), "run {} eliminations"),
    }
    for stage in stages:
        cost, work = costs[stage]
        if cost > _MAX_SUBSETS:
            raise SizeLimitError(
                f"{stage} would {work.format(cost)}, exceeding the cap of {_MAX_SUBSETS}"
            )


def _subset_rows(matrix: DimensionalMatrix, subset: Sequence[int]) -> tuple:
    """The rows of the chosen columns; each index must be an int naming a quantity."""
    n = len(matrix.quantities)
    for j in subset:
        _check_index("quantity", j, n)
    cols = matrix.columns
    return tuple(tuple(cols[j][i] for j in subset) for i in range(matrix.system.size))


def _circuit_line(matrix: DimensionalMatrix, subset: Sequence[int]) -> tuple[int, ...] | None:
    """The subset's fully supported kernel line over all n quantities, primitive.

    None exactly when the subset is not a circuit set.
    """
    subset = tuple(subset)
    rows = _subset_rows(matrix, subset)
    if not subset or len(set(subset)) != len(subset):
        return None
    kernel = linalg.kernel_basis(rows).vectors
    if len(kernel) != 1 or not all(kernel[0]):
        return None
    line = [0] * len(matrix.quantities)
    for j, x in zip(subset, linalg.scale_to_primitive(kernel[0])):
        line[j] = x
    return tuple(line)


def enumerate_basis_sets(matrix: DimensionalMatrix) -> list[BasisSet]:
    """All size-r independent column subsets, lexicographically ordered.

    With rank 0 the single empty basis set is returned: every quantity is
    then dimensionless on its own.
    """
    n, r = len(matrix.quantities), matrix.rank
    _check_size(matrix, "basis-set enumeration")
    return [
        BasisSet(subset)
        for subset in combinations(range(n), r)
        if not subset or linalg.rank(_subset_rows(matrix, subset)) == r
    ]


def is_circuit_set(matrix: DimensionalMatrix, subset: Sequence[int]) -> bool:
    """Minimal-dependence test: the columns carry a fully supported kernel line.

    Raises ValueError for an index that names no quantity.
    """
    return _circuit_line(matrix, subset) is not None


def _circuit_scan(matrix: DimensionalMatrix) -> list[tuple[tuple[int, ...], tuple]]:
    """Each circuit set with its line, by index tuple: one elimination per subset.

    A circuit has at most rank + 1 members, so larger subsets are not scanned.
    """
    _check_size(matrix, "circuit scan")
    return sorted(
        (subset, line)
        for size in range(1, matrix.rank + 2)
        for subset in combinations(range(len(matrix.quantities)), size)
        if (line := _circuit_line(matrix, subset)) is not None
    )


def enumerate_circuit_sets(matrix: DimensionalMatrix) -> list[CircuitSet]:
    """All circuit sets, sorted lexicographically by index tuple."""
    return [CircuitSet(subset) for subset, _ in _circuit_scan(matrix)]


def circuit_invariant(matrix: DimensionalMatrix, circuit: CircuitSet) -> InvariantPair:
    """The invariant pair of a circuit set: its fully supported kernel line."""
    line = _circuit_line(matrix, circuit.indices)
    if line is None:
        raise ValueError(f"{circuit.indices} is not a circuit set of this matrix")
    return InvariantPair(Invariant(line))


def circuit_basis(matrix: DimensionalMatrix) -> list[InvariantPair]:
    """One invariant pair per circuit set, in circuit-set order: its scanned line.

    One elimination per scanned subset; between n - rank and C(n, rank + 1) pairs.
    """
    return [InvariantPair(Invariant(line)) for _, line in _circuit_scan(matrix)]


def basis_set_invariants(matrix: DimensionalMatrix, basis: BasisSet) -> BasisSetSystem:
    """Reduce each non-basis quantity against a basis set, in one elimination.

    With the columns ordered ``[B | the others in quantity order]``, B is a
    basis set exactly when it has r columns and they are the pivot columns.
    Then the echelon kernel basis has pivots at B: vector k is 1 on the k-th
    non-basis quantity and 0 on the others, the reduced invariant of that
    quantity. Primitive scaling by a positive rational keeps the 1 positive.
    """
    n, r = len(matrix.quantities), matrix.rank
    order = basis.indices + tuple(j for j in range(n) if j not in basis)
    kernel = linalg.kernel_basis(_subset_rows(matrix, order))
    if len(basis) != r or kernel.pivot_columns != tuple(range(r)):
        raise ValueError(f"{basis.indices} is not a basis set of this matrix")
    invariants = tuple(  # each kernel vector back in quantity order
        Invariant(linalg.scale_to_primitive([x for _, x in sorted(zip(order, vector))]))
        for vector in kernel.vectors
    )
    return BasisSetSystem(basis=basis, invariants=invariants)


def unified_basis(matrix: DimensionalMatrix) -> list[Invariant]:
    """Union of all basis-set invariants, deduplicated at pair level.

    By the fundamental-circuit theorem (see the module docstring) this union
    is exactly the circuit basis, so it is taken from there. Each pair is
    reported once, in its canonical orientation, sorted by exponent vector.
    """
    pairs = circuit_basis(matrix)
    return sorted((p.canonical for p in pairs), key=lambda inv: inv.exponents)
