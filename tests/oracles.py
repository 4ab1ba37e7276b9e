"""Independent brute-force oracles.

These never call the package's engine: they import only its value types.
Rank comes from minor determinants (Laplace expansion), basis and circuit
sets from their set-theoretic definitions, and invariants from Cramer's rule
on those determinants. A circuit's line has the signed maximal minors of k - 1
independent rows of its k columns as entries; a basis set's reduced invariant
of quantity i has det(A[R, B]) at i and minus the determinant with the
column of b replaced by that of i at each b in B, for r rows R on which the
basis columns are independent. :func:`oracle_unified_basis` is the unified
basis by its definition, the union of those reductions over every basis set.
Only usable for small matrices.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, prod

from dimbasis import DimensionalMatrix, Invariant, InvariantPair


def det(square: list[list[int]]) -> int:
    """Laplace expansion along the first row; 1 for the empty matrix."""
    if not square:
        return 1
    total = 0
    for j in range(len(square)):
        if square[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in square[1:]]
        total += (-1) ** j * square[0][j] * det(minor)
    return total


def oracle_rank(columns: list[tuple[int, ...]]) -> int:
    """Largest k with a nonzero k-by-k minor."""
    if not columns:
        return 0
    m = len(columns[0])
    for k in range(min(m, len(columns)), 0, -1):
        for row_sel in combinations(range(m), k):
            for col_sel in combinations(range(len(columns)), k):
                square = [[columns[c][r] for c in col_sel] for r in row_sel]
                if det(square) != 0:
                    return k
    return 0


def oracle_subset_rank(matrix: DimensionalMatrix, subset) -> int:
    cols = matrix.columns
    return oracle_rank([cols[j] for j in subset])


def oracle_basis_sets(matrix: DimensionalMatrix) -> list[tuple[int, ...]]:
    n = len(matrix.quantities)
    r = oracle_subset_rank(matrix, range(n))
    return [
        subset
        for subset in combinations(range(n), r)
        if oracle_subset_rank(matrix, subset) == r
    ]


def oracle_circuit_sets(matrix: DimensionalMatrix) -> list[tuple[int, ...]]:
    """Definitional check: dependent, with every proper subset independent."""
    n = len(matrix.quantities)
    circuits = []
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            if oracle_subset_rank(matrix, subset) == size:
                continue  # independent, not even dependent
            proper_ok = all(
                oracle_subset_rank(matrix, proper) == len(proper)
                for k in range(size)
                for proper in combinations(subset, k)
            )
            if proper_ok:
                circuits.append(subset)
    return sorted(circuits)


def _primitive(vector: list[int]) -> list[int]:
    g = gcd(*vector)
    return [x // g for x in vector]


def oracle_circuit_basis(matrix: DimensionalMatrix) -> list[InvariantPair]:
    """One pair per definitional circuit set, in circuit-set order.

    A k-column circuit has rank k - 1, so some k - 1 of its rows are
    independent; entry j of its line is (-1)^j times the minor of those rows
    without column j.
    """
    out = []
    for circuit in oracle_circuit_sets(matrix):
        independent: list[list[int]] = []
        for row in ([row[j] for j in circuit] for row in matrix.rows):
            if oracle_rank(independent + [row]) > len(independent):
                independent.append(row)
        line = [0] * len(matrix.quantities)
        for k, j in enumerate(circuit):
            line[j] = (-1) ** k * det([row[:k] + row[k + 1 :] for row in independent])
        out.append(InvariantPair(Invariant(_primitive(line))))
    return out


def oracle_basis_set_invariants(matrix: DimensionalMatrix, basis) -> tuple[Invariant, ...]:
    """The reduced invariants of a basis set by Cramer's rule, in quantity order.

    Each has a positive exponent on its non-basis quantity and every other
    nonzero exponent in the basis. Raises ValueError for an index that names
    no quantity or a subset that is not a basis set.
    """
    n, r = len(matrix.quantities), matrix.rank
    basis = tuple(basis)
    if any(not 0 <= j < n for j in basis):
        raise ValueError(f"{basis} names no quantity")
    if len(basis) != r or oracle_subset_rank(matrix, basis) != r:
        raise ValueError(f"{basis} is not a basis set of this matrix")
    rows = matrix.rows

    def minor(selected, columns) -> int:
        return det([[rows[i][j] for j in columns] for i in selected])

    selected = next(s for s in combinations(range(len(rows)), r) if minor(s, basis))
    d = minor(selected, basis)
    invariants = []
    for i in (i for i in range(n) if i not in basis):
        vector = [0] * n
        vector[i] = d
        for k, b in enumerate(basis):
            vector[b] = -minor(selected, basis[:k] + (i,) + basis[k + 1 :])
        vector = _primitive(vector)
        invariants.append(Invariant(vector if vector[i] > 0 else [-x for x in vector]))
    return tuple(invariants)


def oracle_unified_basis(matrix: DimensionalMatrix) -> list[Invariant]:
    """Union of the reduced invariants over every basis set, as canonical pairs.

    Sorted by exponent vector.
    """
    union = {
        invariant.canonical()
        for basis in oracle_basis_sets(matrix)
        for invariant in oracle_basis_set_invariants(matrix, basis)
    }
    return sorted(union, key=lambda inv: inv.exponents)


def evaluate_invariant(invariant: Invariant, values) -> float:
    """Floating-point value of the power product at the given quantity values.

    Raises ValueError unless there is one strictly positive value per quantity.
    """
    if len(values) != len(invariant.exponents):
        raise ValueError(f"expected {len(invariant.exponents)} values, got {len(values)}")
    if not all(v > 0 for v in values):
        raise ValueError(f"quantity values must be strictly positive, got {values!r}")
    return prod(float(v) ** e for v, e in zip(values, invariant.exponents) if e)
