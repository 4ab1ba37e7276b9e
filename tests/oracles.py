"""Independent brute-force oracles.

These deliberately avoid the package's elimination code: rank comes from
minor determinants (Laplace expansion), basis and circuit sets from their
set-theoretic definitions. The exceptions are the reductions:
:func:`oracle_basis_set_invariants` reduces each non-basis quantity on its
own (a rank test, then one ``solve_in_basis`` per non-basis quantity), and
:func:`oracle_unified_basis` is the unified basis by its definition, the union
of those reductions over the package's basis sets. Only usable for small
matrices.
"""

from __future__ import annotations

from itertools import combinations

from dimbasis import DimensionalMatrix, Invariant, enumerate_basis_sets, linalg


def det(square: list[list[int]]) -> int:
    n = len(square)
    if n == 1:
        return square[0][0]
    total = 0
    for j in range(n):
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


def oracle_basis_set_invariants(matrix: DimensionalMatrix, basis) -> tuple[Invariant, ...]:
    """The reduced invariants of a basis set, one solve per non-basis quantity.

    Each is the kernel vector with exponent 1 on its quantity and the negated
    ``solve_in_basis`` coefficients on the basis, scaled to primitive
    integers. Raises ValueError for an index that names no quantity or a
    subset that is not a basis set.
    """
    n, r = len(matrix.quantities), matrix.rank
    basis = tuple(basis)
    if any(not 0 <= j < n for j in basis):
        raise ValueError(f"{basis} names no quantity")
    columns = [matrix.columns[j] for j in basis]
    if len(basis) != r or (basis and linalg.rank(list(zip(*columns))) != r):
        raise ValueError(f"{basis} is not a basis set of this matrix")
    invariants = []
    for i in range(n):
        if i in basis:
            continue
        coefficients = linalg.solve_in_basis(matrix.rows, basis, i)
        vector = [0] * n
        vector[i] = 1
        for j, c in zip(basis, coefficients):
            vector[j] = -c
        invariants.append(Invariant(linalg.scale_to_primitive(vector)))
    return tuple(invariants)


def oracle_unified_basis(matrix: DimensionalMatrix) -> list[Invariant]:
    """Union of the reduced invariants over every basis set, as canonical pairs.

    One ``solve_in_basis`` per non-basis quantity and basis set; sorted by
    exponent vector.
    """
    seen: set[tuple[int, ...]] = set()
    out: list[Invariant] = []
    for basis in enumerate_basis_sets(matrix):
        for invariant in oracle_basis_set_invariants(matrix, basis):
            canonical = invariant.canonical()
            if canonical.exponents not in seen:
                seen.add(canonical.exponents)
                out.append(canonical)
    return sorted(out, key=lambda inv: inv.exponents)
