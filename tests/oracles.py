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
:func:`oracle_graver_completion` is the Pottier completion that sums both
orientations of every new vector, from a lattice basis given by the caller,
and :func:`oracle_box_minimal` the minimal kernel points of a box, found by
testing every point of it. :func:`oracle_normal_form` reduces a packed vector
the way the completion once did, rescanning from the first generator after
every step. :func:`oracle_is_kernel_lattice_basis` checks a
lattice basis by its minors, and :func:`oracle_express` solves for a vector
in the span of others by Cramer's rule. Only usable for small matrices.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations, product
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


def oracle_is_kernel_lattice_basis(rows, basis) -> bool:
    """Whether *basis* is a basis of the lattice {c in Z^n : rows @ c = 0}.

    It must lie in the kernel and hold n - rank vectors, and the gcd of its
    k-by-k minors must be 1: then the vectors are independent and span every
    integer vector of their rational span, which is the rational kernel.
    """
    n, k = len(rows[0]), len(basis)
    if any(sum(a * x for a, x in zip(row, v)) for row in rows for v in basis):
        return False
    if k != n - oracle_rank(list(zip(*rows))):
        return False
    minors = (det([[v[j] for j in cols] for v in basis]) for cols in combinations(range(n), k))
    return gcd(*minors) == 1


def oracle_express(vectors, target) -> tuple[Fraction, ...] | None:
    """Solve sum(x_i * vectors[i]) == target for linearly independent vectors.

    Cramer's rule on k coordinates where the k vectors have a nonzero minor;
    returns None when that solution misses the target on another coordinate.
    """
    k = len(vectors)

    def minor(coords, replaced=None) -> int:
        return det([[target[i] if c == replaced else vectors[c][i] for c in range(k)]
                    for i in coords])

    coords = next(s for s in combinations(range(len(target)), k) if minor(s))
    d = minor(coords)
    x = tuple(Fraction(minor(coords, c), d) for c in range(k))
    if any(sum(xc * v[i] for xc, v in zip(x, vectors)) != t for i, t in enumerate(target)):
        return None
    return x


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


def _conforms(x, y) -> bool:
    return all(a * b >= 0 and abs(a) <= abs(b) for a, b in zip(x, y))


def oracle_graver_completion(lattice_basis) -> set[tuple[int, ...]]:
    """Both orientations of every Graver element, by Pottier's completion.

    Starts from a saturated lattice basis of the integer kernel. Each new
    vector v is added as v and -v, and the sums of each of them with every
    earlier vector, v + (-v) = 0 included, are reduced to normal form against
    the current set; a nonzero normal form is added in turn. The elements that
    no other vector conforms to are returned.
    """
    generators: list[tuple[int, ...]] = []
    queue: deque[tuple[int, ...]] = deque()

    def add_pair(vector) -> None:
        for v in (tuple(vector), tuple(-x for x in vector)):
            queue.extend(tuple(a + b for a, b in zip(v, g)) for g in generators)
            generators.append(v)

    for b in lattice_basis:
        add_pair(b)
    while queue:
        s = queue.popleft()
        reduced = True
        while reduced and any(s):
            reduced = False
            for g in generators:
                if _conforms(g, s):
                    s = tuple(a - b for a, b in zip(s, g))
                    reduced = True
                    break
        if any(s):
            add_pair(s)
    return {v for v in generators if not any(w != v and _conforms(w, v) for w in generators)}


def oracle_normal_form(a: int, generators, guards: int) -> int:
    """The remainder of packed vector *a* after reduction by nonzero *generators*.

    Vectors are packed as in :mod:`dimbasis.graver`: each field has a clear guard
    bit on top, and g <= a exactly when taking g from a with every guard set
    clears no guard. After every subtraction the scan restarts from the first
    generator, until none is below the remainder.
    """
    while a:
        high = a | guards
        for g in generators:
            if (high - g) & guards == guards:
                a -= g
                break
        else:
            break
    return a


def oracle_box_minimal(rows, bound: int) -> set[tuple[int, ...]]:
    """The minimal nonzero kernel points with every entry in [-bound, bound].

    Tests every point of the box; a kernel point is minimal when no other
    nonzero kernel point lies in the box between 0 and it.
    """
    kernel = {
        c
        for c in product(range(-bound, bound + 1), repeat=len(rows[0]))
        if any(c) and all(sum(r * x for r, x in zip(row, c)) == 0 for row in rows)
    }
    return {
        v
        for v in kernel
        if not any(w != v and w in kernel
                   for w in product(*(range(min(x, 0), max(x, 0) + 1) for x in v)))
    }


def evaluate_invariant(invariant: Invariant, values) -> float:
    """Floating-point value of the power product at the given quantity values.

    Raises ValueError unless there is one strictly positive value per quantity.
    """
    if len(values) != len(invariant.exponents):
        raise ValueError(f"expected {len(invariant.exponents)} values, got {len(values)}")
    if not all(v > 0 for v in values):
        raise ValueError(f"quantity values must be strictly positive, got {values!r}")
    return prod(float(v) ** e for v, e in zip(values, invariant.exponents) if e)
