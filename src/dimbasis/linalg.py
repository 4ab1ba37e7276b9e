"""Exact linear algebra over integer matrices.

Floating point never enters. :func:`rank` runs on plain ints: one
fraction-free forward elimination (Bareiss 1968), in :func:`_rank`, whose
every division is exact. So does :func:`integer_kernel_basis`, which reads
the integer kernel lattice off a reduced Hermite form. ``fractions.Fraction``
remains only in the rational kernel and what reads it. A matrix is a sequence
of rows, each row a sequence of integers. Elimination picks the first nonzero
entry in each column as pivot, which makes every result deterministic. The
rational kernel is one routine, :func:`_kernel`: forward elimination over
Fractions, then one back-substitution per free column. :func:`solve_in_basis`
reads its coefficients off one such kernel, and
``enumeration.basis_set_invariants`` a basis set's reductions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Sequence

IntMatrix = tuple[tuple[int, ...], ...]


class KernelBasis(NamedTuple):
    """Kernel basis vectors plus the free/pivot column bookkeeping.

    Vector ``k`` has entry 1 at ``free_columns[k]``, 0 at every other free
    column, and exact rational entries at the pivot columns.
    """

    vectors: tuple[tuple[Fraction, ...], ...]
    free_columns: tuple[int, ...]
    pivot_columns: tuple[int, ...]


def validate_matrix(matrix: Sequence[Sequence[int]]) -> IntMatrix:
    """Check that *matrix* is rectangular, nonempty and integer-valued."""
    rows = tuple(tuple(row) for row in matrix)
    if not rows or not rows[0]:
        raise ValueError("matrix must have at least one row and one column")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"row {i} has {len(row)} entries, expected {width}")
        for j, entry in enumerate(row):
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise ValueError(f"entry ({i}, {j}) is not an integer: {entry!r}")
    return rows


def _rank(rows: Sequence[Sequence[int]]) -> int:
    """:func:`rank` without validation: fraction-free elimination on plain ints.

    After each pivot every entry below it is a minor of the original matrix,
    the previous pivot divides it exactly (Sylvester's identity), and entries
    stay as small as those minors.
    """
    work = [list(row) for row in rows]
    m, n = len(work), len(work[0])
    r, prev = 0, 1
    for c in range(n):
        for pivot in range(r, m):
            if work[pivot][c]:
                break
        else:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        top, a = work[r], work[r][c]
        for i in range(r + 1, m):
            b = work[i][c]
            work[i] = [(x * a - b * t) // prev for x, t in zip(work[i], top)]
        prev, r = a, r + 1
        if r == m:
            break
    return r


def rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix over the rationals."""
    return _rank(validate_matrix(matrix))


def _kernel(rows: Sequence[Sequence[int]]) -> KernelBasis:
    """:func:`kernel_basis` without validation: see the module docstring."""
    work = [[Fraction(x) for x in row] for row in rows]
    m, n = len(work), len(work[0])
    pivot_cols: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, m):
            if work[i][c]:
                factor = work[i][c] / work[r][c]
                for j in range(c, n):
                    work[i][j] -= factor * work[r][j]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    pivot_set = set(pivot_cols)
    free_cols = tuple(j for j in range(n) if j not in pivot_set)
    vectors = []
    for f in free_cols:
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for k in reversed(range(len(pivot_cols))):
            c = pivot_cols[k]
            s = sum((work[k][j] * x[j] for j in range(c + 1, n)), Fraction(0))
            x[c] = -s / work[k][c]
        vectors.append(tuple(x))
    return KernelBasis(tuple(vectors), free_cols, tuple(pivot_cols))


def kernel_basis(matrix: Sequence[Sequence[int]]) -> KernelBasis:
    """Basis of the rational kernel {c : matrix @ c = 0}.

    Returns one vector per non-pivot (free) column, in free-column order.
    For a full-column-rank matrix the vector tuple is empty.
    """
    return _kernel(validate_matrix(matrix))


def scale_to_primitive(vector: Sequence[int | Fraction]) -> tuple[int, ...]:
    """Scale by the unique positive rational giving coprime integer entries.

    Orientation is preserved; use :func:`primitive_scale` for the canonical
    sign convention.
    """
    entries = [Fraction(x) for x in vector]
    if all(x == 0 for x in entries):
        raise ValueError("the zero vector has no primitive scaling")
    denom = lcm(*(x.denominator for x in entries))
    ints = [int(x * denom) for x in entries]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def primitive_scale(vector: Sequence[int | Fraction]) -> tuple[int, ...]:
    """Canonical primitive integer vector: coprime entries, first nonzero > 0."""
    ints = scale_to_primitive(vector)
    first = next(x for x in ints if x)
    if first < 0:
        ints = tuple(-x for x in ints)
    return ints


def solve_in_basis(
    matrix: Sequence[Sequence[int]],
    basis_cols: Sequence[int],
    target_col: int,
) -> tuple[Fraction, ...]:
    """Express column *target_col* as a combination of the columns *basis_cols*.

    Args:
        matrix: integer matrix whose columns are combined.
        basis_cols: indices of linearly independent columns; their count must
            equal the rank of the whole matrix, so they span the column space.
        target_col: index of the column to express; must not be a basis column.
            Every index is an ``int``, not a ``bool``.

    Returns:
        Exact rational coefficients, ordered like ``basis_cols``.
    """
    rows = validate_matrix(matrix)
    n = len(rows[0])
    cols = list(basis_cols)
    for c in cols + [target_col]:
        if type(c) is not int:  # a bool would pass as 0 or 1
            raise ValueError(f"column index must be an integer, got {c!r}")
        if not 0 <= c < n:
            raise ValueError(f"column index {c} out of range for {n} columns")
    if len(set(cols)) != len(cols):
        raise ValueError("basis columns contain duplicates")
    if target_col in cols:
        raise ValueError("target column must not be a basis column")
    r = rank(rows)
    if len(cols) != r:
        raise ValueError(f"expected {r} basis columns (the matrix rank), got {len(cols)}")

    # As many columns as the rank span the column space exactly when they are
    # independent, so the one free column of the system is then the target.
    kernel = _kernel([[row[c] for c in cols] + [row[target_col]] for row in rows])
    if kernel.free_columns != (len(cols),):
        raise ValueError("basis columns are not linearly independent")
    return tuple(-x for x in kernel.vectors[0][:-1])


def _hermite(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Reduced row Hermite form of an integer matrix, by Euclid row steps.

    In each column the row with the least nonzero entry reduces the others by
    floor division until one is left. It becomes the positive pivot, and the
    rows above are reduced into [0, pivot). Every step is unimodular.
    """
    work = [list(row) for row in rows]
    r = 0
    for c in range(len(work[0])):
        nonzero = [i for i in range(r, len(work)) if work[i][c]]
        if not nonzero:
            continue
        while len(nonzero) > 1:
            top = work[min(nonzero, key=lambda i: abs(work[i][c]))]
            for i in nonzero:
                if work[i] is not top:
                    q = work[i][c] // top[c]
                    work[i] = [x - q * t for x, t in zip(work[i], top)]
            nonzero = [i for i in nonzero if work[i][c]]
        work[r], work[nonzero[0]] = work[nonzero[0]], work[r]
        if work[r][c] < 0:
            work[r] = [-x for x in work[r]]
        top = work[r]
        for i in range(r):
            if q := work[i][c] // top[c]:
                work[i] = [x - q * t for x, t in zip(work[i], top)]
        r += 1
    return work


def integer_kernel_basis(matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Lattice basis of {c in Z^n : matrix @ c = 0}, in reduced Hermite form.

    The basis is the I-part of the rows of the Hermite form of [matrix^T | I]
    whose matrix^T part is zero. The row steps are unimodular, so it spans the
    *saturated* kernel lattice; clearing the denominators of a rational kernel
    basis can give a proper sublattice. The form is canonical: each vector's
    first nonzero entry, its pivot, is positive and right of the previous
    vector's, and the other vectors lie in [0, pivot) in its column.
    """
    rows = validate_matrix(matrix)
    m, n = len(rows), len(rows[0])
    stacked = [[row[j] for row in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    return tuple(tuple(row[m:]) for row in _hermite(stacked) if not any(row[:m]))
