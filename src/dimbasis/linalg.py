"""Exact linear algebra over integer matrices.

Floating point never enters. :func:`rank` runs on plain ints: one
fraction-free forward elimination (Bareiss 1968), in :func:`_rank`, whose
every division is exact. ``fractions.Fraction`` remains only in kernels and
solves. A matrix is a sequence of rows, each row a sequence of integers.
Elimination picks the first nonzero entry in each column as pivot, which makes
every result deterministic. Kernels rest on :func:`_echelon` plus, in
:func:`_kernel`, one back-substitution per free column. Systems are solved
through that kernel, and ``enumeration.basis_set_invariants`` reads a basis
set's reductions off it.
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


def _echelon(rows: Sequence[Sequence[int | Fraction]]):
    """Forward elimination; returns (reduced rows, pivot column indices)."""
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
    return work, pivot_cols


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


def _kernel(rows: Sequence[Sequence[int | Fraction]]) -> KernelBasis:
    """:func:`kernel_basis` without validation, so entries may be Fractions."""
    work, pivot_cols = _echelon(rows)
    n = len(rows[0])
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

    Returns:
        Exact rational coefficients, ordered like ``basis_cols``.
    """
    rows = validate_matrix(matrix)
    n = len(rows[0])
    cols = list(basis_cols)
    if len(set(cols)) != len(cols):
        raise ValueError("basis columns contain duplicates")
    for c in cols + [target_col]:
        if not 0 <= c < n:
            raise ValueError(f"column index {c} out of range for {n} columns")
    if target_col in cols:
        raise ValueError("target column must not be a basis column")
    r = rank(rows)
    if len(cols) != r:
        raise ValueError(f"expected {r} basis columns (the matrix rank), got {len(cols)}")

    columns = tuple(zip(*rows))
    x = express_in_span([columns[c] for c in cols], columns[target_col])
    if x is None:
        raise ValueError("target column lies outside the span of the basis columns")
    return x


def express_in_span(
    vectors: Sequence[Sequence[int | Fraction]],
    target: Sequence[int | Fraction],
) -> tuple[Fraction, ...] | None:
    """Solve sum(x_i * vectors[i]) == target for linearly independent vectors.

    Returns None when the target is outside the span: a pivot in the last
    column of ``[vectors | -target]``. Otherwise that matrix has one kernel
    vector, 1 in the last column, and the coefficients are its other entries.
    """
    k = len(vectors)
    augmented = [[vector[j] for vector in vectors] + [-t] for j, t in enumerate(target)]
    kernel = _kernel(augmented)
    if k in kernel.pivot_columns:
        return None
    if len(kernel.vectors) != 1:
        raise ValueError("vectors are not linearly independent")
    return kernel.vectors[0][:k]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with g = x*a + y*b and g >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def integer_kernel_basis(matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Lattice basis of {c in Z^n : matrix @ c = 0}.

    Works by unimodular column reduction: gcd column operations drive the
    matrix to column-echelon form while the same operations are applied to an
    identity matrix. The identity columns that end up mapping to zero form a
    basis of the *saturated* integer kernel lattice, i.e. every integer kernel
    vector is an integer combination of the returned vectors. (Clearing
    denominators of a rational kernel basis does not guarantee that; it can
    generate a proper sublattice.)
    """
    rows = validate_matrix(matrix)
    m, n = len(rows), len(rows[0])
    a = [list(row) for row in rows]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    pos = 0
    for i in range(m):
        if pos == n:
            break
        for j in range(pos + 1, n):
            if a[i][j] == 0:
                continue
            p, q = a[i][pos], a[i][j]
            g, x, y = _xgcd(p, q)
            pg, qg = p // g, q // g
            for mat in (a, u):
                for row in mat:
                    cp, cj = row[pos], row[j]
                    row[pos] = x * cp + y * cj
                    row[j] = pg * cj - qg * cp
        if a[i][pos] != 0:
            pos += 1
    return tuple(tuple(u[i][j] for i in range(n)) for j in range(pos, n))
