"""Independent checks of benchmark outputs.

Everything here is plain integer arithmetic (fraction-free Bareiss
elimination and determinants) and imports nothing from ``dimbasis``, so a
change to ``dimbasis.linalg`` cannot hide its own mistakes from the checks.
A matrix is a list of rows of ints.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd


def rank(rows) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    m = len(a)
    if not m:
        return 0
    n = len(a[0])
    r, prev = 0, 1
    for c in range(n):
        p = next((i for i in range(r, m) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        piv = a[r][c]
        for i in range(r + 1, m):
            lead = a[i][c]
            row_i, row_r = a[i], a[r]
            for j in range(c + 1, n):
                row_i[j] = (row_i[j] * piv - lead * row_r[j]) // prev
            row_i[c] = 0
        prev = piv
        r += 1
        if r == m:
            break
    return r


def det(square) -> int:
    """Determinant of a square integer matrix (1 for the empty matrix)."""
    a = [list(r) for r in square]
    k = len(a)
    sign, prev = 1, 1
    for c in range(k):
        p = next((i for i in range(c, k) if a[i][c]), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            sign = -sign
        for i in range(c + 1, k):
            for j in range(c + 1, k):
                a[i][j] = (a[i][j] * a[c][c] - a[i][c] * a[c][j]) // prev
        prev = a[c][c]
    return sign * (a[k - 1][k - 1] if k else 1)


def columns_of(rows, subset):
    return [[row[j] for j in subset] for row in rows]


def in_kernel(rows, vector) -> bool:
    return all(sum(a * x for a, x in zip(row, vector)) == 0 for row in rows)


def is_primitive(vector) -> bool:
    return gcd(*vector) == 1


def canonical(vector) -> tuple[int, ...]:
    first = next(x for x in vector if x)
    return tuple(vector) if first > 0 else tuple(-x for x in vector)


def conforms(x, y) -> bool:
    """x is below y: sign compatible and entrywise no larger."""
    return all(a * b >= 0 and abs(a) <= abs(b) for a, b in zip(x, y))


def basis_sets(rows) -> list[tuple[int, ...]]:
    """All column subsets of size rank whose submatrix has full column rank."""
    r = rank(rows)
    n = len(rows[0])
    return [s for s in combinations(range(n), r) if rank(columns_of(rows, s)) == r]


def circuits(rows) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Circuit support -> canonical primitive circuit vector over all columns.

    A k-subset of rank k-1 has a kernel line spanned by the signed maximal
    minors (Cramer's rule) of any k-1 independent rows; the subset is a
    circuit exactly when none of those minors is zero.
    """
    n = len(rows[0])
    out = {}
    for k in range(1, rank(rows) + 2):
        for subset in combinations(range(n), k):
            sub = columns_of(rows, subset)
            if rank(sub) != k - 1:
                continue
            independent: list[list[int]] = []
            for row in sub:
                if len(independent) == k - 1:
                    break
                if rank(independent + [row]) > len(independent):
                    independent.append(row)
            minors = [
                (-1) ** j * det([r[:j] + r[j + 1:] for r in independent])
                for j in range(k)
            ]
            if any(v == 0 for v in minors):
                continue
            g = gcd(*minors)
            full = [0] * n
            for j, v in zip(subset, minors):
                full[j] = v // g
            out[subset] = canonical(full)
    return out
