"""Graver bases of integer kernel lattices, at desk scale.

Order the nonzero integer kernel vectors of a dimensional matrix by
``x <= y  iff  x_i * y_i >= 0 and |x_i| <= |y_i| for every i`` (sign
compatible and entrywise no larger). The Graver basis is the set of minimal
elements under this order. Every circuit tuple is such a minimal element, so
the circuit basis embeds into the Graver basis; the converse can fail.
Minimal elements are primitive and come with their sign flips, so
:func:`graver_basis` returns them as :class:`~dimbasis.model.InvariantPair`
values, the same type as the circuit basis, and the two compare as sets:
the embedding is ``set(circuit_basis(m)) <= graver_basis(m)``.

Two methods are provided:

* ``completion``: a Pottier-style completion. Starting from a lattice basis
  of the integer kernel plus negations, each new vector's sums with the
  earlier ones are reduced to normal form until closure, then non-minimal
  elements are discarded. The starting basis is saturated (see
  :func:`dimbasis.linalg.integer_kernel_basis`), which makes the result the
  full Graver basis regardless of processing order.
* ``brute_force``: enumerate kernel points with all entries bounded and keep
  the minimal ones. Exact for every element within the bound, but blind to
  Graver elements with larger entries; useful as an independent oracle. The
  box holds (2*bound + 1)^n points; one of more than :data:`MAX_BOX_POINTS`
  raises :class:`~dimbasis.model.SizeLimitError` before the search starts.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from typing import Iterable, Sequence

from . import linalg
from .model import DimensionalMatrix, Invariant, InvariantPair, SizeLimitError

Vector = tuple[int, ...]

# The brute-force search visits every point of its box, about 0.25 s per
# 10^5 points at n = 5 (Python 3.11), so the cap keeps it to seconds.
MAX_BOX_POINTS = 10**6

# Each normal form scans the generators found so far. A seeded 3 x 7 matrix needs
# 40,200 (12-17 s, Python 3.11); the cap lets it finish and stops 3 x 8 in 17-21 s.
_MAX_NORMAL_FORMS = 50_000


def conforms(x: Sequence[int], y: Sequence[int]) -> bool:
    """Whether x <= y in the sign-compatible entrywise order."""
    return all(a * b >= 0 and abs(a) <= abs(b) for a, b in zip(x, y))


def _normal_form(v: Vector, generators: Iterable[Vector]) -> Vector:
    reduced = True
    while reduced and any(v):
        reduced = False
        for g in generators:
            if conforms(g, v):
                v = tuple(a - b for a, b in zip(v, g))
                reduced = True
                break
    return v


def _minimal_elements(vectors: Iterable[Vector]) -> set[Vector]:
    pool = set(vectors)
    return {
        v for v in pool
        if not any(w != v and conforms(w, v) for w in pool)
    }


def _completion(rows: Sequence[Sequence[int]]) -> set[Vector]:
    # Generators come in pairs v, -v, and -v + g = -(v + (-g)): negating the
    # reduction of v + (-g) reduces -v + g, so only v's sums are queued. None is
    # added twice: the lattice basis is independent, and a generator reduces to 0.
    generators: list[Vector] = []
    queue: deque[Vector] = deque()

    def add_pair(vector: Vector) -> None:
        queue.extend(tuple(a + b for a, b in zip(vector, g)) for g in generators)
        generators.extend((vector, tuple(-x for x in vector)))

    for b in linalg.integer_kernel_basis(rows):
        add_pair(b)
    normal_forms = 0
    while queue:
        normal_forms += 1
        if normal_forms > _MAX_NORMAL_FORMS:
            raise SizeLimitError(
                f"Graver completion would compute more than {_MAX_NORMAL_FORMS} normal forms"
            )
        s = _normal_form(queue.popleft(), generators)
        if any(s):
            add_pair(s)
    return _minimal_elements(generators)


def _brute_force(rows: Sequence[Sequence[int]], bound: int) -> set[Vector]:
    n = len(rows[0])
    points = [
        c
        for c in product(range(-bound, bound + 1), repeat=n)
        if any(c) and all(sum(r * x for r, x in zip(row, c)) == 0 for row in rows)
    ]
    return _minimal_elements(points)


def graver_basis(
    matrix: DimensionalMatrix,
    method: str = "completion",
    *,
    bound: int | None = None,
) -> frozenset[InvariantPair]:
    """Compute the Graver basis of the matrix kernel.

    Args:
        matrix: the dimensional matrix.
        method: "completion" (full basis) or "brute_force" (bounded search;
            requires ``bound`` and may miss elements beyond it).
        bound: entry bound for the brute-force method, an ``int`` of at
            least 1 (not a ``bool``); the box of (2*bound + 1)^n points may
            hold at most ``MAX_BOX_POINTS``. The completion takes no bound.

    Returns:
        The basis as a frozenset of invariant pairs, the type the circuit
        basis uses; each pair stands for both of its orientations.
    """
    n = len(matrix.quantities)
    rows = matrix.rows
    if method == "completion":
        if bound is not None:
            raise ValueError(f"the completion method takes no bound, got {bound!r}")
        vectors = _completion(rows)
    elif method == "brute_force":
        if bound is not None and type(bound) is not int:  # a bool is no bound
            raise ValueError(f"brute-force bound must be an integer, got {bound!r}")
        if bound is None or bound < 1:
            raise ValueError("brute-force bound must be at least 1")
        side = 2 * bound + 1
        if side**n > MAX_BOX_POINTS:
            raise SizeLimitError(
                f"brute-force box has {side}^{n} points, exceeding the cap of {MAX_BOX_POINTS}"
            )
        vectors = _brute_force(rows, bound)
    else:
        raise ValueError(f"unknown Graver method: {method!r}")
    return frozenset(InvariantPair(Invariant(v)) for v in vectors)

