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

Each vector carries its signed support as one int, bit i for a positive
entry i and bit n + i for a negative one. ``x <= y`` needs the support of x
inside that of y, an int test that rejects most pairs before the entrywise
one. Two methods are provided:

* ``completion``: a Pottier-style completion. Starting from the reduced
  Hermite basis of the integer kernel lattice plus negations, each new
  vector's sums with the earlier ones are reduced to normal form until
  closure, then non-minimal elements are discarded. The sum of two
  sign-compatible vectors is skipped, since it reduces to 0 through either of
  them. The starting basis is saturated (see
  :func:`dimbasis.linalg.integer_kernel_basis`), which makes the result the
  full Graver basis regardless of processing order.
* ``brute_force``: enumerate kernel points with all entries bounded and keep
  the minimal ones. Exact for every element within the bound, but blind to
  Graver elements with larger entries; useful as an independent check. The
  search meets in the middle: it groups the points of each half of the
  columns by their image and joins the halves on opposite images. The box
  holds (2*bound + 1)^n points; one of more than :data:`MAX_BOX_POINTS`
  raises :class:`~dimbasis.model.SizeLimitError` before the search starts.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import product
from operator import mul
from typing import Iterable, Sequence

from . import linalg
from .model import DimensionalMatrix, Invariant, InvariantPair, SizeLimitError

Vector = tuple[int, ...]

# The box search visits two halves of about (2*bound + 1)^(n/2) points each, so
# the cap bounds the kernel points that the minimal-element filter sorts and
# compares: a zero row at 3^12 points, all of them kernel points, takes about 4 s.
MAX_BOX_POINTS = 10**6

# Each normal form scans the growing generator list, so it is charged the list's
# length. A seeded 3 x 7 matrix is charged 11.9 million (about 1 s, Python 3.11);
# the cap lets it finish and stops 3 x 8 in about 2 s and 3 x 12 in about 1 s.
_MAX_GENERATOR_SCANS = 30_000_000


def conforms(x: Sequence[int], y: Sequence[int]) -> bool:
    """Whether x <= y in the sign-compatible entrywise order.

    Raises ValueError for vectors of unequal length.
    """
    if len(x) != len(y):
        raise ValueError(f"cannot compare vectors of lengths {len(x)} and {len(y)}")
    return all(a * b >= 0 and abs(a) <= abs(b) for a, b in zip(x, y))


def _signs(v: Vector) -> int:
    """The signed support of v: bit i for a positive entry i, bit n + i for a negative one."""
    n = len(v)
    return sum(1 << (i if x > 0 else n + i) for i, x in enumerate(v) if x)


def _normal_form(v: Vector, generators: Sequence[tuple[int, Vector]]) -> Vector:
    # g <= v needs the signed support of g inside that of v: one int test that
    # rejects most generators before the entrywise one.
    signs = _signs(v)
    while signs:
        for mask, g in generators:
            if mask | signs == signs and all(abs(a) <= abs(b) for a, b in zip(g, v)):
                v = tuple(b - a for a, b in zip(g, v))
                signs = _signs(v)
                break
        else:
            break
    return v


def _minimal_elements(vectors: Iterable[Vector]) -> set[Vector]:
    # A vector strictly below v has a smaller 1-norm, so in 1-norm order v is
    # minimal exactly when none of the minimal elements kept so far is below it
    # (a repeat of v is below v, so it is dropped).
    minimal: list[tuple[int, Vector]] = []
    for v in sorted(vectors, key=lambda v: sum(map(abs, v))):
        signs = _signs(v)
        if not any(
            mask | signs == signs and all(abs(a) <= abs(b) for a, b in zip(w, v))
            for mask, w in minimal
        ):
            minimal.append((signs, v))
    return {v for _, v in minimal}


def _completion(rows: Sequence[Sequence[int]]) -> set[Vector]:
    # Generators come in pairs v, -v, and -v + g = -(v + (-g)): negating the
    # reduction of v + (-g) reduces -v + g, so only v's sums are formed. None is
    # added twice: the lattice basis is independent, and a generator reduces to 0.
    # A sum of sign-compatible v and g is not formed either: g <= v + g, so it
    # reduces through g to v and then to 0. They are compatible exactly when g
    # shares no signed support with -v.
    generators: list[tuple[int, Vector]] = []
    # A new vector waits with the number of generators before it; its sums with
    # those are formed when it is reached, in the order a queue of sums would have.
    pending: deque[tuple[Vector, int, int]] = deque()

    def add_pair(vector: Vector) -> None:
        negated = tuple(-x for x in vector)
        clashes = _signs(negated)
        pending.append((vector, clashes, len(generators)))
        generators.extend(((_signs(vector), vector), (clashes, negated)))

    for b in linalg.integer_kernel_basis(rows):
        add_pair(b)
    scans = 0
    while pending:
        vector, clashes, count = pending.popleft()
        for g in [g for mask, g in generators[:count] if mask & clashes]:
            scans += len(generators)
            if scans > _MAX_GENERATOR_SCANS:
                raise SizeLimitError(
                    f"Graver completion would scan more than {_MAX_GENERATOR_SCANS} generators"
                )
            s = _normal_form(tuple(a + b for a, b in zip(vector, g)), generators)
            if any(s):
                add_pair(s)
    return _minimal_elements(v for _, v in generators)


def _half_box(rows: Sequence[Sequence[int]], bound: int) -> dict[Vector, list[Vector]]:
    """The points of the box over the columns of rows, grouped by their image."""
    images: defaultdict[Vector, list[Vector]] = defaultdict(list)
    for point in product(range(-bound, bound + 1), repeat=len(rows[0])):
        images[tuple(sum(map(mul, row, point)) for row in rows)].append(point)
    return images


def _brute_force(rows: Sequence[Sequence[int]], bound: int) -> set[Vector]:
    # Meet in the middle: a kernel point is a left half-point and a right one
    # whose images cancel.
    h = len(rows[0]) // 2
    left = _half_box([row[:h] for row in rows], bound)
    points = (
        x + y
        for image, rights in _half_box([row[h:] for row in rows], bound).items()
        for x in left.get(tuple(-e for e in image), ())
        for y in rights
    )
    return _minimal_elements(p for p in points if any(p))


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

