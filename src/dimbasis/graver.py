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

Each vector v of length n is one int A(v) of 2n fields of w bits: field i
holds max(v_i, 0), field n + i holds max(-v_i, 0), and the top bit of each
field is a guard, kept clear. With H the guard bits, ``x <= y`` exactly when
``((A(y) | H) - A(x)) & H == H``, signs included; then A(y - x) = A(y) - A(x)
and A(x) <= A(y) as ints. Negation swaps the halves, and ``(A + H - L) & H``,
with L the low bit of each field, is the signed support. Two methods are
provided:

* ``completion``: a Pottier-style completion. Starting from the reduced
  Hermite basis of the integer kernel lattice plus negations, each new
  vector's sums with the earlier ones are reduced to normal form until
  closure, then non-minimal elements are discarded. The sum of two
  sign-compatible vectors is skipped, since it reduces to 0 through either of
  them. The starting basis is saturated (see
  :func:`dimbasis.linalg.integer_kernel_basis`), which makes the result the
  full Graver basis regardless of processing order. The fields start as wide
  as the largest basis entry needs; a sum that does not fit widens them by a
  bit, so any input stays exact. A normal form is one pass over the
  generators: the remainder only shrinks, so a generator that does not reduce
  it now never will. The completion runs on the simple matrix, one column per
  class of columns equal up to sign, with the zero columns (dimensionless
  quantities) dropped, and its elements are expanded: a zero column j gives
  +-e_j, two columns a, b of a class with signs s_a, s_b give
  +-(s_b e_a - s_a e_b), and each simple element shares its value x at a class
  of t columns among them in every same-sign way, C(|x| + t - 1, t - 1) of
  them. An expansion of more than ``_MAX_EXPANDED_PAIRS`` pairs raises
  :class:`~dimbasis.model.SizeLimitError` before any is built.
* ``brute_force``: enumerate kernel points with all entries bounded and keep
  the minimal ones. Exact for every element within the bound, but blind to
  Graver elements with larger entries; useful as an independent check. It
  meets in the middle on ints: a point of one column half is a key, its row
  sums as the digits of one int, and its packed A. Left points are grouped by
  key, each right one is looked up by its negated key, and a kernel point is
  the sum of their A's. A box of more than :data:`MAX_BOX_POINTS` points
  raises :class:`~dimbasis.model.SizeLimitError` before the search starts.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, combinations, product
from math import comb, prod
from operator import neg
from typing import Iterable, Sequence

from . import linalg
from .model import DimensionalMatrix, Invariant, InvariantPair, SizeLimitError

Vector = tuple[int, ...]
# Classes of columns equal up to sign: each member is (column index, sign).
Classes = list[list[tuple[int, int]]]

# The box search visits two halves of about (2*bound + 1)^(n/2) points each, so
# the cap bounds the kernel points that the minimal-element filter sorts and
# compares: a zero row at 3^12 points, all of them kernel points, takes about 0.6 s.
MAX_BOX_POINTS = 10**6

# Each normal form scans the growing generator list, so it is charged the list's
# length. A seeded 3 x 7 matrix is charged 11.9 million (about 0.45 s, Python
# 3.11); the cap lets it finish and stops 3 x 8 and 3 x 12 in about 1 s.
_MAX_GENERATOR_SCANS = 30_000_000

# The expansion from the simple matrix counts the pairs it would build before it
# builds any. At 20 quantities a pair costs about 10 us (Python 3.11), so an
# expansion at the cap takes about 1 s.
_MAX_EXPANDED_PAIRS = 100_000

# The completion's least field width: entries up to 127 fit without widening.
_MIN_FIELD_WIDTH = 8


def conforms(x: Sequence[int], y: Sequence[int]) -> bool:
    """Whether x <= y in the sign-compatible entrywise order.

    Raises ValueError for vectors of unequal length.
    """
    if len(x) != len(y):
        raise ValueError(f"cannot compare vectors of lengths {len(x)} and {len(y)}")
    return all(a * b >= 0 and abs(a) <= abs(b) for a, b in zip(x, y))


def _guards(width: int, fields: int) -> int:
    return sum(1 << (width * k + width - 1) for k in range(fields))


def _pack(v: Vector, width: int) -> int:
    n = len(v)
    return sum(x << (width * i) if x > 0 else -x << (width * (n + i)) for i, x in enumerate(v))


def _unpack(packed: Iterable[int], width: int, n: int) -> list[Vector]:
    field = (1 << width) - 1
    return [
        tuple((a >> (width * i) & field) - (a >> (width * (n + i)) & field) for i in range(n))
        for a in packed
    ]


def _normal_form(a: int, generators: Sequence[int], guards: int) -> int:
    # g <= a exactly when taking g from a with every guard set clears no guard, and
    # the difference then has every guard set again. The remainder only shrinks
    # under <=, so a generator that does not reduce it now never will: one pass,
    # taking each generator while it reduces, subtracts the same sequence as
    # rescanning from the first generator after every step.
    high = a | guards
    for g in generators:
        while (d := high - g) & guards == guards:
            if d == guards:
                return 0
            high = d
    return high - guards


def _minimal_elements(vectors: Iterable[int], guards: int) -> list[int]:
    # A packed vector strictly below v is a smaller int, so in increasing order v
    # is minimal exactly when none of the minimal elements kept so far is below
    # it (a repeat of v is below v, so it is dropped).
    minimal: list[int] = []
    for v in sorted(vectors):
        high = v | guards
        if not any((high - w) & guards == guards for w in minimal):
            minimal.append(v)
    return minimal


def _completion(rows: Sequence[Sequence[int]]) -> set[Vector]:
    # Generators come in pairs v, -v, and -v + g = -(v + (-g)): negating the
    # reduction of v + (-g) reduces -v + g, so only v's sums are formed. None is
    # added twice: the lattice basis is independent, and a generator reduces to 0.
    # A sum of sign-compatible v and g is not formed either: g <= v + g, so it
    # reduces through g to v and then to 0. They are compatible exactly when g
    # shares no signed support with -v.
    basis = linalg.integer_kernel_basis(rows)
    n = len(rows[0])
    largest = max((abs(x) for b in basis for x in b), default=0)
    width = max(_MIN_FIELD_WIDTH, largest.bit_length() + 1)

    def layout(width: int) -> tuple[int, int, int, int, int]:
        # (A + support) & guards is the signed support of A; half holds the
        # guards and low the fields of the positive half.
        guards, low = _guards(width, 2 * n), (1 << (width * n)) - 1
        return guards, guards - (guards >> (width - 1)), guards & low, low, width * n

    guards, support, half, low, shift = layout(width)
    generators: list[int] = []

    def add_pair(a: int) -> None:
        generators.extend((a, (a >> shift) | (a & low) << shift))

    for b in basis:
        add_pair(_pack(b, width))
    scans = 0
    # Each vector sits at an even index i, its negation at i + 1; its sums with
    # the generators before it are formed when i is reached, so vectors are
    # processed in the order they were added.
    i = 0
    while i < len(generators):
        clashes = (generators[i + 1] + support) & guards
        for j in [j for j, g in enumerate(generators[:i]) if (g + support) & clashes]:
            scans += len(generators)
            if scans > _MAX_GENERATOR_SCANS:
                raise SizeLimitError(
                    f"Graver completion would scan more than {_MAX_GENERATOR_SCANS} generators"
                )
            while (s := generators[i] + generators[j]) & guards:
                # A field of the sum overflows into its guard: widen every field.
                vectors = _unpack(generators, width, n)
                width += 1
                guards, support, half, low, shift = layout(width)
                generators[:] = [_pack(v, width) for v in vectors]
            # Cancel the halves: d's guard i is set where s_i >= s_n+i, and its
            # field i holds s_i - s_n+i + 2^(w-1) in (0, 2^w).
            d = (s & low | half) - (s >> shift)
            kept = d & half
            pos = d & (kept - (kept >> (width - 1)))
            s = _normal_form(pos | (half - d + pos) << shift, generators, guards)
            if s:
                add_pair(s)
        i += 2
    return set(_unpack(_minimal_elements(generators, guards), width, n))


def _simplify(rows: Sequence[Sequence[int]]) -> tuple[list[int], Classes, list[Vector]]:
    # The zero columns; the columns grouped into classes equal up to sign, in order
    # of first occurrence, each member (j, sign) relative to the class's first
    # member; and the rows of the simple matrix of those first members.
    loops: list[int] = []
    classes: dict[Vector, list[tuple[int, int]]] = {}
    for j, column in enumerate(zip(*rows)):
        if column in classes:
            classes[column].append((j, 1))
        elif (negated := tuple(map(neg, column))) in classes:
            classes[negated].append((j, -1))
        elif any(column):
            classes[column] = [(j, 1)]
        else:
            loops.append(j)
    return loops, list(classes.values()), list(zip(*classes))


def _expand(simple: set[Vector], loops: list[int], classes: Classes, n: int) -> list[Vector]:
    # One orientation of each Graver pair of the full matrix: e_j per zero column j,
    # e_a - s_a s_b e_b per pair a < b of a class with signs s, and each simple pair
    # with its value x at a class of t members split into every same-sign
    # composition, a member of sign s taking s times its share: C(|x| + t - 1, t - 1)
    # ways. A vector is oriented by its first nonzero entry.
    oriented = [u for u in simple if next(filter(None, u)) > 0]
    repeated = [k for k, c in enumerate(classes) if len(c) > 1]
    count = len(loops) + sum(comb(len(classes[k]), 2) for k in repeated) + sum(
        prod(comb(abs(u[k]) + len(classes[k]) - 1, len(classes[k]) - 1) for k in repeated)
        for u in oriented)
    if count > _MAX_EXPANDED_PAIRS:
        raise SizeLimitError(f"Graver expansion would build {count} pairs, "
                             f"exceeding the cap of {_MAX_EXPANDED_PAIRS}")
    out: list[Vector] = []
    for entries in [{j: 1} for j in loops] + [
        {a: 1, b: -sa * sb} for k in repeated for (a, sa), (b, sb) in combinations(classes[k], 2)
    ]:
        v = [0] * n
        for j, x in entries.items():
            v[j] = x
        out.append(tuple(v))
    # A vector is read off (*u, *shares, 0): a zero column reads the 0, a column
    # alone in its class k reads u[k], and a member of a repeated class its share.
    members = [j for k in repeated for j, _ in classes[k]]
    where = [len(classes) + len(members)] * n
    for k, c in enumerate(classes):
        where[c[0][0]] = k
    for i, j in enumerate(members, len(classes)):
        where[j] = i
    shares: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for u in oriented:
        for k in repeated:
            if (k, u[k]) not in shares:
                # Stars and bars: t - 1 bars among |x| + t - 1 places cut |x| into t parts.
                signs = [s if u[k] > 0 else -s for _, s in classes[k]]
                places = abs(u[k]) + len(signs) - 1
                shares[k, u[k]] = [
                    tuple(s * (b - a - 1) for s, a, b in zip(signs, (-1, *bars), (*bars, places)))
                    for bars in combinations(range(places), len(signs) - 1)
                ]
        for choice in product(*(shares[k, u[k]] for k in repeated)):
            flat = (*u, *chain.from_iterable(choice), 0)
            v = tuple(map(flat.__getitem__, where))
            out.append(v if next(filter(None, v)) > 0 else tuple(map(neg, v)))
    return out


def _brute_force(rows: Sequence[Sequence[int]], bound: int) -> set[Vector]:
    # A half-point is (key, packed A): key holds row i's sum as digit i in base 2^k,
    # 2^k > bound * max_i sum_j |a_ij|, so a left key plus a right key is 0 exactly
    # when every row sum cancels (the lowest that did not would be a multiple of 2^k).
    n, width = len(rows[0]), bound.bit_length() + 1
    k = (bound * max(sum(map(abs, row)) for row in rows)).bit_length()

    def half(columns: range) -> list[tuple[int, int]]:
        points = [(0, 0)]
        for j in columns:
            image = sum(row[j] << (k * i) for i, row in enumerate(rows))
            steps = [(x * image, x << width * j if x > 0 else -x << width * (n + j))
                     for x in range(-bound, bound + 1)]
            points = [(key + a, packed + b) for key, packed in points for a, b in steps]
        return points

    left: defaultdict[int, list[int]] = defaultdict(list)
    for key, packed in half(range(n // 2)):
        left[key].append(packed)
    kernel = [s for key, b in half(range(n // 2, n)) for a in left.get(-key, ()) if (s := a + b)]
    return set(_unpack(_minimal_elements(kernel, _guards(width, 2 * n)), width, n))


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
        loops, classes, simple = _simplify(rows)
        if len(classes) == n:
            vectors = _completion(rows)
        else:
            vectors = _expand(_completion(simple) if classes else set(), loops, classes, n)
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
    # Both orientations are minimal: build each pair once, from the orientation
    # with a positive first nonzero entry.
    return frozenset(InvariantPair(Invariant(v)) for v in vectors if next(filter(None, v)) > 0)

