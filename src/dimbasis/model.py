"""Domain model: dimension systems, quantities, dimensional matrices, invariants.

A dimensional matrix records, column by column, the integer exponents of each
quantity over an ordered list of base dimensions. An invariant is a power
product of the quantities whose value does not change under rescaling of the
base units; equivalently, an integer vector in the kernel of the matrix.
The package never uses floating point: exponents are integers, and every
derived exponent is an exact rational.

Every value rule of an input lives here; the parser and the CLI only say
where a value came from. :class:`DimensionSystem` owns the dimension names,
:class:`Quantity` the quantity name, integer exponents and a UTF-8 encodable
``display``, :func:`build_matrix` the quantity count, unique names and one
exponent per dimension, and :func:`_check_roles` the dependent and excluded
quantities. Messages start with a field path (``dims[0]: ...``) that a caller
prefixes with its own location.

All values are immutable after construction and safe to share across threads.
The value types here and in the other modules are slotted classes on one
private base, not dataclasses: they compare equal when of the same class with
equal fields, hash, print, pickle and copy as before, and raise
``AttributeError`` on any assignment or deletion. ``dataclasses.replace``,
``fields`` and ``asdict`` do not apply to them; build a new value instead.
"""

from __future__ import annotations

import math
import re
from operator import attrgetter
from typing import Sequence

from . import linalg

# Names may carry parentheses, slashes, dots, primes and signs so that labels
# like "S(t)" or "dP/l" stay legal; whitespace and commas are not allowed.
QUANTITY_NAME_RE = re.compile(r"[A-Za-z0-9_()./+'-]+")
DIMENSION_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# Sets a field of a value under construction, past the refusing __setattr__.
_set = object.__setattr__


class SizeLimitError(Exception):
    """Raised when an input exceeds a size cap; the message names the size and the cap."""


class _Value:
    """Base of the immutable value types; the fields are ``__slots__``, in order.

    A subclass names its fields in ``__slots__`` and sets each one once, with
    :data:`_set`, in its ``__init__``. Values are equal when they are of the
    same class with equal fields. ``repr`` reads ``Name(field=value, ...)``,
    and pickling and copying call the constructor on the fields.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # The field tuple (the bare value for one field), read by one C call.
        values = attrgetter(*cls.__slots__)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self):
            return hash(values(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__
        cls.__match_args__ = cls.__slots__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DimensionSystem(_Value):
    """Ordered base dimensions; the order fixes the row order of a matrix."""

    __slots__ = ("names",)
    names: tuple[str, ...]

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if not names:
            raise ValueError("dimensions: expected at least one dimension")
        for k, name in enumerate(names):
            if not DIMENSION_NAME_RE.fullmatch(name):
                raise ValueError(f"dimensions[{k}]: invalid dimension name {name!r}")
            if name in names[:k]:
                raise ValueError(f"dimensions[{k}]: duplicate dimension {name!r}")
        _set(self, "names", names)

    @property
    def size(self) -> int:
        return len(self.names)


class Quantity(_Value):
    """A named quantity with one integer exponent per base dimension.

    ``display`` is an optional LaTeX string used only for rendering; the
    engine never parses it.
    """

    __slots__ = ("name", "dims", "display")
    name: str
    dims: tuple[int, ...]
    display: str | None

    def __init__(self, name: str, dims: Sequence[int], display: str | None = None):
        dims = tuple(dims)
        if not QUANTITY_NAME_RE.fullmatch(name):
            raise ValueError(
                f"name: invalid quantity name {name!r} "
                "(letters, digits and _ ( ) . / + ' - are allowed, no whitespace)"
            )
        for k, e in enumerate(dims):
            if not isinstance(e, int) or isinstance(e, bool):
                raise ValueError(f"dims[{k}]: non-integer exponent {e!r}")
        if display is not None:
            if not isinstance(display, str):
                raise ValueError("display: expected a string")
            # A JSON \u escape can yield a lone surrogate, which no output can encode.
            try:
                display.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError("display: not encodable as UTF-8") from None
        _set(self, "name", name)
        _set(self, "dims", dims)
        _set(self, "display", display)


class DimensionalMatrix(_Value):
    """A validated dimensional matrix with its rank cached.

    Build instances through :func:`build_matrix`.
    """

    __slots__ = ("system", "quantities", "rank")
    system: DimensionSystem
    quantities: tuple[Quantity, ...]
    rank: int

    def __init__(self, system: DimensionSystem, quantities: tuple[Quantity, ...], rank: int):
        _set(self, "system", system)
        _set(self, "quantities", quantities)
        _set(self, "rank", rank)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(q.name for q in self.quantities)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The matrix itself: one row per dimension, one column per quantity."""
        m = self.system.size
        return tuple(tuple(q.dims[i] for q in self.quantities) for i in range(m))

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(q.dims for q in self.quantities)


def build_matrix(system: DimensionSystem, quantities: Sequence[Quantity]) -> DimensionalMatrix:
    """Validate quantities against the system and cache the rank."""
    qs = tuple(quantities)
    if not qs:
        raise ValueError("quantities: expected at least one quantity")
    seen: set[str] = set()
    for k, q in enumerate(qs):
        if len(q.dims) != system.size:
            raise ValueError(
                f"quantities[{k}].dims: expected {system.size} exponents, got {len(q.dims)}"
            )
        if q.name in seen:
            raise ValueError(f"quantities[{k}].name: duplicate quantity {q.name!r}")
        seen.add(q.name)
    r = linalg._rank(tuple(zip(*(q.dims for q in qs))))
    return DimensionalMatrix(system=system, quantities=qs, rank=r)


def _check_roles(
    matrix: DimensionalMatrix, dependent: int | None, excluded: Sequence[int]
) -> None:
    """Validate the quantity roles of an analysis, given as column indices.

    Every index must name a quantity, no quantity may be excluded twice, and
    the dependent quantity (None when there is none) may not be excluded.
    """
    n = len(matrix.quantities)
    if dependent is not None and not 0 <= dependent < n:
        raise ValueError(f"dependent index {dependent} out of range for {n} quantities")
    for k, j in enumerate(excluded):
        if not 0 <= j < n:
            raise ValueError(f"excluded index {j} out of range for {n} quantities")
        name = matrix.quantities[j].name
        if j in excluded[:k]:
            raise ValueError(f"duplicate excluded quantity {name!r}")
        if j == dependent:
            raise ValueError(f"excluded quantity {name!r} is already the dependent quantity")


class Invariant(_Value):
    """Exponent vector of a minimal invariant power product.

    Entries are coprime integers over the full quantity order (zeros where a
    quantity does not participate). Both orientations of a pair are valid
    Invariants; see :class:`InvariantPair` for the canonical representative.
    """

    __slots__ = ("exponents",)
    exponents: tuple[int, ...]

    def __init__(self, exponents: Sequence[int]):
        exponents = tuple(exponents)
        nonzero = [abs(e) for e in exponents if e]
        if not nonzero:
            raise ValueError("an invariant cannot have an all-zero exponent vector")
        if math.gcd(*nonzero) != 1:
            raise ValueError(f"exponents are not relatively prime: {exponents}")
        _set(self, "exponents", exponents)

    def flipped(self) -> "Invariant":
        return Invariant(tuple(-e for e in self.exponents))

    def canonical(self) -> "Invariant":
        """The orientation with a positive first nonzero exponent."""
        first = next(e for e in self.exponents if e)
        return self if first > 0 else self.flipped()


class InvariantPair(_Value):
    """An invariant together with its sign flip, stored canonically.

    Two pairs are equal exactly when their canonical exponent vectors are.
    Either orientation may be passed in; it is canonicalized on construction.
    """

    __slots__ = ("canonical",)
    canonical: Invariant

    def __init__(self, canonical: Invariant):
        _set(self, "canonical", canonical.canonical())

    @property
    def exponents(self) -> tuple[int, ...]:
        return self.canonical.exponents

