"""Problem-file parsing.

The normative input format is a JSON document:

    {
      "dimensions": ["L", "T", "M"],
      "quantities": [
        {"name": "dP/l", "dims": [-2, -2, 1], "display": "\\\\Delta P/\\\\ell"},
        {"name": "u", "expr": "L T^-1"}
      ],
      "dependent": "dP/l",
      "excluded": ["t"]
    }

Each quantity carries exactly one of ``dims`` (integer exponent list over the
declared dimensions, in order) or ``expr`` (a dimension expression).
``display`` is an optional LaTeX string for rendering. ``dependent`` and
``excluded`` are optional analysis directives naming declared quantities.
A key repeated within one JSON object is refused, at any level.

Dimension expression grammar:

    expr := term (('*' | whitespace) term)*
    term := IDENT ('^' SIGNED_INT)?

An omitted exponent means 1, IDENT must be a declared dimension, and repeated
IDENTs sum their exponents. SIGNED_INT is ASCII digits after at most one sign,
the integer syntax of the command-line options too.

This module owns only the document shape: JSON types, unknown and repeated
fields, exactly one of ``dims``/``expr``, the expression grammar, and the names
that ``dependent`` and ``excluded`` look up, in the file or on the command line.
The value rules (names, exponents, ``display``, repeated quantities, the roles)
belong to :mod:`dimbasis.model`; a ``ValueError`` from there is re-raised with
its document path in front.
"""

from __future__ import annotations

import json
import re
import sys
from typing import Sequence

from .model import (
    DimensionSystem,
    DimensionalMatrix,
    Quantity,
    _check_roles,
    _set,
    _Value,
    build_matrix,
)


class ProblemParseError(ValueError):
    """A malformed problem document; the message carries field context."""


class Problem(_Value):
    """A parsed problem: the matrix plus optional analysis directives."""

    __slots__ = ("matrix", "dependent", "excluded")
    matrix: DimensionalMatrix
    dependent: int | None
    excluded: tuple[int, ...]

    def __init__(self, matrix: DimensionalMatrix, dependent: int | None,
                 excluded: tuple[int, ...]):
        _set(self, "matrix", matrix)
        _set(self, "dependent", dependent)
        _set(self, "excluded", excluded)


def parse_dimension_expression(expr: str, dimensions: Sequence[str]) -> tuple[int, ...]:
    """Parse a dimension expression into an exponent vector.

    Raises ProblemParseError on unknown dimensions or non-integer exponents.
    """
    tokens = [t for t in re.split(r"[\s*]+", expr.strip()) if t]
    if not tokens:
        raise ProblemParseError(f"empty dimension expression: {expr!r}")
    exponents = {name: 0 for name in dimensions}
    for token in tokens:
        ident, caret, tail = token.partition("^")
        if ident not in exponents:
            raise ProblemParseError(f"unknown dimension {ident!r} in expression {expr!r}")
        power = 1
        if caret:
            try:
                power = _integer(tail)
            except ValueError:  # more digits than int() converts
                raise ProblemParseError(
                    f"exponent with {_too_long()} in expression {expr!r}"
                ) from None
            _require(power is not None, f"non-integer exponent {tail!r} in expression {expr!r}")
        exponents[ident] += power
    return tuple(exponents[name] for name in dimensions)


def _integer(text: str) -> int | None:
    """The one integer syntax of exponents and options: ASCII digits after at most one sign.

    None for any other text, such as ``++5``, ``1_0``, `` 2`` or non-ASCII digits,
    which ``int`` alone would accept or reject with a message of its own. Text
    with more digits than ``int()`` converts raises its ``ValueError``.
    """
    return int(text) if re.fullmatch(r"[+-]?[0-9]+", text) else None


def _too_long() -> str:
    return f"more than {sys.get_int_max_str_digits()} digits"


def _quantity_index(matrix: DimensionalMatrix, name: str, where: str) -> int:
    """The column of quantity ``name``; ``where`` is the field or flag that named it."""
    _require(name in matrix.names, f"{where}: unknown quantity {name!r}")
    return matrix.names.index(name)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProblemParseError(message)


def _at(where: str, build, *args):
    """Call a model constructor; prefix its ValueError with the document path."""
    try:
        return build(*args)
    except ValueError as e:
        raise ProblemParseError(f"{where}{e}") from None


def _parse_quantity(entry: object, index: int, dimensions: tuple[str, ...]) -> Quantity:
    where = f"quantities[{index}]"
    _require(isinstance(entry, dict), f"{where}: expected an object")
    assert isinstance(entry, dict)
    unknown = set(entry) - {"name", "dims", "expr", "display"}
    _require(not unknown, f"{where}: unknown field(s) {sorted(unknown)}")
    name = entry.get("name")
    _require(isinstance(name, str), f"{where}.name: expected a string")
    _require(
        ("dims" in entry) != ("expr" in entry),
        f"{where}: exactly one of 'dims' or 'expr' is required",
    )
    if "dims" in entry:
        vector = entry["dims"]
        _require(isinstance(vector, list), f"{where}.dims: expected a list of integers")
    else:
        expr = entry["expr"]
        _require(isinstance(expr, str), f"{where}.expr: expected a string")
        try:
            vector = parse_dimension_expression(expr, dimensions)
        except ProblemParseError as e:
            raise ProblemParseError(f"{where}.expr: {e}") from None
    return _at(f"{where}.", Quantity, name, vector, entry.get("display"))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key is refused, not overwritten."""
    obj: dict = {}
    for key, value in pairs:
        _require(key not in obj, f"duplicate key {key!r} in a JSON object")
        obj[key] = value
    return obj


def parse_problem(text: str) -> Problem:
    """Parse a problem document and build its validated dimensional matrix."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ProblemParseError(
            f"not valid JSON (line {e.lineno}, column {e.colno}): {e.msg}"
        ) from None
    except ProblemParseError:  # a ValueError too, so it must pass before that clause
        raise
    except ValueError:  # after JSONDecodeError, its subclass: an over-long integer
        raise ProblemParseError(f"not valid JSON: an integer has {_too_long()}") from None
    except RecursionError:
        raise ProblemParseError("not valid JSON: nested too deeply") from None
    _require(isinstance(doc, dict), "top level: expected a JSON object")
    assert isinstance(doc, dict)
    unknown = set(doc) - {"dimensions", "quantities", "dependent", "excluded"}
    _require(not unknown, f"top level: unknown field(s) {sorted(unknown)}")

    dims = doc.get("dimensions")
    _require(
        isinstance(dims, list) and all(isinstance(d, str) for d in dims),
        "dimensions: expected a list of strings",
    )
    assert isinstance(dims, list)
    system = _at("", DimensionSystem, tuple(dims))
    raw_quantities = doc.get("quantities")
    _require(isinstance(raw_quantities, list), "quantities: expected a list")
    assert isinstance(raw_quantities, list)
    quantities = [
        _parse_quantity(entry, k, system.names) for k, entry in enumerate(raw_quantities)
    ]
    matrix = _at("", build_matrix, system, quantities)

    dependent: int | None = None
    dep_name = doc.get("dependent")
    if dep_name is not None:
        _require(isinstance(dep_name, str), "dependent: expected a string")
        dependent = _quantity_index(matrix, dep_name, "dependent")
    raw_excluded = [] if doc.get("excluded") is None else doc["excluded"]
    _require(
        isinstance(raw_excluded, list) and all(isinstance(x, str) for x in raw_excluded),
        "excluded: expected a list of quantity names",
    )
    excluded = tuple(_quantity_index(matrix, x, "excluded") for x in raw_excluded)
    _at("", _check_roles, matrix, dependent, excluded)
    return Problem(matrix=matrix, dependent=dependent, excluded=excluded)
