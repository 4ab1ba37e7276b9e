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

Dimension expression grammar:

    expr := term (('*' | whitespace) term)*
    term := IDENT ('^' SIGNED_INT)?

An omitted exponent means 1, IDENT must be a declared dimension, and repeated
IDENTs sum their exponents. Exponents must be integers.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Sequence

from .model import (
    DIMENSION_NAME_RE,
    QUANTITY_NAME_RE,
    DimensionSystem,
    DimensionalMatrix,
    Quantity,
    build_matrix,
)

_SIGNED_INT_RE = re.compile(r"[+-]?\d+")


class ProblemParseError(ValueError):
    """A malformed problem document; the message carries field context."""


@dataclass(frozen=True)
class Problem:
    """A parsed problem: the matrix plus optional analysis directives."""

    matrix: DimensionalMatrix
    dependent: int | None
    excluded: tuple[int, ...]


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
        if caret:
            if not _SIGNED_INT_RE.fullmatch(tail):
                raise ProblemParseError(
                    f"non-integer exponent {tail!r} in expression {expr!r}"
                )
            exponents[ident] += int(tail)
        else:
            exponents[ident] += 1
    return tuple(exponents[name] for name in dimensions)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProblemParseError(message)


def _parse_quantity(entry: object, index: int, dimensions: tuple[str, ...]) -> Quantity:
    where = f"quantities[{index}]"
    _require(isinstance(entry, dict), f"{where}: expected an object")
    assert isinstance(entry, dict)
    unknown = set(entry) - {"name", "dims", "expr", "display"}
    _require(not unknown, f"{where}: unknown field(s) {sorted(unknown)}")

    name = entry.get("name")
    _require(isinstance(name, str) and bool(name), f"{where}.name: expected a nonempty string")
    assert isinstance(name, str)
    _require(
        QUANTITY_NAME_RE.fullmatch(name) is not None,
        f"{where}.name: invalid quantity name {name!r} "
        "(letters, digits and _ ( ) . / + ' - are allowed, no whitespace)",
    )

    has_dims = "dims" in entry
    has_expr = "expr" in entry
    _require(has_dims != has_expr, f"{where}: exactly one of 'dims' or 'expr' is required")

    if has_dims:
        dims = entry["dims"]
        _require(isinstance(dims, list), f"{where}.dims: expected a list of integers")
        _require(
            len(dims) == len(dimensions),
            f"{where}.dims: expected {len(dimensions)} exponents, got {len(dims)}",
        )
        for k, e in enumerate(dims):
            _require(
                isinstance(e, int) and not isinstance(e, bool),
                f"{where}.dims[{k}]: non-integer exponent {e!r}",
            )
        vector = tuple(dims)
    else:
        expr = entry["expr"]
        _require(isinstance(expr, str), f"{where}.expr: expected a string")
        try:
            vector = parse_dimension_expression(expr, dimensions)
        except ProblemParseError as e:
            raise ProblemParseError(f"{where}.expr: {e}") from None

    display = entry.get("display")
    if display is not None:
        _require(isinstance(display, str), f"{where}.display: expected a string")
        # A JSON \u escape can yield a lone surrogate, which no output can encode.
        try:
            display.encode("utf-8")
        except UnicodeEncodeError:
            raise ProblemParseError(f"{where}.display: not encodable as UTF-8") from None
    return Quantity(name=name, dims=vector, display=display)


def parse_problem(text: str) -> Problem:
    """Parse a problem document and build its validated dimensional matrix."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ProblemParseError(
            f"not valid JSON (line {e.lineno}, column {e.colno}): {e.msg}"
        ) from None
    except RecursionError:
        raise ProblemParseError("not valid JSON: nested too deeply") from None
    _require(isinstance(doc, dict), "top level: expected a JSON object")
    assert isinstance(doc, dict)
    unknown = set(doc) - {"dimensions", "quantities", "dependent", "excluded"}
    _require(not unknown, f"top level: unknown field(s) {sorted(unknown)}")

    dims = doc.get("dimensions")
    _require(
        isinstance(dims, list) and dims and all(isinstance(d, str) for d in dims),
        "dimensions: expected a nonempty list of strings",
    )
    assert isinstance(dims, list)
    for k, d in enumerate(dims):
        _require(
            DIMENSION_NAME_RE.fullmatch(d) is not None,
            f"dimensions[{k}]: invalid dimension name {d!r}",
        )
    _require(len(set(dims)) == len(dims), "dimensions: names must be unique")
    dimensions = tuple(dims)

    raw_quantities = doc.get("quantities")
    _require(
        isinstance(raw_quantities, list) and bool(raw_quantities),
        "quantities: expected a nonempty list",
    )
    assert isinstance(raw_quantities, list)
    quantities = [
        _parse_quantity(entry, k, dimensions) for k, entry in enumerate(raw_quantities)
    ]
    names = [q.name for q in quantities]
    for k, name in enumerate(names):
        _require(name not in names[:k], f"quantities[{k}].name: duplicate quantity {name!r}")

    try:
        matrix = build_matrix(DimensionSystem(dimensions), quantities)
    except ValueError as e:
        raise ProblemParseError(str(e)) from None

    dependent: int | None = None
    if "dependent" in doc and doc["dependent"] is not None:
        dep_name = doc["dependent"]
        _require(isinstance(dep_name, str), "dependent: expected a string")
        _require(dep_name in names, f"dependent: unknown quantity {dep_name!r}")
        dependent = names.index(dep_name)

    excluded: tuple[int, ...] = ()
    if "excluded" in doc and doc["excluded"] is not None:
        raw_excluded = doc["excluded"]
        _require(
            isinstance(raw_excluded, list)
            and all(isinstance(x, str) for x in raw_excluded),
            "excluded: expected a list of quantity names",
        )
        assert isinstance(raw_excluded, list)
        seen: list[int] = []
        for x in raw_excluded:
            _require(x in names, f"excluded: unknown quantity {x!r}")
            index = names.index(x)
            _require(index not in seen, f"excluded: duplicate quantity {x!r}")
            _require(
                index != dependent,
                f"excluded: {x!r} is already the dependent quantity",
            )
            seen.append(index)
        excluded = tuple(seen)

    return Problem(matrix=matrix, dependent=dependent, excluded=excluded)
