"""Text, LaTeX and JSON rendering of invariants and representations.

Power products are displayed with positive-exponent factors in a numerator
and negative ones in a denominator, unit exponents suppressed, factors in
quantity order. Output is deterministic: identical inputs render to
identical bytes.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .model import DimensionalMatrix, Invariant

if TYPE_CHECKING:
    from .representations import EquationSystem, Representation

# Characters that make a bare name ambiguous inside a product or power.
_TEXT_GROUP_CHARS = set("/*^·+-")

_FUNCTION_NAME_RE = re.compile(r"([A-Za-z]+)_(\d+)")


def _format_exponent_text(e: int | Fraction) -> str:
    e = Fraction(e)
    if e.denominator == 1:
        return str(e.numerator)
    return f"({e.numerator}/{e.denominator})"


def _format_exponent_latex(e: int | Fraction) -> str:
    e = Fraction(e)
    if e.denominator == 1:
        return str(e.numerator)
    return f"{e.numerator}/{e.denominator}"


def _text_factor(label: str, exponent: int | Fraction) -> str:
    if _TEXT_GROUP_CHARS.intersection(label):
        label = f"({label})"
    if exponent == 1:
        return label
    return f"{label}^{_format_exponent_text(exponent)}"


def _latex_factor(label: str, exponent: int | Fraction) -> str:
    if exponent == 1:
        return label
    if "/" in label or " " in label:
        label = rf"\left({label}\right)"
    elif "^" in label:  # a second bare superscript is a TeX error
        label = f"{{{label}}}"
    return f"{label}^{{{_format_exponent_latex(exponent)}}}"


def render_power_product(
    powers: Sequence[tuple[str, int | Fraction]], style: str = "text"
) -> str:
    """Render (label, exponent) pairs as a product with a fraction bar.

    Pairs with zero exponent are skipped; an empty product renders as "1".
    """
    numerator = [(label, e) for label, e in powers if e > 0]
    denominator = [(label, -Fraction(e)) for label, e in powers if e < 0]
    if style == "latex":
        num = r"\, ".join(_latex_factor(l, e) for l, e in numerator) or "1"
        if not denominator:
            return num
        den = r"\, ".join(_latex_factor(l, e) for l, e in denominator)
        return rf"\frac{{{num}}}{{{den}}}"
    num = "·".join(_text_factor(l, e) for l, e in numerator) or "1"
    if not denominator:
        return num
    den = "·".join(_text_factor(l, e) for l, e in denominator)
    if len(denominator) > 1:
        den = f"({den})"
    return f"{num} / {den}"


def render_invariant(
    invariant: Invariant, labels: Sequence[str], style: str = "text"
) -> str:
    """Render an invariant's power product over the given quantity labels."""
    powers = [
        (labels[j], e) for j, e in enumerate(invariant.exponents) if e
    ]
    return render_power_product(powers, style)


def render_index_set(indices: Sequence[int], labels: Sequence[str], style: str = "text") -> str:
    inner = ", ".join(labels[j] for j in indices)
    if style == "latex":
        return rf"\{{{inner}\}}"
    return f"{{{inner}}}"


def _function_label(name: str, style: str) -> str:
    if style != "latex":
        return name
    match = _FUNCTION_NAME_RE.fullmatch(name)
    if match:
        return rf"\{match.group(1)}_{{{match.group(2)}}}"
    return rf"\{name}" if name.isalpha() else name


def render_representation(
    rep: Representation, labels: Sequence[str], style: str = "text"
) -> str:
    """One representation as an equation string."""
    prefactor_powers = [(labels[j], e) for j, e in rep.scaling]
    args = [render_invariant(inv, labels, style) for inv in rep.active_invariants]
    function = _function_label(rep.function_name, style)
    lhs = labels[rep.dependent]
    if style == "latex":
        call = rf"{function}\left({', '.join(args)}\right)" if args else f"{function}()"
        if prefactor_powers:
            prefactor = render_power_product(prefactor_powers, "latex")
            return rf"{lhs} = {prefactor}\, {call}"
        return f"{lhs} = {call}"
    call = f"{function}({', '.join(args)})"
    if prefactor_powers:
        prefactor = render_power_product(prefactor_powers, "text")
        if " / " in prefactor:
            prefactor = f"({prefactor})"
        return f"{lhs} = {prefactor} · {call}"
    return f"{lhs} = {call}"


def invariant_json(invariant: Invariant, names: Sequence[str]) -> dict:
    return {
        "exponents": list(invariant.exponents),
        "text": render_invariant(invariant, names, "text"),
    }


def representation_json(rep: Representation, matrix: DimensionalMatrix) -> dict:
    names = matrix.names
    return {
        "function": rep.function_name,
        "dependent": names[rep.dependent],
        "basis": [names[j] for j in rep.basis.indices],
        "scaling": [[names[j], e.numerator, e.denominator] for j, e in rep.scaling],
        "dependentInvariant": invariant_json(rep.dependent_invariant, names),
        "activeInvariants": [
            invariant_json(inv, names) for inv in rep.active_invariants
        ],
    }


def equation_system_json(system: EquationSystem, matrix: DimensionalMatrix) -> dict:
    return {
        "relation": "Psi",
        "dependent": matrix.names[system.dependent],
        "warning": system.warning,
        "representations": [
            representation_json(rep, matrix) for rep in system.representations
        ],
    }


def to_json(bundle: dict) -> str:
    """Serialize a result bundle with a stable layout."""
    return json.dumps(bundle, indent=2, ensure_ascii=False) + "\n"
