from __future__ import annotations

import json
from fractions import Fraction

from dimbasis import BasisSet, Invariant, build_representation, equation_system
from dimbasis.render import (
    _function_label,
    invariant_json,
    render_index_set,
    render_invariant,
    render_power_product,
    render_representation,
)
from conftest import matrix_of

PIPE_NAMES = ("dP/l", "rho", "mu", "d", "u")
FALL_NAMES = ("S(t)", "S0", "V0", "g", "t")


def test_reynolds_text():
    inv = Invariant((0, 1, -1, 1, 1))
    assert render_invariant(inv, PIPE_NAMES) == "rho·d·u / mu"


def test_all_positive_has_no_fraction_bar():
    inv = Invariant((1, 2))
    assert render_invariant(inv, ("q1", "q2")) == "q1·q2^2"


def test_displacement_invariant_text():
    inv = Invariant((1, 0, 0, -1, -2))
    assert render_invariant(inv, FALL_NAMES) == "S(t) / (g·t^2)"


def test_slash_names_are_parenthesized():
    inv = Invariant((1, 1, -2, 3, 0))
    assert render_invariant(inv, PIPE_NAMES) == "(dP/l)·rho·d^3 / mu^2"


def test_latex_fraction():
    inv = Invariant((0, 1, -1, 1, 1))
    labels = (r"\Delta P/\ell", r"\rho", r"\mu", "d", "u")
    assert render_invariant(inv, labels, "latex") == r"\frac{\rho\, d\, u}{\mu}"
    # A display with its own superscript is braced before the exponent.
    inv = Invariant((2, -1, 0))
    assert render_invariant(inv, ("r^2", "x_0", "y"), "latex") == r"\frac{{r^2}^{2}}{x_0}"
    # A label holding a sum, a difference, a product or a space is bracketed,
    # as in text; otherwise the exponent would bind to its last term only.
    labels = ("a+b", "c", "t")
    assert render_invariant(inv, labels) == "(a+b)^2 / c"
    assert render_invariant(inv, labels, "latex") == r"\frac{\left(a+b\right)^{2}}{c}"
    for label in ("m_1-m_2", "m*g", "m·g", r"\Delta P"):
        assert render_power_product([(label, 2)], "latex") == rf"\left({label}\right)^{{2}}"
    assert render_power_product([("m_1+m_2", 1)], "latex") == "m_1+m_2"
    rep = build_representation(matrix_of(("L",), (("y", (2,)), ("M", (1,)))), 0,
                               BasisSet((1,)), "Phi_1")
    assert render_representation(rep, ("y", "m_1+m_2"), "latex") == (
        r"y = \left(m_1+m_2\right)^{2}\, \Phi_{1}()"
    )


def test_single_denominator_factor_unparenthesized():
    inv = Invariant((1, -1, 0, 0, 0))
    assert render_invariant(inv, FALL_NAMES) == "S(t) / S0"


def test_fractional_exponents_in_prefactor():
    powers = [("d", Fraction(3, 2)), ("m1", Fraction(-1, 2)), ("G", Fraction(-1, 2))]
    assert render_power_product(powers) == "d^(3/2) / (m1^(1/2)·G^(1/2))"
    assert (
        render_power_product(powers, "latex")
        == r"\frac{d^{3/2}}{m1^{1/2}\, G^{1/2}}"
    )


def test_empty_product_renders_as_one():
    assert render_power_product([]) == "1"


def test_render_index_set():
    assert render_index_set((1, 2, 3), PIPE_NAMES) == "{rho, mu, d}"
    assert render_index_set((1,), PIPE_NAMES, "latex") == r"\{rho\}"


def test_render_representation_text(pipe):
    rep = build_representation(pipe, 0, BasisSet((1, 3, 4)), "Phi_3")
    line = render_representation(rep, PIPE_NAMES)
    assert line == "dP/l = (rho·u^2 / d) · Phi_3(mu / (rho·d·u))"


def test_render_representation_without_actives(laminar):
    rep = build_representation(laminar, 0, BasisSet((1, 2, 3)), "Phi_1")
    line = render_representation(rep, ("dP/l", "mu", "d", "u"))
    assert line == "dP/l = (mu·u / d^2) · Phi_1()"


def test_render_representation_without_prefactor():
    # A dimensionless dependent quantity takes no prefactor.
    names = ("Re", "u", "d", "nu")
    m = matrix_of(("L", "T"), zip(names, ((0, 0), (1, -1), (1, 0), (2, -1))))
    rep = build_representation(m, 0, BasisSet((1, 2)), "Phi_1")
    assert rep.scaling == ()
    assert render_representation(rep, names) == "Re = Phi_1(nu / (u·d))"
    assert render_representation(rep, names, "latex") == (
        r"Re = \Phi_{1}\left(\frac{nu}{u\, d}\right)"
    )


def test_function_label_outside_the_name_k_pattern():
    assert _function_label("Phi", "latex") == r"\Phi"
    assert _function_label("Phi2", "latex") == "Phi2"
    assert _function_label("F-1", "latex") == "F-1"


def test_render_representation_latex(pipe):
    rep = build_representation(pipe, 0, BasisSet((1, 2, 3)), "Phi_1")
    labels = (r"\Delta P/\ell", r"\rho", r"\mu", "d", "u")
    line = render_representation(rep, labels, "latex")
    assert line == (
        r"\Delta P/\ell = \frac{\mu^{2}}{\rho\, d^{3}}\, "
        r"\Phi_{1}\left(\frac{\rho\, d\, u}{\mu}\right)"
    )


def test_json_round_trip_preserves_exponents(pipe):
    inv = Invariant((1, -2, 1, 0, -3))
    payload = json.loads(json.dumps(invariant_json(inv, PIPE_NAMES)))
    assert tuple(payload["exponents"]) == inv.exponents
    assert payload["text"] == render_invariant(inv, PIPE_NAMES)


def test_system_function_names_render_in_order(falling_body):
    system = equation_system(falling_body, 0, (4,))
    lines = [render_representation(rep, FALL_NAMES) for rep in system.representations]
    assert lines == [
        "S(t) = S0 · Phi_1(S0·g / V0^2, V0·t / S0)",
        "S(t) = S0 · Phi_2(V0^2 / (S0·g), g·t^2 / S0)",
        "S(t) = (V0^2 / g) · Phi_3(S0·g / V0^2, g·t / V0)",
    ]
