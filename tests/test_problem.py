from __future__ import annotations

import json
import sys

import pytest

from dimbasis import (
    DimensionSystem,
    ProblemParseError,
    Quantity,
    build_matrix,
    parse_dimension_expression,
    parse_problem,
)
from dimbasis.model import _check_roles
from conftest import FIXTURE_DIR


def doc(**overrides):
    base = {
        "dimensions": ["L", "T", "M"],
        "quantities": [
            {"name": "u", "expr": "L T^-1"},
            {"name": "d", "dims": [1, 0, 0]},
        ],
    }
    base.update(overrides)
    return json.dumps(base)


# --------------------------------------------------------------- grammar


def test_expression_velocity():
    assert parse_dimension_expression("L T^-1", ("L", "T", "M")) == (1, -1, 0)


def test_expression_star_separator_and_repeats():
    assert parse_dimension_expression("L * L T^2", ("L", "T")) == (2, 2)
    assert parse_dimension_expression("L^2 L^-1", ("L", "T")) == (1, 0)


def test_expression_zero_exponent():
    assert parse_dimension_expression("L^0", ("L", "T")) == (0, 0)


def test_expression_rejects_fractional_exponent():
    with pytest.raises(ProblemParseError, match="non-integer"):
        parse_dimension_expression("L^1.5", ("L",))


def test_expression_rejects_unknown_dimension():
    with pytest.raises(ProblemParseError, match="unknown dimension"):
        parse_dimension_expression("L Q^2", ("L", "T"))


def test_expression_rejects_empty():
    with pytest.raises(ProblemParseError, match="empty"):
        parse_dimension_expression("   ", ("L",))


def test_expression_rejects_double_caret():
    with pytest.raises(ProblemParseError, match="non-integer"):
        parse_dimension_expression("L^2^3", ("L",))


# ----------------------------------------------------------------- files


def test_parse_minimal_document():
    problem = parse_problem(doc())
    assert problem.matrix.names == ("u", "d")
    assert problem.matrix.columns[0] == (1, -1, 0)
    assert problem.dependent is None
    assert problem.excluded == ()


def test_parse_directives():
    problem = parse_problem(doc(dependent="u", excluded=["d"]))
    assert problem.dependent == 0
    assert problem.excluded == (1,)


def test_parse_rejects_bad_json():
    with pytest.raises(ProblemParseError, match="line 1"):
        parse_problem("{nope")


LONG = "1" * (sys.get_int_max_str_digits() + 1)
TOO_LONG = f"more than {sys.get_int_max_str_digits()} digits"


def test_parse_rejects_an_integer_too_long_to_convert():
    # json.loads raises a bare ValueError, not a JSONDecodeError, for it.
    text = doc().replace("[1, 0, 0]", f"[{LONG}, 0, 0]")
    with pytest.raises(ProblemParseError) as error:
        parse_problem(text)
    assert str(error.value) == f"not valid JSON: an integer has {TOO_LONG}"


def test_expression_rejects_an_exponent_too_long_to_convert():
    with pytest.raises(ProblemParseError) as error:
        parse_dimension_expression(f"L^-{LONG}", ("L",))
    assert str(error.value) == f"exponent with {TOO_LONG} in expression 'L^-{LONG}'"


def test_parse_rejects_unknown_top_level_key():
    with pytest.raises(ProblemParseError, match="unknown field"):
        parse_problem(doc(depedent="u"))


def test_parse_rejects_unknown_dependent():
    with pytest.raises(ProblemParseError, match="unknown quantity 'x'"):
        parse_problem(doc(dependent="x"))


def test_parse_rejects_dependent_also_excluded():
    with pytest.raises(ProblemParseError, match="already the dependent"):
        parse_problem(doc(dependent="u", excluded=["u"]))


def test_parse_rejects_duplicate_quantity():
    text = doc(quantities=[{"name": "u", "dims": [1, 0, 0]},
                           {"name": "u", "dims": [0, 1, 0]}])
    with pytest.raises(ProblemParseError, match="duplicate quantity"):
        parse_problem(text)


def test_parse_rejects_float_dims_with_context():
    text = doc(quantities=[{"name": "u", "dims": [1.5, 0, 0]}])
    with pytest.raises(ProblemParseError, match=r"quantities\[0\].dims\[0\]"):
        parse_problem(text)


def test_parse_rejects_dims_and_expr_together():
    text = doc(quantities=[{"name": "u", "dims": [1, 0, 0], "expr": "L"}])
    with pytest.raises(ProblemParseError, match="exactly one"):
        parse_problem(text)


def test_parse_rejects_wrong_dims_length():
    text = doc(quantities=[{"name": "u", "dims": [1, 0]}])
    with pytest.raises(ProblemParseError, match="expected 3 exponents"):
        parse_problem(text)


def test_parse_rejects_bad_name_with_context():
    text = doc(quantities=[{"name": "a b", "dims": [1, 0, 0]}])
    with pytest.raises(ProblemParseError, match=r"quantities\[0\].name"):
        parse_problem(text)


def test_parse_rejects_unencodable_display():
    # json.dumps writes the lone surrogate as the escape \ud800.
    text = doc(quantities=[{"name": "u", "dims": [1, 0, 0], "display": "a\ud800"}])
    with pytest.raises(ProblemParseError, match=r"quantities\[0\].display: not encodable"):
        parse_problem(text)


def test_parse_expr_errors_carry_field_context():
    text = doc(quantities=[{"name": "u", "expr": "L^x"}])
    with pytest.raises(ProblemParseError, match=r"quantities\[0\].expr"):
        parse_problem(text)


def test_fixture_files_parse(pipe, laminar, falling_body, two_body):
    expected = {
        "pipe.dim": pipe,
        "laminar.dim": laminar,
        "falling_body.dim": falling_body,
        "two_body.dim": two_body,
    }
    for filename, matrix in expected.items():
        problem = parse_problem((FIXTURE_DIR / filename).read_text())
        assert problem.matrix.names == matrix.names
        assert problem.matrix.rows == matrix.rows
        assert problem.matrix.rank == matrix.rank
    fall = parse_problem((FIXTURE_DIR / "falling_body.dim").read_text())
    assert fall.dependent == 0
    assert fall.excluded == (4,)


# ----------------------------------------------------------- rule owners

LTM = DimensionSystem(("L", "T", "M"))
U, D = Quantity("u", (1, -1, 0)), Quantity("d", (1, 0, 0))


@pytest.mark.parametrize("model_call, document", [
    (lambda: DimensionSystem(("L", "2T")), doc(dimensions=["L", "2T"])),
    (lambda: DimensionSystem(("L", "T", "L")), doc(dimensions=["L", "T", "L"])),
    (lambda: Quantity("a b", (1, 0, 0)),
     doc(quantities=[{"name": "a b", "dims": [1, 0, 0]}])),
    (lambda: Quantity("u", (1, 0.5, 0)),
     doc(quantities=[{"name": "u", "dims": [1, 0.5, 0]}])),
    (lambda: build_matrix(LTM, [U, Quantity("d", (1, 0))]),
     doc(quantities=[{"name": "u", "expr": "L T^-1"}, {"name": "d", "dims": [1, 0]}])),
    (lambda: build_matrix(LTM, [U, D, Quantity("u", (0, 0, 1))]),
     doc(quantities=[{"name": "u", "expr": "L T^-1"}, {"name": "d", "dims": [1, 0, 0]},
                     {"name": "u", "dims": [0, 0, 1]}])),
    (lambda: Quantity("u", (1, 0, 0), "a\ud800"),
     doc(quantities=[{"name": "u", "dims": [1, 0, 0], "display": "a\ud800"}])),
    (lambda: _check_roles(build_matrix(LTM, [U, D]), None, (1, 1)),
     doc(excluded=["d", "d"])),
    (lambda: _check_roles(build_matrix(LTM, [U, D]), 0, (0,)),
     doc(dependent="u", excluded=["u"])),
], ids=[
    "bad dimension name", "repeated dimension", "bad quantity name", "non-integer exponent",
    "wrong exponent count", "repeated quantity name", "unencodable display",
    "repeated excluded quantity", "dependent also excluded",
])
def test_each_rule_has_one_owner(model_call, document):
    # The parser only says where a value sits; the model's message says what
    # is wrong with it, so a copy of a rule with its own wording fails here.
    with pytest.raises(ValueError) as model_error:
        model_call()
    with pytest.raises(ProblemParseError) as parser_error:
        parse_problem(document)
    assert str(parser_error.value).endswith(str(model_error.value))
