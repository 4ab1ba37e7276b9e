from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimbasis import (
    BasisSetSystem,
    DimensionalMatrix,
    DimensionSystem,
    EquationSystem,
    Invariant,
    InvariantPair,
    Problem,
    Quantity,
    Representation,
    build_matrix,
)
from dimbasis.enumeration import IndexSet
from conftest import matrix_of
from oracles import evaluate_invariant


def test_build_pipe_matrix(pipe):
    assert len(pipe.quantities) == 5
    assert pipe.system.size == 3
    assert pipe.rank == 3
    assert pipe.rows[0] == (-2, -3, -1, 1, 1)
    assert pipe.columns[4] == (1, -1, 0)


def test_dimensionless_quantity_gives_rank_zero():
    matrix = matrix_of(("L", "T"), (("k", (0, 0)),))
    assert matrix.rank == 0


def test_duplicate_names_rejected():
    system = DimensionSystem(("L",))
    with pytest.raises(ValueError, match="duplicate"):
        build_matrix(system, (Quantity("a", (1,)), Quantity("a", (2,))))


def test_dims_length_mismatch_rejected():
    system = DimensionSystem(("L", "T"))
    with pytest.raises(ValueError, match="exponents"):
        build_matrix(system, (Quantity("a", (1,)),))


def test_quantity_name_validation():
    Quantity("S(t)", (1,))
    Quantity("dP/l", (1,))
    with pytest.raises(ValueError):
        Quantity("bad name", (1,))
    with pytest.raises(ValueError):
        Quantity("a,b", (1,))


def test_dimension_system_validation():
    with pytest.raises(ValueError):
        DimensionSystem(())
    with pytest.raises(ValueError):
        DimensionSystem(("L", "L"))
    with pytest.raises(ValueError):
        DimensionSystem(("2L",))


# ---------------------------------------------------------------- invariants


def test_invariant_rejects_zero_and_non_primitive():
    with pytest.raises(ValueError):
        Invariant((0, 0))
    with pytest.raises(ValueError):
        Invariant((2, 4))


def test_invariant_pair_identity():
    a = InvariantPair(Invariant((0, 1, -1, 1, 1)))
    b = InvariantPair(Invariant((0, -1, 1, -1, -1)))
    assert a == b
    assert a.exponents == (0, 1, -1, 1, 1)
    assert len({a, b}) == 1


# --------------------------- evaluation, by the tests' floating-point helper


def test_evaluate_all_ones():
    assert evaluate_invariant(Invariant((1, -2, 3)), (1.0, 1.0, 1.0)) == 1.0


def test_evaluate_reynolds_hand_check():
    # rho*d*u/mu at (rho, mu, d, u) = (2, 4, 3, 6): 2*3*6/4 = 9
    reynolds = Invariant((0, 1, -1, 1, 1))
    assert evaluate_invariant(reynolds, (7.0, 2.0, 4.0, 3.0, 6.0)) == pytest.approx(9.0)


def test_evaluate_rejects_nonpositive_values():
    inv = Invariant((1, 1))
    with pytest.raises(ValueError):
        evaluate_invariant(inv, (1.0, 0.0))
    with pytest.raises(ValueError):
        evaluate_invariant(inv, (1.0, -2.0))


def test_evaluate_rejects_length_mismatch():
    with pytest.raises(ValueError):
        evaluate_invariant(Invariant((1, 1)), (1.0,))


def test_unit_rescaling_invariance(pipe):
    """Scaling the base units must not move any invariant's value."""
    from dimbasis import circuit_basis

    rng = random.Random(7)
    values = [rng.uniform(0.5, 2.0) for _ in pipe.quantities]
    for pair in circuit_basis(pipe):
        reference = evaluate_invariant(pair.canonical, values)
        for _ in range(10):
            scales = [rng.uniform(0.5, 2.0) for _ in pipe.system.names]
            scaled = [
                v * prod(s**a for s, a in zip(scales, q.dims))
                for v, q in zip(values, pipe.quantities)
            ]
            rescaled = evaluate_invariant(pair.canonical, scaled)
            assert rescaled == pytest.approx(reference, rel=1e-9)


def prod(items):
    result = 1.0
    for x in items:
        result *= x
    return result


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=2, max_size=5).filter(any),
    st.integers(0, 2**32 - 1),
)
def test_kernel_invariants_evaluate_invariantly(dims_column, seed):
    """Random single-dimension matrices: every circuit invariant is unit-free."""
    from dimbasis import circuit_basis

    matrix = matrix_of(
        ("D",), tuple((f"q{k}", (d,)) for k, d in enumerate(dims_column))
    )
    rng = random.Random(seed)
    values = [rng.uniform(0.5, 2.0) for _ in dims_column]
    scale = rng.uniform(0.25, 4.0)
    for pair in circuit_basis(matrix):
        scaled = [v * scale**d for v, d in zip(values, dims_column)]
        assert evaluate_invariant(pair.canonical, scaled) == pytest.approx(
            evaluate_invariant(pair.canonical, values), rel=1e-9
        )


# ------------------------------------------------------- value-type contract

L = DimensionSystem(("L",))
X, Y = Quantity("x", (1,)), Quantity("y", (1,))
XY = build_matrix(L, (X, Y))
LINE = Invariant((1, -1))
REP = Representation(0, IndexSet((1,)), ((1, Fraction(1)),), LINE, ())

# (type, field values in field order, repr) for each public value type.
VALUES = [
    (DimensionSystem, {"names": ("L",)}, "DimensionSystem(names=('L',))"),
    (Quantity, {"name": "x", "dims": (1,), "display": None},
     "Quantity(name='x', dims=(1,), display=None)"),
    (DimensionalMatrix, {"system": L, "quantities": (X, Y), "rank": 1},
     "DimensionalMatrix(system=DimensionSystem(names=('L',)), quantities=("
     "Quantity(name='x', dims=(1,), display=None), "
     "Quantity(name='y', dims=(1,), display=None)), rank=1)"),
    (Invariant, {"exponents": (1, -1)}, "Invariant(exponents=(1, -1))"),
    (InvariantPair, {"canonical": LINE},
     "InvariantPair(canonical=Invariant(exponents=(1, -1)))"),
    (IndexSet, {"indices": (0, 2)}, "IndexSet(indices=(0, 2))"),
    (BasisSetSystem, {"basis": IndexSet((1,)), "invariants": (LINE,)},
     "BasisSetSystem(basis=IndexSet(indices=(1,)), "
     "invariants=(Invariant(exponents=(1, -1)),))"),
    (Problem, {"matrix": XY, "dependent": 0, "excluded": ()},
     f"Problem(matrix={XY!r}, dependent=0, excluded=())"),
    (Representation,
     {"dependent": 0, "basis": IndexSet((1,)), "scaling": ((1, Fraction(1)),),
      "dependent_invariant": LINE, "active_invariants": (), "function_name": "Phi_1"},
     "Representation(dependent=0, basis=IndexSet(indices=(1,)), "
     "scaling=((1, Fraction(1, 1)),), dependent_invariant=Invariant(exponents=(1, -1)), "
     "active_invariants=(), function_name='Phi_1')"),
    (EquationSystem,
     {"dependent": 0, "representations": (REP,), "warning": "w"},
     f"EquationSystem(dependent=0, representations=({REP!r},), warning='w')"),
]
VALUE_IDS = [cls.__name__ for cls, _, _ in VALUES]


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=VALUE_IDS)
def test_value_type_construction_equality_and_repr(cls, fields, text):
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert not by_position != by_keyword
    assert by_position != tuple(fields.values())
    assert [getattr(by_keyword, name) for name in fields] == list(fields.values())
    assert repr(by_keyword) == text
    assert cls.__match_args__ == tuple(fields)


def test_value_type_defaults_and_normalisation():
    assert Quantity("x", [1]) == Quantity("x", (1,), None)
    assert DimensionSystem(["L"]).names == ("L",)
    assert Invariant([1, -1]).exponents == (1, -1)
    assert IndexSet([2, 0]).indices == (0, 2)
    assert InvariantPair(Invariant((-1, 1))).canonical == LINE
    assert REP.function_name == "Phi"
    system = EquationSystem(0, (REP,))
    assert system.warning is None


def test_equality_needs_the_same_type():
    assert LINE != InvariantPair(LINE)
    assert InvariantPair(LINE) != LINE
    assert Invariant((1, -1)) != Invariant((-1, 1))
    assert InvariantPair(Invariant((1, -1))) == InvariantPair(Invariant((-1, 1)))
    assert len({LINE, InvariantPair(LINE), Invariant((1, -1))}) == 2


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=VALUE_IDS)
def test_value_types_refuse_assignment_and_deletion(cls, fields, text):
    value = cls(**fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(**fields)


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=VALUE_IDS)
def test_value_types_pickle_and_copy(cls, fields, text):
    value = cls(**fields)
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(clone) is cls
        assert clone == value and hash(clone) == hash(value)
        assert repr(clone) == text


@pytest.mark.parametrize("make, message", [
    (lambda: DimensionSystem(()), "dimensions: expected at least one dimension"),
    (lambda: DimensionSystem(("2L",)), "dimensions[0]: invalid dimension name '2L'"),
    (lambda: DimensionSystem(("L", "L")), "dimensions[1]: duplicate dimension 'L'"),
    (lambda: Quantity("a b", (1,)),
     "name: invalid quantity name 'a b' (letters, digits and _ ( ) . / + ' - are allowed, "
     "no whitespace)"),
    (lambda: Quantity("x", (1, True)), "dims[1]: non-integer exponent True"),
    (lambda: Quantity("x", (1,), 3), "display: expected a string"),
    (lambda: Quantity("x", (1,), "\ud800"), "display: not encodable as UTF-8"),
    (lambda: Invariant((0, 0)), "an invariant cannot have an all-zero exponent vector"),
    (lambda: Invariant((2, -4)), "exponents are not relatively prime: (2, -4)"),
    (lambda: IndexSet((1, 1)), "indices must be distinct"),
    (lambda: DimensionSystem(("L", 5)), "dimensions[1]: invalid dimension name 5"),
    (lambda: Quantity(5, (1,)),
     "name: invalid quantity name 5 (letters, digits and _ ( ) . / + ' - are allowed, "
     "no whitespace)"),
    (lambda: Invariant((True, 2)), "exponents must be integers, got True"),
    (lambda: Invariant((1.0, 2)), "exponents must be integers, got 1.0"),
    (lambda: IndexSet(("a", "b")), "index must be an integer, got 'a'"),
    (lambda: IndexSet((2, True)), "index must be an integer, got True"),
], ids=[
    "no dimension", "bad dimension name", "repeated dimension", "bad quantity name",
    "non-integer exponent", "non-string display", "unencodable display", "zero invariant",
    "non-primitive invariant", "repeated index", "non-string dimension name",
    "non-string quantity name", "bool invariant exponent", "float invariant exponent",
    "string index", "bool index",
])
def test_value_type_validation_messages(make, message):
    with pytest.raises(ValueError) as error:
        make()
    assert str(error.value) == message
