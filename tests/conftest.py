from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dimbasis import DimensionSystem, DimensionalMatrix, Quantity, build_matrix
from dimbasis.cli import main

FIXTURE_DIR = Path(__file__).parent / "fixtures"
# Exit code and stdout of every benchmark CLI case, each written by its own
# ``python -m dimbasis`` process; keys are "<fixture> <command> <format>" for
# the fixtures in perfbench/fixtures, and "error <name>" for the error paths.
BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
CLI_GOLDEN = json.loads((BENCH_DIR / "cli_golden.json").read_text(encoding="utf-8"))


def run_main(argv) -> tuple[int, bytes, bytes]:
    """Run the CLI in-process; returns the exit code, stdout and stderr bytes.

    The streams are strict UTF-8, like a real stdout: unencodable output raises.
    """
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
                for _ in range(2))
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.buffer.getvalue(), err.buffer.getvalue()


def matrix_of(dimensions, quantities) -> DimensionalMatrix:
    """Build a matrix from (name, dims) pairs; test shorthand."""
    return build_matrix(
        DimensionSystem(tuple(dimensions)),
        tuple(Quantity(name, tuple(dims)) for name, dims in quantities),
    )


def pipe_matrix() -> DimensionalMatrix:
    # Turbulent pipe flow: pressure drop per length, density, viscosity,
    # diameter, velocity over (L, T, M).
    return matrix_of(
        ("L", "T", "M"),
        (
            ("dP/l", (-2, -2, 1)),
            ("rho", (-3, 0, 1)),
            ("mu", (-1, -1, 1)),
            ("d", (1, 0, 0)),
            ("u", (1, -1, 0)),
        ),
    )


def laminar_matrix() -> DimensionalMatrix:
    # Same flow with density dropped (laminar regime).
    return matrix_of(
        ("L", "T", "M"),
        (
            ("dP/l", (-2, -2, 1)),
            ("mu", (-1, -1, 1)),
            ("d", (1, 0, 0)),
            ("u", (1, -1, 0)),
        ),
    )


def falling_body_matrix() -> DimensionalMatrix:
    # Displacement of a falling body: S(t), initial position/velocity,
    # gravity, elapsed time over (L, T).
    return matrix_of(
        ("L", "T"),
        (
            ("S(t)", (1, 0)),
            ("S0", (1, 0)),
            ("V0", (1, -1)),
            ("g", (1, -2)),
            ("t", (0, 1)),
        ),
    )


def two_body_matrix() -> DimensionalMatrix:
    # Orbital period of two mutually attracting bodies over (L, T, M).
    return matrix_of(
        ("L", "T", "M"),
        (
            ("t", (0, 1, 0)),
            ("d", (1, 0, 0)),
            ("m1", (0, 0, 1)),
            ("m2", (0, 0, 1)),
            ("G", (3, -2, -1)),
        ),
    )


@pytest.fixture
def pipe() -> DimensionalMatrix:
    return pipe_matrix()


@pytest.fixture
def laminar() -> DimensionalMatrix:
    return laminar_matrix()


@pytest.fixture
def falling_body() -> DimensionalMatrix:
    return falling_body_matrix()


@pytest.fixture
def two_body() -> DimensionalMatrix:
    return two_body_matrix()


@pytest.fixture
def wide() -> DimensionalMatrix:
    # 21 quantities, one over the command line's default cap, at rank 2: every
    # stage is cheap, so no work budget but the brute-force box refuses it.
    rng = random.Random(1)
    return matrix_of(
        ("L", "T"), tuple((f"q{j}", (rng.randint(-3, 3), rng.randint(-3, 3))) for j in range(21))
    )
