from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import dimbasis
from dimbasis import DimensionSystem, DimensionalMatrix, Quantity, build_matrix, parse_problem
from dimbasis.cli import main

FIXTURE_DIR = Path(__file__).parent / "fixtures"
REPO = Path(__file__).resolve().parent.parent
# The directory dimbasis is imported from: src/ in a checkout, site-packages
# when the package is installed. Child interpreters get it as PYTHONPATH.
IMPORT_ROOT = str(Path(dimbasis.__file__).resolve().parent.parent)
# Exit code and stdout of every benchmark CLI case, each written by its own
# ``python -m dimbasis`` process; keys are "<fixture> <command> <format>" for
# the fixtures in perfbench/fixtures, and "error <name>" for the error paths.
BENCH_DIR = REPO / "perfbench"
# The benchmark's case table (worker.cli_cases) is imported from here; put on the
# path by this file, so that a pythonpath given on the command line keeps it.
sys.path.append(str(BENCH_DIR))
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


def fixture_matrix(name: str) -> DimensionalMatrix:
    """The matrix of ``tests/fixtures/<name>.dim``."""
    return parse_problem((FIXTURE_DIR / f"{name}.dim").read_text(encoding="utf-8")).matrix


# Turbulent pipe flow over (L, T, M): pressure drop per length, density,
# viscosity, diameter, velocity; laminar drops the density. A falling body's
# displacement over (L, T); the orbital period of two bodies over (L, T, M).
@pytest.fixture
def pipe() -> DimensionalMatrix:
    return fixture_matrix("pipe")


@pytest.fixture
def laminar() -> DimensionalMatrix:
    return fixture_matrix("laminar")


@pytest.fixture
def falling_body() -> DimensionalMatrix:
    return fixture_matrix("falling_body")


@pytest.fixture
def two_body() -> DimensionalMatrix:
    return fixture_matrix("two_body")


@pytest.fixture
def wide() -> DimensionalMatrix:
    # 21 quantities, one over the command line's default cap, at rank 2: every
    # stage is cheap, so no work budget but the brute-force box refuses it.
    rng = random.Random(1)
    return matrix_of(
        ("L", "T"), tuple((f"q{j}", (rng.randint(-3, 3), rng.randint(-3, 3))) for j in range(21))
    )
