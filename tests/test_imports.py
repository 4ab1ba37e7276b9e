"""What importing the package and running one subcommand loads.

A CLI process pays for every module it imports; these tests pin the modules
each subcommand leaves out, and that the lazily resolved package names work.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import dimbasis
from conftest import BENCH_DIR, FIXTURE_DIR

PACKAGE_DIR = Path(dimbasis.__file__).parent
SUBMODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if not p.stem.startswith("_"))

# Runs one subcommand in a fresh interpreter and prints its exit code and modules.
SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout
from dimbasis.cli import main
with redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""
ENGINES = {"dimbasis.enumeration", "dimbasis.graver", "dimbasis.representations"}


def run_python(*args) -> bytes:
    env = {**os.environ, "PYTHONPATH": str(BENCH_DIR.parent / "src")}
    result = subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
    return result.stdout


@pytest.mark.parametrize("command", [
    "rank", "basis-sets", "circuits", "circuit-basis", "unified-basis", "graver",
    "representations", "check",
])
def test_subcommand_imports(command):
    code, modules = json.loads(
        run_python("-c", SCRIPT, command, "--input", str(FIXTURE_DIR / "pipe.dim")))
    assert code == 0
    assert not {"dataclasses", "inspect"} & set(modules)
    if command == "rank":
        assert not ENGINES & set(modules)


def test_import_loads_submodules_on_first_use():
    loaded = "sorted(m for m in sys.modules if m.startswith('dimbasis.'))"
    out = run_python("-c", f"""
import sys, dimbasis
print({loaded})
print(dimbasis.graver_basis is dimbasis.graver.graver_basis, {loaded})
""")
    assert out.decode().splitlines() == [
        "[]", "True ['dimbasis.graver', 'dimbasis.linalg', 'dimbasis.model']",
    ]


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_resolves(name):
    assert getattr(dimbasis, name) is import_module(f"dimbasis.{name}")
    assert name in dir(dimbasis)


@pytest.mark.parametrize("name", dimbasis.__all__)
def test_public_name_resolves_to_its_definition(name):
    value = getattr(dimbasis, name)
    assert any(getattr(import_module(f"dimbasis.{m}"), name, None) is value for m in SUBMODULES)
    assert name in dir(dimbasis)


def test_star_import_lists_every_public_name():
    namespace: dict = {}
    exec("from dimbasis import *", namespace)
    assert set(dimbasis.__all__) <= set(namespace)
    assert dimbasis.__all__ == sorted(dimbasis.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        dimbasis.no_such_name
