"""Smoke run of the benchmark harness on its smallest inputs.

The traced run patches package functions by name, so this also fails when a
function the benchmark reports on is renamed or deleted, such as the Graver
stages ``_completion``, ``_brute_force`` and ``_minimal_elements`` and the
counted ``conforms``. The traced ``cli``
child imports ``dimbasis.cli`` before it patches, so that run also fails when
a module that ``cli`` loads on demand escapes the patching.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["enumerate", "graver", "cli"])
def test_smoke_run(workload, trace):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--smoke", "--trace", trace],
        cwd=REPO,
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
    assert json.loads(result.stdout.decode("utf-8").splitlines()[-1])["correct"] is True
