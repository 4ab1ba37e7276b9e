"""Smoke run of the benchmark harness on its smallest inputs.

The traced run patches package functions by name, so this also fails when a
function the benchmark reports on is renamed or deleted.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", ["0", "1"])
def test_enumerate_smoke_run(trace):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enumerate", "--seed", "1",
         "--seconds", "1", "--smoke", "--trace", trace],
        cwd=REPO,
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
    assert json.loads(result.stdout.decode("utf-8").splitlines()[-1])["correct"] is True
