"""The benchmark's own tests; they use the smoke size.

Run from the repository root (they are outside the tier-1 ``tests`` tree):

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import worker

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_oracle_agrees_with_linalg_rank():
    from dimbasis import linalg

    rng = random.Random(0)
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        assert oracle.rank(rows) == linalg.rank(rows)


def test_draw_is_column_major():
    rng = random.Random(7)
    first_column = [rng.randint(-3, 3) for _ in range(4)]
    rows = worker.draw_rows(7, 4, 5, -3, 3)
    assert [row[0] for row in rows] == first_column


@pytest.mark.parametrize("workload", ["enumerate", "graver"])
def test_roadmap_cardinalities(workload):
    checked = worker.roadmap_check(workload)
    assert checked
    for name, (got, expected) in checked.items():
        assert got == expected, name


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["enumerate", "graver", "cli"])
def test_smoke(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr.decode()
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    if workload != "cli":  # two CLI inputs end in a traceback at the seed commit
        assert result["failed"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "enumerate", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == b""
