"""dimbasis benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics from a separate traced run. ``--smoke`` shrinks every
workload to a few jobs. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from worker import run_process

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("enumerate", "graver", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one small matrix or a few CLI runs, for the benchmark's own tests")
    args = parser.parse_args()

    if not Path("src/dimbasis/__init__.py").is_file():
        return fail("run from the repository root: src/dimbasis is missing")
    spec_path = Path("BENCHMARK.json")
    if not spec_path.is_file():
        return fail("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    worker = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        worker.append("--smoke")

    metrics = {}
    if not args.trace:
        # A fresh interpreter per repeat: import dimbasis and build the inputs.
        setups = []
        for _ in range(2 if args.smoke else SETUP_REPEATS):
            start = perf_counter()
            try:
                proc = run_process(worker + ["--setup-only"], WORKER_TIMEOUT_S, env=env)
            except subprocess.TimeoutExpired:
                return fail(f"set-up did not finish within {WORKER_TIMEOUT_S} s")
            setups.append(perf_counter() - start)
            if proc.returncode != 0:
                return fail(f"set-up exited with {proc.returncode}")
        metrics["setup_s"] = statistics.median(setups)

    try:
        proc = subprocess.run(worker + ["--trace", str(args.trace)], env=env,
                              stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        return fail(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])
    metrics.update(result["metrics"])
    if set(metrics) != set(units):
        return fail(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
