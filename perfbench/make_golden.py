"""Write cli_golden.json: exit code and byte-exact stdout of every CLI case.

The committed file was written at the commit that introduced the benchmark;
the ``cli`` workload compares later commits against it. Run from the
repository root:

    PYTHONPATH=src python3 perfbench/make_golden.py
"""

import json

from worker import BENCH_DIR, cli_cases, run_cli

goldens = {}
for key, argv in cli_cases(smoke=False):
    code, stdout, _, _ = run_cli(argv, traced=False, tracer=None, spans_path=None)
    goldens[key] = {"exit": code, "stdout": stdout.decode("utf-8")}
(BENCH_DIR / "cli_golden.json").write_text(
    json.dumps(goldens, indent=1, ensure_ascii=False, sort_keys=True) + "\n", encoding="utf-8")
