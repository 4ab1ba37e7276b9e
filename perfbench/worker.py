"""Run one dimbasis benchmark workload in this process and print its figures.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON line.
With ``--setup-only`` it imports dimbasis, builds the workload's inputs and
exits, which is what ``run.py`` times as ``setup_s``.

Every job is one call whose output is checked after its timer stops, with
the integer oracles of ``oracle.py`` for the in-process workloads and the
stored seed-commit goldens for ``cli``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import oracle
from tracer import Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = Path(".perfbench")
FIXTURES = ("pipe.dim", "laminar.dim", "falling_body.dim", "two_body.dim")
COMMANDS = ("rank", "basis-sets", "circuits", "circuit-basis", "unified-basis",
            "graver", "representations", "check")
FORMATS = ("text", "latex", "json")
MIN_JOBS = 100

# (m, n, rank-deficient) in the order the pool cycles through them. A
# rank-deficient matrix has its last row replaced by the sum of the first two.
# One shape of similar cost throughout, so that a run holds about a hundred
# matrices and its quantiles do not hinge on which few large ones were drawn.
ENUMERATE_CYCLE = ((3, 9, False),) * 7 + ((4, 9, True),)
GRAVER_CYCLE = ((2, 5, False), (3, 5, False))
ENUMERATE_ENTRIES = (-3, 3)
GRAVER_ENTRIES = (-2, 2)
# Seed-1 (enumerate) and seed-3 (graver) cardinalities from the ROADMAP
# baseline table: basis sets, circuit pairs, unified pairs, representations.
ROADMAP_ENUMERATE = {(3, 12): (212, 437, 437, 160), (4, 12): (487, 736, 736, 323)}
ROADMAP_GRAVER = {(3, 6): 37, (2, 6): 64}


def draw_rows(seed: int, m: int, n: int, lo: int, hi: int, deficient: bool = False):
    """A seeded m x n integer matrix, drawn column-major.

    One ``random.Random(seed)`` draws quantity by quantity: all m exponents of
    q0, then of q1, and so on, each ``randint(lo, hi)``.
    """
    rng = random.Random(seed)
    columns = [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]
    rows = [[col[i] for col in columns] for i in range(m)]
    if deficient:
        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
    return rows


def build(rows):
    from dimbasis import DimensionSystem, Quantity, model

    system = DimensionSystem(tuple(f"D{i}" for i in range(len(rows))))
    quantities = [Quantity(f"q{j}", tuple(col)) for j, col in enumerate(zip(*rows))]
    return model.build_matrix(system, quantities)


class Matrix:
    """A pool entry: the matrix, its rows, and oracle results computed on demand."""

    def __init__(self, rows):
        self.rows = rows
        self.matrix = build(rows)
        self._basis_sets = self._circuits = None
        self.completion = None

    def basis_sets(self):
        if self._basis_sets is None:
            self._basis_sets = oracle.basis_sets(self.rows)
        return self._basis_sets

    def circuits(self):
        if self._circuits is None:
            self._circuits = oracle.circuits(self.rows)
        return self._circuits

    def valid(self, vector) -> bool:
        return oracle.in_kernel(self.rows, vector) and oracle.is_primitive(vector)


def pool(workload: str, seed: int, seconds: int, smoke: bool) -> list[Matrix]:
    if workload == "enumerate":
        cycle, (lo, hi), size = ENUMERATE_CYCLE, ENUMERATE_ENTRIES, 12 * seconds
    else:
        cycle, (lo, hi), size = GRAVER_CYCLE, GRAVER_ENTRIES, 80 * seconds
    if smoke:
        cycle, size = ((3, 6, False),) if workload == "enumerate" else ((2, 4, False),), 1
    return [
        Matrix(draw_rows(seed * 100_000 + k, *cycle[k % len(cycle)][:2], lo, hi,
                         cycle[k % len(cycle)][2]))
        for k in range(size)
    ]


# ---- enumerate -------------------------------------------------------------

def check_basis_sets(entry: Matrix, result) -> bool:
    return [b.indices for b in result] == entry.basis_sets()


def check_circuit_sets(entry: Matrix, result) -> bool:
    return [c.indices for c in result] == sorted(entry.circuits())


def check_circuit_basis(entry: Matrix, result) -> bool:
    vectors = [p.exponents for p in result]
    circuits = entry.circuits()
    return (all(entry.valid(v) for v in vectors)
            and vectors == [circuits[s] for s in sorted(circuits)])


def check_unified_basis(entry: Matrix, result) -> bool:
    # Every circuit is the fundamental circuit of each of its elements over
    # some basis set, so the unified pairs are exactly the circuit pairs.
    vectors = [inv.exponents for inv in result]
    return (all(entry.valid(v) for v in vectors)
            and vectors == sorted(entry.circuits().values()))


def check_equation_system(entry: Matrix, result) -> bool:
    admissible = [b for b in entry.basis_sets() if 0 not in b]
    reps = result.representations
    if result.dependent != 0 or [r.basis.indices for r in reps] != admissible:
        return False
    if (result.warning is None) != bool(reps):
        return False
    for rep in reps:
        dep = rep.dependent_invariant.exponents
        allowed = set(rep.basis.indices) | {0}
        scaling = tuple((j, Fraction(-dep[j], dep[0])) for j in rep.basis.indices if dep[j])
        if not (entry.valid(dep) and dep[0] > 0 and rep.scaling == scaling
                and all(j in allowed for j, e in enumerate(dep) if e)
                and all(entry.valid(inv.exponents) for inv in rep.active_invariants)):
            return False
    return True


def enumerate_jobs(entry: Matrix):
    from dimbasis import enumeration, representations

    m = entry.matrix
    return (
        ("basis_sets", lambda: enumeration.enumerate_basis_sets(m), check_basis_sets),
        ("circuit_sets", lambda: enumeration.enumerate_circuit_sets(m), check_circuit_sets),
        ("circuit_basis", lambda: enumeration.circuit_basis(m), check_circuit_basis),
        ("unified_basis", lambda: enumeration.unified_basis(m), check_unified_basis),
        ("equation_system", lambda: representations.equation_system(m, 0), check_equation_system),
    )


# ---- graver ----------------------------------------------------------------

def check_completion(entry: Matrix, result) -> bool:
    vectors = {g.exponents for g in result}
    entry.completion = vectors
    return (all(entry.valid(v) and oracle.canonical(v) == v for v in vectors)
            and set(entry.circuits().values()) <= vectors)


def check_brute_force(bound: int):
    def check(entry: Matrix, result) -> bool:
        if entry.completion is None:
            return False
        bounded = {v for v in entry.completion if max(map(abs, v)) <= bound}
        return {g.exponents for g in result} == bounded

    return check


def graver_jobs(entry: Matrix):
    from dimbasis import graver

    m = entry.matrix
    return (
        ("graver_completion", lambda: graver.graver_basis(m, "completion"), check_completion),
        ("graver_brute_force", lambda: graver.graver_basis(m, "brute_force", bound=2),
         check_brute_force(2)),
        ("graver_brute_force_1", lambda: graver.graver_basis(m, "brute_force", bound=1),
         check_brute_force(1)),
    )


def matrix_stream(matrices, jobs_of):
    """Jobs of the pool's matrices in order, cycling through the pool.

    A run stops only between matrices, so every job kind runs equally often.
    """
    k = 0
    while True:
        entry = matrices[k % len(matrices)]
        for i, (kind, call, check) in enumerate(jobs_of(entry)):
            yield i == 0, kind, call, lambda result, check=check, entry=entry: (
                "ok" if check(entry, result) else "wrong")
        k += 1


def roadmap_check(workload: str) -> dict:
    """Untimed: the workload's rows of the ROADMAP baseline table.

    ``enumerate`` checks the seed-1 cardinalities, ``graver`` the seed-3
    Graver element counts.
    """
    from dimbasis import enumeration, graver, representations

    got = {}
    if workload == "enumerate":
        for (m, n), expected in ROADMAP_ENUMERATE.items():
            matrix = build(draw_rows(1, m, n, *ENUMERATE_ENTRIES))
            got[f"{m}x{n}"] = (
                len(enumeration.enumerate_basis_sets(matrix)),
                len(enumeration.circuit_basis(matrix)),
                len(enumeration.unified_basis(matrix)),
                len(representations.equation_system(matrix, 0).representations),
            ), expected
    if workload == "graver":
        for (m, n), expected in ROADMAP_GRAVER.items():
            matrix = build(draw_rows(3, m, n, *GRAVER_ENTRIES))
            got[f"graver {m}x{n}"] = len(graver.graver_basis(matrix)), expected
    return got


# ---- cli -------------------------------------------------------------------

def write_error_inputs() -> dict[str, Path]:
    """Problem files for the error paths, written under the work directory."""
    WORK_DIR.mkdir(exist_ok=True)
    pipe = (BENCH_DIR / "fixtures" / "pipe.dim").read_bytes()
    contents = {
        "truncated.dim": pipe[: len(pipe) // 2],
        "unknown_dimension.dim": json.dumps({
            "dimensions": ["L", "T"],
            "quantities": [{"name": "x", "expr": "L X"}],
        }).encode(),
        "nested.dim": b"[" * 100_000,
        "latin1.dim": pipe.replace(b'"mu"', b'"\xb5"'),
    }
    paths = {}
    for name, data in contents.items():
        path = WORK_DIR / name
        if not path.exists() or path.read_bytes() != data:
            path.write_bytes(data)
        paths[name] = path
    return paths


def cli_cases(smoke: bool) -> list[tuple[str, list[str]]]:
    """(golden key, argv) for every CLI invocation of one pass."""
    fixture = lambda name: str(Path("perfbench", "fixtures", name))  # noqa: E731
    errors = write_error_inputs()
    cases = [
        (f"{name} {command} {fmt}", [command, "--input", fixture(name), "--format", fmt])
        for name in FIXTURES for command in COMMANDS for fmt in FORMATS
    ]
    cases += [
        ("error truncated-json", ["rank", "--input", str(errors["truncated.dim"])]),
        ("error unknown-dimension", ["rank", "--input", str(errors["unknown_dimension.dim"])]),
        ("error max-n-below-n", ["basis-sets", "--input", fixture("pipe.dim"), "--max-n", "3"]),
        ("error bad-graver-method",
         ["graver", "--input", fixture("pipe.dim"), "--graver-method", "fast"]),
        ("error nested-brackets", ["rank", "--input", str(errors["nested.dim"])]),
        ("error non-utf8", ["rank", "--input", str(errors["latin1.dim"])]),
    ]
    if smoke:
        keep = {"pipe.dim rank text", "pipe.dim circuit-basis json",
                "pipe.dim representations latex", "error max-n-below-n",
                "error nested-brackets"}
        cases = [c for c in cases if c[0] in keep]
    return cases


def _expire(signum, frame):
    raise subprocess.TimeoutExpired("child process", None)


def run_process(command, timeout: float, **kwargs) -> subprocess.CompletedProcess:
    """Like ``subprocess.run``, but waits for the child in a blocking waitpid.

    ``subprocess.run(timeout=...)`` polls with sleeps of up to 50 ms, which
    would round every measured wall time up to the next poll; here a
    one-shot SIGALRM enforces the timeout instead.
    """
    previous = signal.signal(signal.SIGALRM, _expire)
    proc = subprocess.Popen(command, **kwargs)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        stdout, stderr = proc.communicate()
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return subprocess.CompletedProcess(command, proc.returncode, stdout, stderr)


def run_cli(argv, traced: bool, tracer: Tracer | None, spans_path: Path):
    """One CLI process; returns (exit code, stdout, stderr, import_s or None)."""
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    if traced:
        command = [sys.executable, str(BENCH_DIR / "cli_entry.py"), *argv]
        env["PERFBENCH_SPANS"] = str(spans_path)
    else:
        command = [sys.executable, "-m", "dimbasis", *argv]
    proc = run_process(command, 60, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    import_s = None
    if traced:
        data = json.loads(spans_path.read_text(encoding="utf-8"))
        spans_path.unlink()
        tracer.add_child_spans(data["spans"], parent=tracer.stack[-1], job=tracer.job)
        tracer.add_counters(data["counters"])
        import_s = data["import_s"]
    return proc.returncode, proc.stdout, proc.stderr, import_s


def cli_verdict(golden: dict, outcome) -> str:
    code, stdout, stderr, _ = outcome
    if code != golden["exit"] or stdout != golden["stdout"].encode("utf-8"):
        return "wrong"
    lines = stderr.decode("utf-8", "replace").splitlines()
    if golden["exit"] == 0:
        return "ok" if not lines else "failed"
    return "ok" if len(lines) == 1 and lines[0].startswith("error: ") else "failed"


def cli_stream(cases, seed: int, tracer, cli_imports: list):
    """Passes over every case, each pass in a fresh seeded order.

    A job runs the traced entry script while the tracer is installed.
    """
    goldens = json.loads((BENCH_DIR / "cli_golden.json").read_text(encoding="utf-8"))
    spans_path = WORK_DIR / f"spans-{os.getpid()}.json"
    rng = random.Random(seed)
    while True:
        order = list(cases)
        rng.shuffle(order)
        for i, (key, argv) in enumerate(order):
            def call(argv=argv):
                traced = tracer is not None and tracer.active
                outcome = run_cli(argv, traced, tracer, spans_path)
                if traced:
                    cli_imports.append(outcome[3])
                return outcome

            yield i == 0, "cli", call, lambda outcome, key=key: cli_verdict(goldens[key], outcome)


# ---- measurement -----------------------------------------------------------

def setup(workload: str, seed: int, seconds: int, smoke: bool):
    """Import dimbasis and build the workload's inputs."""
    from dimbasis import problem

    if workload == "cli":
        for name in FIXTURES:
            problem.parse_problem((BENCH_DIR / "fixtures" / name).read_text(encoding="utf-8"))
        return cli_cases(smoke)
    return pool(workload, seed, seconds, smoke)


def stream(workload, inputs, seed, tracer=None, cli_imports=None):
    if workload == "cli":
        return cli_stream(inputs, seed, tracer, cli_imports)
    return matrix_stream(inputs, enumerate_jobs if workload == "enumerate" else graver_jobs)


def measure(jobs, budget: float, min_jobs: int, tracer: Tracer | None = None):
    """Run jobs until the time budget is reached.

    A job may only be started as the first of a unit when it is marked as a
    boundary; the run stops at the boundary that brings the timed total
    closest to the budget once at least *min_jobs* jobs ran. With a tracer,
    each job runs untraced and then traced, back to back, so that machine
    speed drifts alike for both; the traced runs are the ones checked.
    Returns the job times, the verdict counts, and the timed totals of the
    (traced) jobs and of their untraced twins.
    """
    times: list[float] = []
    verdicts = {"ok": 0, "wrong": 0, "failed": 0}
    units, timed, untraced = 0, 0.0, 0.0
    for boundary, kind, call, check in jobs:
        if boundary:
            spent = timed + untraced
            if units and len(times) >= min_jobs and spent + spent / units / 2 >= budget:
                break
            units += 1
        if tracer is not None:
            start = perf_counter()
            try:
                call()
            except Exception:  # the traced twin below records the failure
                pass
            untraced += perf_counter() - start
            tracer.job = len(times)
            tracer.install()
        start = perf_counter()
        try:
            result = call() if tracer is None else tracer.span(f"job.{kind}", call)
        except Exception as e:  # a crashing job is counted, not fatal
            result, error = None, e
        else:
            error = None
        finally:
            if tracer is not None:
                tracer.uninstall()
        elapsed = perf_counter() - start
        times.append(elapsed)
        timed += elapsed
        if error is not None:
            print(f"job {len(times) - 1} ({kind}) raised {error!r}", file=sys.stderr)
            verdicts["failed"] += 1
            continue
        try:
            verdict = check(result)
        except Exception as e:
            print(f"job {len(times) - 1} ({kind}) check raised {e!r}", file=sys.stderr)
            verdict = "wrong"
        verdicts[verdict] += 1
    return times, verdicts, timed, untraced


def summary(verdicts) -> dict:
    attempted = sum(verdicts.values())
    return {"correct": verdicts["wrong"] == 0, "attempted": attempted,
            "failed": verdicts["wrong"] + verdicts["failed"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=("enumerate", "graver", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if args.setup_only:
        setup(args.workload, args.seed, args.seconds, args.smoke)
        return 0

    if not args.trace:
        inputs = setup(args.workload, args.seed, args.seconds, args.smoke)
        times, verdicts, timed, _ = measure(
            stream(args.workload, inputs, args.seed), args.seconds,
            1 if args.smoke else MIN_JOBS)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        result = summary(verdicts)
        if args.workload != "cli" and not args.smoke:
            for name, (got, expected) in roadmap_check(args.workload).items():
                if got != expected:
                    print(f"ROADMAP {name}: got {got}, expected {expected}", file=sys.stderr)
                    result["correct"] = False
        cuts = statistics.quantiles(times, n=10) if len(times) > 1 else times * 9
        result["metrics"] = {
            "jobs_per_s": verdicts["ok"] / timed,
            "job_p50_ms": statistics.median(times) * 1000,
            "job_p90_ms": cuts[8] * 1000,
            "correct_ratio": verdicts["ok"] / len(times),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        # The tracing overhead is traced over untraced time of the same jobs.
        tracer = Tracer()
        tracer.install()
        inputs = tracer.span("setup", setup, args.workload, args.seed, args.seconds, args.smoke)
        tracer.uninstall()
        cli_imports: list[float] = []
        _, verdicts, timed, untraced = measure(
            stream(args.workload, inputs, args.seed, tracer, cli_imports),
            args.seconds, 1, tracer=tracer)
        WORK_DIR.mkdir(exist_ok=True)
        tracer.dump(WORK_DIR / f"trace-{args.workload}.json", seed=args.seed)
        result = summary(verdicts)
        result["metrics"] = layer_metrics(tracer, cli_imports)
        result["metrics"]["trace.overhead_ratio"] = timed / untraced
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
