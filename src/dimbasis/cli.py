"""Command-line interface.

Results go to stdout, diagnostics to stderr. Exit codes: 0 success,
1 input or parse error, 2 size cap exceeded, 3 property violation
(``check`` only). Output is deterministic: the same input file and flags
always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import comb, gcd
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

# enumeration, graver and representations are imported by the handlers that
# use them: a process compiles only its own subcommand's engine.
from . import render
from .model import DimensionalMatrix, InvariantPair, SizeLimitError
from .problem import Problem, ProblemParseError, _integer, _quantity_index, parse_problem


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so that :func:`main` prints them as one ``error:`` line."""

    def error(self, message: str):
        raise ValueError(message)


def _positive_int(text: str) -> int:
    """The ``--max-n`` type: below 1, like a non-integer, is a usage error."""
    try:
        value = _integer(text)
    except ValueError:  # more digits than int() converts
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dimbasis",
        description="Exact-arithmetic dimensional analysis: enumerate basis sets, "
        "minimal invariants and representations of a dimensional matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="problem file (JSON)")
        p.add_argument(
            "--format",
            choices=("text", "latex", "json"),
            default="text",
            help="output format (default: text)",
        )
        p.add_argument(
            "--max-n",
            type=_positive_int,
            default=20,
            help="quantity-count cap for enumeration (default: %(default)s)",
        )
        if name == "representations":
            p.add_argument("--dependent", help="dependent quantity (overrides the file)")
            p.add_argument(
                "--exclude",
                help="comma-separated quantities barred from basis sets "
                "(overrides the file)",
            )
        if name in ("graver", "check"):
            p.add_argument(
                "--graver-method",
                default="completion",
                help="'completion' or 'brute:<bound>' (default: completion)",
            )
    return parser


def _parse_graver_method(text: str) -> tuple[str, int | None]:
    if text == "completion":
        return "completion", None
    if text.startswith("brute:"):
        try:
            bound = _integer(text.removeprefix("brute:"))
        except ValueError:  # more digits than int() converts
            bound = None
        if bound is None:
            raise ValueError(f"bad brute-force bound in {text!r}")
        return "brute_force", bound
    raise ValueError(f"unknown Graver method {text!r} (use completion or brute:<bound>)")


class _Output(NamedTuple):
    """A subcommand's result, rendered by :func:`main` in the chosen format.

    ``payload`` gives the JSON keys that follow the bundle header; ``lines``
    gives the text or LaTeX lines for the given quantity labels and style.
    Both are called only for the format being printed.
    """

    payload: Callable[[], dict]
    lines: Callable[[Sequence[str], str], list[str]]
    ok: bool = True
    warning: str | None = None


def _bundle(command: str, matrix: DimensionalMatrix) -> dict:
    return {
        "schemaVersion": 1,
        "command": command,
        "dimensions": list(matrix.system.names),
        "quantities": list(matrix.names),
        "rank": matrix.rank,
    }


def _cmd_rank(problem: Problem, args) -> _Output:
    rank = problem.matrix.rank
    return _Output(lambda: {}, lambda labels, style: [str(rank)])


def _cmd_index_sets(problem: Problem, args) -> _Output:
    from . import enumeration

    if args.command == "basis-sets":
        sets = enumeration.enumerate_basis_sets(problem.matrix)
        key = "basisSets"
    else:
        sets = enumeration.enumerate_circuit_sets(problem.matrix)
        key = "circuits"
    return _Output(
        lambda: {key: [list(s.indices) for s in sets]},
        lambda labels, style: [render.render_index_set(s.indices, labels, style) for s in sets],
    )


def _cmd_invariants(problem: Problem, args) -> _Output:
    """``circuit-basis``, ``unified-basis`` and ``graver``: one invariant per line."""
    matrix = problem.matrix
    header: dict = {}
    key = "invariants"
    if args.command == "graver":
        from . import graver

        method, bound = _parse_graver_method(args.graver_method)
        pairs = graver.graver_basis(matrix, method, bound=bound)
        invariants = sorted((p.canonical for p in pairs), key=lambda inv: inv.exponents)
        header, key = {"graverMethod": args.graver_method}, "graver"
    else:
        from . import enumeration

        if args.command == "circuit-basis":
            invariants = [p.canonical for p in enumeration.circuit_basis(matrix)]
        else:
            invariants = enumeration.unified_basis(matrix)
    return _Output(
        lambda: {**header, key: [render.invariant_json(inv, matrix.names) for inv in invariants]},
        lambda labels, style: [render.render_invariant(inv, labels, style) for inv in invariants],
    )


def _cmd_representations(problem: Problem, args) -> _Output:
    matrix = problem.matrix
    dependent = problem.dependent
    if args.dependent is not None:
        dependent = _quantity_index(matrix, args.dependent, "--dependent")
    if dependent is None:
        raise ValueError(
            "no dependent quantity: set one in the file or pass --dependent"
        )
    excluded = problem.excluded
    if args.exclude is not None:
        excluded = tuple(
            _quantity_index(matrix, x, "--exclude") for x in args.exclude.split(",") if x
        )
    from . import representations

    system = representations.equation_system(matrix, dependent, excluded)
    return _Output(
        lambda: {
            "excluded": [matrix.names[j] for j in excluded],
            **render.equation_system_json(system, matrix),
        },
        lambda labels, style: [
            render.render_representation(rep, labels, style) for rep in system.representations
        ],
        warning=system.warning,
    )


def _run_checks(problem: Problem, args) -> list[tuple[str, bool, str]]:
    """The internal property suite behind the ``check`` subcommand."""
    from . import enumeration, graver

    matrix = problem.matrix
    rows = matrix.rows
    n, r = len(matrix.quantities), matrix.rank
    method, bound = _parse_graver_method(args.graver_method)

    # Every subset-capped stage is charged before any starts, so an input over
    # the subset cap fails before the Graver completion, whose generator-scan
    # budget is reached only after it has run.
    enumeration._check_size(
        matrix, "circuit scan", "basis-set enumeration", "basis-set reductions"
    )
    graver_pairs = graver.graver_basis(matrix, method, bound=bound)
    # The unified basis is the canonical circuit basis: one circuit scan.
    unified = enumeration.unified_basis(matrix)
    circuit_pairs = {InvariantPair(inv) for inv in unified}
    systems = [
        enumeration.basis_set_invariants(matrix, b)
        for b in enumeration.enumerate_basis_sets(matrix)
    ]
    # Counted as emitted: the circuit basis, the basis-set reductions, the unified basis.
    emitted = [*unified, *(inv for s in systems for inv in s.invariants), *unified]

    # Invariant construction enforces coprimality; re-derive it here anyway.
    bad_kernel, bad_gcd = [], []
    for inv in emitted:
        e = inv.exponents
        if any(sum(row[j] * x for j, x in enumerate(e)) != 0 for row in rows):
            bad_kernel.append(e)
        if gcd(*(abs(x) for x in e)) != 1:
            bad_gcd.append(e)
    results = [
        (name, not bad, f"{len(emitted)} invariants checked" if not bad else f"violations: {bad}")
        for name, bad in (("kernel membership", bad_kernel), ("exponent gcd is 1", bad_gcd))
    ]

    size = len(unified)
    upper = comb(n, r + 1)
    results.append((
        "circuit-basis cardinality bound",
        (n - r) <= size <= upper,
        f"n-r={n - r} <= {size} <= C(n,r+1)={upper}",
    ))

    # The unified basis is computed from the circuits; check the theorem
    # behind that against its definition, the union over the basis sets.
    union = {inv.canonical().exponents for s in systems for inv in s.invariants}
    mismatch = sorted(union ^ {inv.exponents for inv in unified})
    results.append((
        "unified basis contained in circuit basis",
        not mismatch,
        f"{len(union)} of {size} pairs" if not mismatch else f"violations: {mismatch}",
    ))

    # brute:<bound> finds exactly the Graver elements with entries in
    # [-bound, bound], so only the circuits inside that box are looked for.
    box = "" if bound is None else f" with entries at most {bound}"
    expected = {
        p for p in circuit_pairs if bound is None or max(map(abs, p.exponents)) <= bound
    }
    missing = sorted(p.exponents for p in expected - graver_pairs)
    results.append((
        "circuit tuples contained in Graver basis",
        not missing,
        f"{len(expected)} circuit tuples{box}, "
        f"{len(graver_pairs - circuit_pairs)} non-circuit Graver elements"
        if not missing
        else f"missing from Graver basis{box}: {missing}",
    ))
    return results


def _cmd_check(problem: Problem, args) -> _Output:
    results = _run_checks(problem, args)
    return _Output(
        lambda: {
            "checks": [
                {"name": name, "ok": ok, "detail": detail} for name, ok, detail in results
            ]
        },
        lambda labels, style: [
            f"{'ok' if ok else 'violation'}: {name} ({detail})" for name, ok, detail in results
        ],
        ok=all(ok for _, ok, _ in results),
    )


_COMMANDS: dict[str, Callable[[Problem, argparse.Namespace], _Output]] = {
    "rank": _cmd_rank,
    "basis-sets": _cmd_index_sets,
    "circuits": _cmd_index_sets,
    "circuit-basis": _cmd_invariants,
    "unified-basis": _cmd_invariants,
    "graver": _cmd_invariants,
    "representations": _cmd_representations,
    "check": _cmd_check,
}


def _read_input(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ValueError(f"cannot read {path}: not UTF-8 (byte {e.start})") from None


def _run(argv: Sequence[str] | None, out, err) -> int:
    """:func:`main` without the final flush of stdout."""
    try:
        args = build_parser().parse_args(argv)
        problem = parse_problem(_read_input(args.input))
        matrix = problem.matrix
        # The library refuses each stage by the work it will do; the quantity
        # cap is the command line's own guard. rank runs one elimination.
        n = len(matrix.quantities)
        if args.command != "rank" and n > args.max_n:
            raise SizeLimitError(
                f"matrix has {n} quantities, exceeding the configured cap of {args.max_n}"
            )
        result = _COMMANDS[args.command](problem, args)
        if result.warning:
            print(f"warning: {result.warning}", file=err)
        if args.format == "json":
            bundle = _bundle(args.command, matrix)
            bundle.update(result.payload())
            out.write(render.to_json(bundle))
        else:
            labels = matrix.names
            if args.format == "latex":
                labels = tuple(q.display or q.name for q in matrix.quantities)
            for line in result.lines(labels, args.format):
                print(line, file=out)
        # ``check`` is the only subcommand whose result can fail.
        return 0 if result.ok else 3
    except SystemExit:
        # Only --help exits: _Parser raises usage errors as ValueError.
        return 0
    except SizeLimitError as e:
        print(f"error: {e}", file=err)
        return 2
    except (ProblemParseError, ValueError) as e:
        print(f"error: {e}", file=err)
        return 1


def main(argv: Sequence[str] | None = None) -> int:
    out, err = sys.stdout, sys.stderr
    try:
        code = _run(argv, out, err)
        out.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout, as ``| head`` does. What is still buffered
        # goes to the null device, so the flush at exit has nothing to fail on.
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        print("error: stdout was closed before all output was written", file=err)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
