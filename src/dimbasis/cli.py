"""Command-line interface.

Results go to stdout, diagnostics to stderr. Exit codes: 0 success,
1 input or parse error, 2 size cap exceeded, 3 property violation
(``check`` only). Output is deterministic: the same input file and flags
always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from math import comb, gcd
from pathlib import Path
from typing import Sequence

from . import enumeration, graver, render, representations
from .errors import DEFAULT_MAX_N, SizeLimitError
from .model import DimensionalMatrix
from .problem import Problem, ProblemParseError, parse_problem

_COMMANDS = (
    "rank",
    "basis-sets",
    "circuits",
    "circuit-basis",
    "unified-basis",
    "graver",
    "representations",
    "check",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
            type=int,
            default=DEFAULT_MAX_N,
            help=f"quantity-count cap for enumeration (default: {DEFAULT_MAX_N})",
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
            bound = int(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad brute-force bound in {text!r}") from None
        if bound < 1:
            raise ValueError("brute-force bound must be at least 1")
        return "brute_force", bound
    raise ValueError(f"unknown Graver method {text!r} (use completion or brute:<bound>)")


def _labels(matrix: DimensionalMatrix, style: str) -> tuple[str, ...]:
    if style == "latex":
        return tuple(q.display or q.name for q in matrix.quantities)
    return matrix.names


def _bundle(command: str, matrix: DimensionalMatrix) -> dict:
    return {
        "schemaVersion": 1,
        "command": command,
        "dimensions": list(matrix.system.names),
        "quantities": list(matrix.names),
        "rank": matrix.rank,
    }


def _emit(lines: Sequence[str], out) -> None:
    for line in lines:
        print(line, file=out)


def _cmd_rank(problem: Problem, args, out) -> int:
    matrix = problem.matrix
    if args.format == "json":
        out.write(render.to_json(_bundle("rank", matrix)))
    else:
        print(matrix.rank, file=out)
    return 0


def _cmd_index_sets(problem: Problem, args, out) -> int:
    matrix = problem.matrix
    if args.command == "basis-sets":
        sets = [b.indices for b in enumeration.enumerate_basis_sets(matrix, args.max_n)]
        key = "basisSets"
    else:
        sets = [c.indices for c in enumeration.enumerate_circuit_sets(matrix, args.max_n)]
        key = "circuits"
    if args.format == "json":
        bundle = _bundle(args.command, matrix)
        bundle[key] = [list(s) for s in sets]
        out.write(render.to_json(bundle))
    else:
        labels = _labels(matrix, args.format)
        _emit([render.render_index_set(s, labels, args.format) for s in sets], out)
    return 0


def _cmd_invariant_basis(problem: Problem, args, out) -> int:
    matrix = problem.matrix
    if args.command == "circuit-basis":
        invariants = [p.canonical for p in enumeration.circuit_basis(matrix, args.max_n)]
    else:
        invariants = enumeration.unified_basis(matrix, args.max_n)
    if args.format == "json":
        bundle = _bundle(args.command, matrix)
        bundle["invariants"] = [
            render.invariant_json(inv, matrix.names) for inv in invariants
        ]
        out.write(render.to_json(bundle))
    else:
        labels = _labels(matrix, args.format)
        _emit([render.render_invariant(inv, labels, args.format) for inv in invariants], out)
    return 0


def _cmd_graver(problem: Problem, args, out) -> int:
    matrix = problem.matrix
    method, bound = _parse_graver_method(args.graver_method)
    elements = sorted(
        graver.graver_basis(matrix, method, bound=bound, max_n=args.max_n),
        key=lambda g: g.exponents,
    )
    if args.format == "json":
        bundle = _bundle("graver", matrix)
        bundle["graverMethod"] = args.graver_method
        bundle["graver"] = [
            {
                "exponents": list(g.exponents),
                "text": render.render_power_product(
                    [(matrix.names[j], e) for j, e in enumerate(g.exponents) if e]
                ),
            }
            for g in elements
        ]
        out.write(render.to_json(bundle))
    else:
        labels = _labels(matrix, args.format)
        lines = [
            render.render_power_product(
                [(labels[j], e) for j, e in enumerate(g.exponents) if e], args.format
            )
            for g in elements
        ]
        _emit(lines, out)
    return 0


def _cmd_representations(problem: Problem, args, out, err) -> int:
    matrix = problem.matrix
    dependent = problem.dependent
    if args.dependent is not None:
        try:
            dependent = matrix.index_of(args.dependent)
        except KeyError:
            raise ValueError(f"unknown dependent quantity {args.dependent!r}") from None
    if dependent is None:
        raise ValueError(
            "no dependent quantity: set one in the file or pass --dependent"
        )
    excluded = problem.excluded
    if args.exclude is not None:
        names = [x for x in args.exclude.split(",") if x]
        try:
            excluded = tuple(matrix.index_of(x) for x in names)
        except KeyError as e:
            raise ValueError(f"unknown excluded quantity {e.args[0]!r}") from None
    system = representations.equation_system(matrix, dependent, excluded, args.max_n)
    if system.warning:
        print(f"warning: {system.warning}", file=err)
    if args.format == "json":
        bundle = _bundle("representations", matrix)
        bundle["excluded"] = [matrix.names[j] for j in excluded]
        bundle.update(render.equation_system_json(system, matrix))
        out.write(render.to_json(bundle))
    else:
        labels = _labels(matrix, args.format)
        _emit(
            [
                render.render_representation(rep, labels, args.format)
                for rep in system.representations
            ],
            out,
        )
    return 0


def _run_checks(problem: Problem, args) -> list[tuple[str, bool, str]]:
    """The internal property suite behind the ``check`` subcommand."""
    matrix = problem.matrix
    rows = matrix.rows
    n, r = len(matrix.quantities), matrix.rank
    method, bound = _parse_graver_method(args.graver_method)

    circuit_pairs = enumeration.circuit_basis(matrix, args.max_n)
    systems = [
        enumeration.basis_set_invariants(matrix, b)
        for b in enumeration.enumerate_basis_sets(matrix, args.max_n)
    ]
    emitted = [p.canonical for p in circuit_pairs]
    emitted.extend(inv for s in systems for inv in s.invariants)
    emitted.extend(enumeration.unified_basis(matrix, args.max_n))

    results: list[tuple[str, bool, str]] = []

    bad_kernel = [
        inv.exponents
        for inv in emitted
        if any(sum(row[j] * e for j, e in enumerate(inv.exponents)) != 0 for row in rows)
    ]
    results.append((
        "kernel membership",
        not bad_kernel,
        f"{len(emitted)} invariants checked" if not bad_kernel else f"violations: {bad_kernel}",
    ))

    # Invariant construction enforces coprimality; re-derive it here anyway.
    bad_gcd = [
        inv.exponents
        for inv in emitted
        if gcd(*(abs(e) for e in inv.exponents)) != 1
    ]
    results.append((
        "exponent gcd is 1",
        not bad_gcd,
        f"{len(emitted)} invariants checked" if not bad_gcd else f"violations: {bad_gcd}",
    ))

    size = len(circuit_pairs)
    upper = comb(n, r + 1)
    ok_bound = (n - r) <= size <= upper
    results.append((
        "circuit-basis cardinality bound",
        ok_bound,
        f"n-r={n - r} <= {size} <= C(n,r+1)={upper}",
    ))

    # The unified basis is computed from the circuits; check the theorem
    # behind that against its definition, the union over the basis sets.
    circuit_set = {p.exponents for p in circuit_pairs}
    union = {inv.canonical().exponents for s in systems for inv in s.invariants}
    mismatch = sorted(union ^ circuit_set)
    results.append((
        "unified basis contained in circuit basis",
        not mismatch,
        f"{len(union)} of {size} pairs" if not mismatch else f"violations: {mismatch}",
    ))

    report = graver.check_circuits_in_graver(
        matrix, method, bound=bound, max_n=args.max_n
    )
    results.append((
        "circuit tuples contained in Graver basis",
        report.contained,
        f"{len(circuit_set)} circuit tuples, {len(report.non_circuit_witnesses)} "
        "non-circuit Graver elements"
        if report.contained
        else f"missing from Graver basis: {list(report.missing)}",
    ))
    return results


def _cmd_check(problem: Problem, args, out) -> int:
    results = _run_checks(problem, args)
    if args.format == "json":
        bundle = _bundle("check", problem.matrix)
        bundle["checks"] = [
            {"name": name, "ok": ok, "detail": detail} for name, ok, detail in results
        ]
        out.write(render.to_json(bundle))
    else:
        for name, ok, detail in results:
            status = "ok" if ok else "violation"
            print(f"{status}: {name} ({detail})", file=out)
    return 0 if all(ok for _, ok, _ in results) else 3


def main(argv: Sequence[str] | None = None) -> int:
    out, err = sys.stdout, sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits on --help (code 0) and usage errors; fold the latter
        # into the input-error exit code.
        return 0 if e.code in (0, None) else 1

    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except OSError as e:
        print(f"error: cannot read {args.input}: {e.strerror}", file=err)
        return 1
    except UnicodeDecodeError as e:
        print(f"error: cannot read {args.input}: not UTF-8 (byte {e.start})", file=err)
        return 1

    try:
        problem = parse_problem(text)
        if args.command == "rank":
            return _cmd_rank(problem, args, out)
        if args.command in ("basis-sets", "circuits"):
            return _cmd_index_sets(problem, args, out)
        if args.command in ("circuit-basis", "unified-basis"):
            return _cmd_invariant_basis(problem, args, out)
        if args.command == "graver":
            return _cmd_graver(problem, args, out)
        if args.command == "representations":
            return _cmd_representations(problem, args, out, err)
        return _cmd_check(problem, args, out)
    except SizeLimitError as e:
        print(f"error: {e}", file=err)
        return 2
    except (ProblemParseError, ValueError) as e:
        print(f"error: {e}", file=err)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
