from __future__ import annotations

import json
import os
import random
import re
import shlex
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dimbasis.cli import main
from conftest import BENCH_DIR, CLI_GOLDEN, FIXTURE_DIR, run_main

PIPE = str(FIXTURE_DIR / "pipe.dim")
LAMINAR = str(FIXTURE_DIR / "laminar.dim")
FALLING = str(FIXTURE_DIR / "falling_body.dim")
TWO_BODY = str(FIXTURE_DIR / "two_body.dim")
REPO = FIXTURE_DIR.parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rank_laminar(capsys):
    code, out, _ = run(capsys, "rank", "--input", LAMINAR)
    assert code == 0
    assert out == "3\n"


def test_basis_sets_text(capsys):
    code, out, _ = run(capsys, "basis-sets", "--input", FALLING)
    assert code == 0
    assert len(out.splitlines()) == 9
    assert out.splitlines()[0] == "{S(t), V0}"


def test_circuit_basis_text_golden(capsys):
    code, out, _ = run(capsys, "circuit-basis", "--input", PIPE)
    assert code == 0
    assert out.splitlines() == [
        "(dP/l)·rho·d^3 / mu^2",
        "(dP/l)·mu / (rho^2·u^3)",
        "(dP/l)·d / (rho·u^2)",
        "(dP/l)·d^2 / (mu·u)",
        "rho·d·u / mu",
    ]


def test_circuit_basis_json_contains_reynolds(capsys):
    code, out, _ = run(capsys, "circuit-basis", "--input", PIPE, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schemaVersion"] == 1
    assert payload["quantities"] == ["dP/l", "rho", "mu", "d", "u"]
    exponents = [inv["exponents"] for inv in payload["invariants"]]
    assert [0, 1, -1, 1, 1] in exponents
    assert len(exponents) == 5


def test_full_column_rank_yields_empty_invariants(capsys, tmp_path):
    path = tmp_path / "full.dim"
    path.write_text(json.dumps({
        "dimensions": ["L", "T"],
        "quantities": [
            {"name": "a", "dims": [1, 0]},
            {"name": "b", "dims": [0, 1]},
        ],
    }))
    code, out, _ = run(capsys, "circuit-basis", "--input", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["invariants"] == []


def test_representations_count_and_latex(capsys):
    code, out, _ = run(capsys, "representations", "--input", PIPE, "--format", "latex")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(r"\Phi_{" in line for line in lines)


def test_representations_dependent_flag_overrides(capsys):
    code, out, _ = run(
        capsys, "representations", "--input", PIPE, "--dependent", "u", "--exclude", "dP/l"
    )
    assert code == 0
    assert all(line.startswith("u = ") for line in out.splitlines())


def test_representations_duplicate_exclude_exits_1(capsys):
    code, out, err = run(
        capsys, "representations", "--input", PIPE, "--exclude", "rho,rho", "--format", "json"
    )
    assert code == 1
    assert out == ""
    assert err == "error: duplicate excluded quantity 'rho'\n"


def test_representations_without_dependent_errors(capsys, tmp_path):
    path = tmp_path / "nodep.dim"
    path.write_text(json.dumps({
        "dimensions": ["L"],
        "quantities": [{"name": "a", "dims": [1]}, {"name": "b", "dims": [1]}],
    }))
    code, _, err = run(capsys, "representations", "--input", str(path))
    assert code == 1
    assert "dependent" in err


def test_representations_warning_on_empty_system(capsys, tmp_path):
    path = tmp_path / "empty.dim"
    path.write_text(json.dumps({
        "dimensions": ["L"],
        "quantities": [{"name": "a", "dims": [1]}, {"name": "b", "dims": [1]}],
        "dependent": "a",
        "excluded": ["b"],
    }))
    code, out, err = run(capsys, "representations", "--input", str(path))
    assert code == 0
    assert out == ""
    assert "no admissible basis set" in err


def test_two_body_scaling_json(capsys):
    code, out, _ = run(capsys, "representations", "--input", TWO_BODY, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["relation"] == "Psi"
    scalings = [rep["scaling"] for rep in payload["representations"]]
    assert scalings[0] == [["d", 3, 2], ["m1", -1, 2], ["G", -1, 2]]
    assert scalings[1] == [["d", 3, 2], ["m2", -1, 2], ["G", -1, 2]]


def test_graver_brute_method(capsys, tmp_path):
    path = tmp_path / "g.dim"
    path.write_text(json.dumps({
        "dimensions": ["X"],
        "quantities": [
            {"name": "q1", "dims": [1]},
            {"name": "q2", "dims": [2]},
            {"name": "q3", "dims": [1]},
        ],
    }))
    code, out, _ = run(capsys, "graver", "--input", str(path), "--graver-method", "brute:4")
    assert code == 0
    assert out.splitlines() == ["q2 / q3^2", "q1·q3 / q2", "q1 / q3", "q1^2 / q2"]
    code2, out2, _ = run(capsys, "graver", "--input", str(path))
    assert code2 == 0
    assert out2 == out


def test_check_passes_on_fixtures(capsys):
    for path in (PIPE, LAMINAR, FALLING, TWO_BODY):
        code, out, _ = run(capsys, "check", "--input", path)
        assert code == 0
        assert "violation" not in out
        assert out.count("ok:") == 5


def test_check_json_format(capsys):
    code, out, _ = run(capsys, "check", "--input", LAMINAR, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(entry["ok"] for entry in payload["checks"])


# ------------------------------------------------------------- exit codes


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "rank", "--input", "no/such/file.dim")
    assert code == 1
    assert "cannot read" in err


def test_parse_error_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.dim"
    path.write_text("{broken")
    code, _, err = run(capsys, "rank", "--input", str(path))
    assert code == 1
    assert "error" in err


def test_deeply_nested_json_exits_1(capsys, tmp_path):
    path = tmp_path / "nested.dim"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, "rank", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("quantity", [
    '{"name": "u", "dims": [LONG, 0, 0]}', '{"name": "u", "expr": "L^LONG"}',
], ids=["json", "expr"])
def test_overlong_integer_exits_1(capsys, tmp_path, quantity):
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "long.dim"
    path.write_text('{"dimensions": ["L", "T", "M"], "quantities": [%s]}'
                    % quantity.replace("LONG", "1" * (limit + 1)))
    code, out, err = run(capsys, "rank", "--input", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"more than {limit} digits" in err


@pytest.mark.parametrize("exponent", ["\u0662", "\uff13", "++5", "1_0"])
def test_exponent_outside_the_integer_syntax_exits_1(capsys, tmp_path, exponent):
    path = tmp_path / "exponent.dim"
    path.write_text(json.dumps({"dimensions": ["L"], "quantities": [
        {"name": "a", "expr": "L"}, {"name": "b", "expr": f"L^{exponent}"},
    ]}))
    code, out, err = run(capsys, "basis-sets", "--input", str(path))
    assert (code, out) == (1, "")
    assert err == (
        f"error: quantities[1].expr: non-integer exponent {exponent!r} "
        f"in expression 'L^{exponent}'\n"
    )


@pytest.mark.parametrize("text, key", [
    ('{"dimensions": ["L", "T"], "quantities": ['
     '{"name": "a", "dims": [1, 0], "dims": [0, 1]}, {"name": "b", "expr": "T"}]}', "dims"),
    ('{"dimensions": ["L"], "quantities": [{"name": "a", "dims": [1]}], '
     '"quantities": [{"name": "b", "expr": "L"}]}', "quantities"),
], ids=["quantity", "top-level"])
def test_repeated_json_key_exits_1(capsys, tmp_path, text, key):
    path = tmp_path / "dup.dim"
    path.write_text(text)
    assert run(capsys, "circuit-basis", "--input", str(path)) == (
        1, "", f"error: duplicate key {key!r} in a JSON object\n"
    )


def test_non_utf8_file_exits_1(capsys, tmp_path):
    path = tmp_path / "latin1.dim"
    path.write_bytes((FIXTURE_DIR / "pipe.dim").read_bytes().replace(b'"mu"', b'"\xb5"'))
    code, out, err = run(capsys, "rank", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot read") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["text", "latex", "json"])
def test_unencodable_display_exits_1(capsys, tmp_path, fmt):
    path = tmp_path / "surrogate.dim"
    # json.dumps writes the lone surrogate as the escape \ud800.
    path.write_text(json.dumps({
        "dimensions": ["L"],
        "quantities": [
            {"name": "a", "dims": [1]},
            {"name": "b", "dims": [1], "display": "\ud800"},
        ],
    }))
    code, out, err = run(capsys, "circuit-basis", "--input", str(path), "--format", fmt)
    assert code == 1
    assert out == ""
    assert err.startswith("error: quantities[1].display: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    "basis-sets", "circuits", "circuit-basis", "unified-basis", "graver", "representations",
    "check",
])
def test_size_cap_exits_2(capsys, command):
    assert run(capsys, command, "--input", PIPE, "--max-n", "4") == (
        2, "", "error: matrix has 5 quantities, exceeding the configured cap of 4\n"
    )


def test_rank_ignores_size_cap(capsys):
    assert run(capsys, "rank", "--input", PIPE, "--max-n", "3") == (0, "3\n", "")


def test_wide_file_ranks_and_fails_fast_on_the_size_cap(capsys, tmp_path):
    # 40x400 with entries in [-9, 9]: the rank is computed at parse time for
    # every subcommand, and basis-sets is then refused by the quantity cap.
    rng = random.Random(15)
    dims = [f"D{i}" for i in range(40)]
    quantities = [{"name": f"q{j}", "dims": [rng.randint(-9, 9) for _ in dims]}
                  for j in range(400)]
    path = tmp_path / "wide.dim"
    path.write_text(json.dumps({"dimensions": dims, "quantities": quantities}))
    assert run(capsys, "rank", "--input", str(path)) == (0, "40\n", "")
    assert run(capsys, "basis-sets", "--input", str(path)) == (
        2, "", "error: matrix has 400 quantities, exceeding the configured cap of 20\n"
    )


@pytest.mark.parametrize("command, stage, subsets", [
    ("basis-sets", "basis-set enumeration", 184756),
    ("representations", "basis-set enumeration", 184756),
    ("circuits", "circuit scan", 784625),
    ("circuit-basis", "circuit scan", 784625),
    ("unified-basis", "circuit scan", 784625),
    ("check", "circuit scan", 784625),
])
def test_subset_cap_exits_2(capsys, monkeypatch, tmp_path, command, stage, subsets):
    from dimbasis import enumeration

    code, out, err = run_over_cap(capsys, monkeypatch, tmp_path, command, rank=10)
    assert (code, out) == (2, "")
    cap = enumeration._MAX_SUBSETS
    assert err == (
        f"error: {stage} would visit {subsets} column subsets, exceeding the cap of {cap}\n"
    )


@pytest.mark.parametrize("command, eliminations", [
    ("representations", 186048), ("check", 248064),
], ids=["representations", "check"])
def test_reduction_cap_exits_2(capsys, monkeypatch, tmp_path, command, eliminations):
    from dimbasis import enumeration

    # 15,504 basis subsets and a 60,459-subset scan are under the cap, but
    # 16 eliminations per basis subset are not: C(20, 5) subsets for check,
    # the C(19, 5) that avoid the dependent quantity for representations.
    code, out, err = run_over_cap(capsys, monkeypatch, tmp_path, command, rank=5)
    assert (code, out) == (2, "")
    cap = enumeration._MAX_SUBSETS
    assert err == (
        f"error: basis-set reductions would run {eliminations} eliminations, "
        f"exceeding the cap of {cap}\n"
    )


def run_over_cap(capsys, monkeypatch, tmp_path, command, rank):
    from dimbasis import cli, linalg

    # Rank 10 or 5 on 20 quantities, whose stages would run for many minutes;
    # with the eliminations disabled after parsing, one the cap failed to stop
    # raises at once instead.
    dims = [f"D{i}" for i in range(rank)]
    quantities = [{"name": f"q{j}", "expr": dims[j % rank]} for j in range(20)]
    for j in range(rank, 20):
        quantities[j]["expr"] += f" {dims[(j + 1) % rank]}"
    path = tmp_path / f"rank{rank}.dim"
    path.write_text(json.dumps({"dimensions": dims, "quantities": quantities, "dependent": "q0"}))
    real_parse = cli.parse_problem

    def no_elimination(rows):
        raise AssertionError("enumerated an input over the subset cap")

    def parse_then_disable(text):
        problem = real_parse(text)
        monkeypatch.setattr(linalg, "rank", no_elimination)
        monkeypatch.setattr(linalg, "kernel_basis", no_elimination)
        return problem

    monkeypatch.setattr(cli, "parse_problem", parse_then_disable)
    return run(capsys, command, "--input", str(path))


def test_bad_graver_method_exits_1(capsys):
    code, _, err = run(capsys, "graver", "--input", PIPE, "--graver-method", "brute:zero")
    assert code == 1
    assert "bound" in err


def test_usage_error_exits_1(capsys):
    assert main(["no-such-command", "--input", PIPE]) == 1


BAD_MAX_N = "argument --max-n: expected a positive integer, got "


@pytest.mark.parametrize("argv, cause", [
    (["rank", "--input", PIPE, "--bogus"], "unrecognized arguments: --bogus"),
    (["rank"], "--input"),
    (["rank", "--input", PIPE, "--max-n", "abc"], f"{BAD_MAX_N}'abc'"),
    (["rank", "--input", PIPE, "--max-n", "-5"], f"{BAD_MAX_N}'-5'"),
    (["rank", "--input", PIPE, "--max-n", "0"], f"{BAD_MAX_N}'0'"),
    (["basis-sets", "--input", PIPE, "--max-n", "0"], f"{BAD_MAX_N}'0'"),
    (["basis-sets", "--input", PIPE, "--max-n", "-1"], f"{BAD_MAX_N}'-1'"),
    (["rank", "--input", PIPE, "--format", "xml"], "'xml'"),
    (["no-such-command", "--input", PIPE], "'no-such-command'"),
    (["rank", "--input", PIPE, "--dependent", "a"], "unrecognized arguments: --dependent a"),
    (["rank", "--input", PIPE, "--max-n", "++5"], f"{BAD_MAX_N}'++5'"),
    (["rank", "--input", PIPE, "--max-n", "\u0662"], f"{BAD_MAX_N}'\u0662'"),
    (["rank", "--input", PIPE, "--max-n", "9" * 5000], BAD_MAX_N),
    (["graver", "--input", PIPE, "--graver-method", "brute:1_0"],
     "bad brute-force bound in 'brute:1_0'"),
    (["graver", "--input", PIPE, "--graver-method", "brute: 2"],
     "bad brute-force bound in 'brute: 2'"),
    (["check", "--input", PIPE, "--graver-method", "brute:\u0662"],
     "bad brute-force bound in 'brute:\u0662'"),
    (["graver", "--input", PIPE, "--graver-method", "brute:" + "9" * 5000],
     "bad brute-force bound in 'brute:999"),
    (["graver", "--input", PIPE, "--graver-method", "brute:0"],
     "error: brute-force bound must be at least 1\n"),
], ids=["unknown flag", "missing input", "bad max-n", "negative max-n", "zero max-n",
        "zero max-n on an enumeration", "negative max-n on an enumeration", "bad format",
        "unknown command", "flag of another command", "doubled sign max-n",
        "non-ASCII digit max-n", "max-n beyond int digit limit", "underscore bound",
        "space in bound", "non-ASCII digit bound", "bound beyond int digit limit",
        "zero bound"])
def test_usage_error_prints_one_error_line(capsys, argv, cause):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and cause in err, err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: dimbasis") and err == ""


def test_unknown_dependent_exits_1(capsys):
    code, _, err = run(capsys, "representations", "--input", PIPE, "--dependent", "xyz")
    assert code == 1
    assert err == "error: --dependent: unknown quantity 'xyz'\n"


@pytest.mark.parametrize("field, directives, argv", [
    ("dependent", {"dependent": "nope"}, []),
    ("excluded", {"excluded": ["nope"]}, []),
    ("--dependent", {}, ["--dependent", "nope"]),
    ("--exclude", {}, ["--exclude", "rho,nope"]),
], ids=["dependent", "excluded", "--dependent", "--exclude"])
def test_unknown_quantity_reads_alike_in_the_file_and_the_flags(
    capsys, tmp_path, field, directives, argv
):
    doc = json.loads((FIXTURE_DIR / "pipe.dim").read_text(encoding="utf-8"))
    path = tmp_path / "pipe.dim"
    path.write_text(json.dumps({**doc, **directives}))
    code, out, err = run(capsys, "representations", "--input", str(path), *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {field}: unknown quantity 'nope'\n"


def test_check_violation_exits_3(capsys, monkeypatch):
    import dimbasis.cli as cli_module

    monkeypatch.setattr(
        cli_module, "_run_checks", lambda problem, args: [("forced", False, "probe")]
    )
    code, out, _ = run(capsys, "check", "--input", PIPE)
    assert code == 3
    assert "violation: forced" in out


def test_check_brute_force_compares_circuits_inside_the_box(capsys):
    # Four of the five pipe-flow circuits have an entry above 1 in absolute
    # value; brute:1 cannot see them, and that is not a violation.
    code, out, _ = run(capsys, "check", "--input", PIPE, "--graver-method", "brute:1")
    assert code == 0
    assert out.splitlines()[-1] == (
        "ok: circuit tuples contained in Graver basis "
        "(1 circuit tuples with entries at most 1, 0 non-circuit Graver elements)"
    )


@pytest.mark.parametrize("method, box", [
    ("completion", ""), ("brute:1", " with entries at most 1"),
])
def test_check_missing_circuit_exits_3(capsys, monkeypatch, method, box):
    from dimbasis import graver

    real = graver.graver_basis
    reynolds = (0, 1, -1, 1, 1)
    monkeypatch.setattr(graver, "graver_basis", lambda *a, **k: frozenset(
        p for p in real(*a, **k) if p.exponents != reynolds))
    code, out, _ = run(capsys, "check", "--input", PIPE, "--graver-method", method)
    assert code == 3
    assert out.splitlines()[-1] == (
        "violation: circuit tuples contained in Graver basis "
        f"(missing from Graver basis{box}: [{reynolds}])"
    )


def test_check_enumerates_circuits_once(capsys, monkeypatch):
    from dimbasis import enumeration

    calls = []
    real = enumeration.circuit_basis
    monkeypatch.setattr(enumeration, "circuit_basis",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    code, _, _ = run(capsys, "check", "--input", PIPE)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["graver", "check"])
def test_oversized_brute_force_box_exits_2(capsys, command):
    # 17^5 points: over the cap, and only seconds of work if the cap failed.
    code, out, err = run(capsys, command, "--input", PIPE, "--graver-method", "brute:8")
    assert code == 2
    assert out == ""
    assert err == "error: brute-force box has 17^5 points, exceeding the cap of 1000000\n"


CLOSED_STDOUT = "error: stdout was closed before all output was written\n"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["rank", "--format", "json", "--input", PIPE],
    ["check", "--format", "json", "--input", PIPE],
    ["circuit-basis", "--format", "json", "--input", PIPE],
    ["--help"],
], ids=["rank", "check", "circuit-basis", "help"])
def test_closed_stdout_prints_no_traceback(argv, unbuffered):
    # The read end of stdout is closed before the process writes, as ``| head``
    # leaves it. Buffered, the first write that fails is the flush of stdout;
    # unbuffered, it is the first print.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(BENCH_DIR.parent / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run([sys.executable, "-m", "dimbasis", *argv], stdout=write,
                                stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    err = result.stderr.decode("utf-8", "replace")
    # argparse drops a failed write of the help text, so unbuffered help exits 0.
    expected = (0, "") if argv == ["--help"] and unbuffered else (1, CLOSED_STDOUT)
    assert (result.returncode, err) == expected


@pytest.mark.parametrize("command", ["graver", "check"])
def test_over_budget_completion_exits_2(capsys, monkeypatch, command):
    monkeypatch.setattr("dimbasis.graver._MAX_GENERATOR_SCANS", 10)
    code, out, err = run(capsys, command, "--input", PIPE)
    assert (code, out) == (2, "")
    assert err == "error: Graver completion would scan more than 10 generators\n"


def seeded_problem(rows) -> dict:
    return {
        "dimensions": ["D0", "D1", "D2"],
        "quantities": [{"name": f"q{j}", "dims": list(col)} for j, col in enumerate(zip(*rows))],
    }


OVER_BUDGET = (2, "", "error: Graver completion would scan more than 30000000 generators\n")


def test_seeded_3x8_completion_exits_2(capsys, tmp_path):
    # Seed 3 of the benchmark's column-major draw, 3 x 8 with entries in
    # [-2, 2]: the completion needs more than 200,000 normal forms.
    rows = [[-1, -1, 1, 2, 0, -1, 2, -1], [2, 0, 2, -2, 2, 1, 1, -1], [2, 2, -2, 1, -1, 2, 1, -1]]
    doc = seeded_problem(rows)
    path = tmp_path / "graver_3x8.dim"
    path.write_text(json.dumps(doc))
    assert run(capsys, "graver", "--input", str(path)) == OVER_BUDGET
    # The same problem is the fixture that CI runs through the installed script.
    assert json.loads((FIXTURE_DIR / "graver_3x8.dim").read_text(encoding="utf-8")) == doc


def test_seeded_3x12_completion_exits_2(capsys):
    # Seed 3, 3 x 12: a wide input whose generator list grows fast, so a budget
    # on normal forms alone refused it only after about 25 s.
    rows = [
        [-1, -1, 1, 2, 0, -1, 2, -1, 2, -2, -2, 0],
        [2, 0, 2, -2, 2, 1, 1, -1, 1, -1, 0, 1],
        [2, 2, -2, 1, -1, 2, 1, -1, -2, 2, -2, 2],
    ]
    path = FIXTURE_DIR / "graver_3x12.dim"
    assert json.loads(path.read_text(encoding="utf-8")) == seeded_problem(rows)
    assert run(capsys, "graver", "--input", str(path)) == OVER_BUDGET


def test_graver_of_entries_past_40_bits(capsys):
    # The one Graver pair has entries up to 5 * 10^11, so its packed fields are
    # 40 bits wide. CI runs the same fixture through the installed script.
    path = FIXTURE_DIR / "graver_wide_entries.dim"
    assert run(capsys, "graver", "--input", str(path)) == (
        0, "a^26 / (b^500000000007·c^299999999999)\n", ""
    )


def test_text_runs_are_deterministic(capsys):
    first = run(capsys, "unified-basis", "--input", FALLING)
    second = run(capsys, "unified-basis", "--input", FALLING)
    assert first == second


# ---------------------------------------------------------- golden replay


def golden_argv(key: str, tmp_path) -> list[str]:
    """The argv of one benchmark CLI case, as perfbench/worker.py builds it.

    The error-path inputs are written under tmp_path with the bytes that the
    benchmark's ``write_error_inputs`` writes.
    """
    fixture = lambda name: str(BENCH_DIR / "fixtures" / name)  # noqa: E731
    if not key.startswith("error "):
        name, command, fmt = key.split()
        return [command, "--input", fixture(name), "--format", fmt]
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
    for name, data in contents.items():
        (tmp_path / name).write_bytes(data)
    written = lambda name: str(tmp_path / name)  # noqa: E731
    return {
        "error truncated-json": ["rank", "--input", written("truncated.dim")],
        "error unknown-dimension": ["rank", "--input", written("unknown_dimension.dim")],
        "error max-n-below-n": ["basis-sets", "--input", fixture("pipe.dim"), "--max-n", "3"],
        "error bad-graver-method":
            ["graver", "--input", fixture("pipe.dim"), "--graver-method", "fast"],
        "error nested-brackets": ["rank", "--input", written("nested.dim")],
        "error non-utf8": ["rank", "--input", written("latin1.dim")],
    }[key]


@pytest.mark.parametrize("key", sorted(CLI_GOLDEN))
def test_cli_golden_replay(key, tmp_path):
    """Byte-identical stdout and exit code on every benchmark CLI case.

    stderr is held to the benchmark's rule: empty on exit 0, otherwise
    exactly one ``error:`` line.
    """
    golden = CLI_GOLDEN[key]
    code, out, err = run_main(golden_argv(key, tmp_path))
    assert code == golden["exit"]
    assert out == golden["stdout"].encode("utf-8")
    lines = err.decode("utf-8", "replace").splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


# --------------------------------------------------------------- fuzzing

COMMANDS = (
    "rank", "basis-sets", "circuits", "circuit-basis", "unified-basis",
    "graver", "representations", "check",
)
FIXTURE_TEXTS = [
    (FIXTURE_DIR / name).read_text(encoding="utf-8")
    for name in ("pipe.dim", "laminar.dim", "falling_body.dim", "two_body.dim")
]
NAMES = ["dP/l", "rho", "mu", "d", "u", "S(t)", "t", "m1", "G", "a b", ""]

# Lone surrogates included: json.dumps escapes them, json.loads restores them.
any_text = st.text(st.characters(exclude_categories=()), max_size=6)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 4) | st.integers() | st.floats()
    | st.sampled_from(NAMES + ["L", "T", "M", "L T^-1", "M^2 L^-3"]) | any_text,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["name", "dims", "expr", "display"]) | any_text,
                      children, max_size=4),
    max_leaves=12,
)


@st.composite
def problem_docs(draw) -> dict:
    """Mostly well-formed problems; about one field in ten is off."""

    def rarely() -> bool:
        # Not 0: Hypothesis draws the low end of a range far more often.
        return draw(st.integers(0, 9)) == 7

    dims = draw(st.lists(st.sampled_from(["L", "T", "M"]), min_size=1, max_size=3, unique=True))
    names = draw(st.lists(st.sampled_from(NAMES[:-2]), min_size=1, max_size=6, unique=True))
    quantities = []
    for name in names:
        exponents = draw(st.lists(st.integers(-3, 3), min_size=len(dims), max_size=len(dims)))
        quantity = {"name": draw(st.sampled_from(NAMES[-2:])) if rarely() else name}
        if draw(st.booleans()):
            quantity["dims"] = exponents
        else:
            expr = " ".join(f"{d}^{e}" for d, e in zip(dims, exponents))
            quantity["expr"] = draw(st.sampled_from(["L^x", "Q"])) if rarely() else expr
        if draw(st.booleans()):
            quantity["display"] = draw(st.sampled_from(["\ud800", "x\udfff"]) if rarely()
                                       else st.sampled_from([r"\rho", r"\Delta P"]) | any_text)
        quantities.append(quantity)
    doc = {"dimensions": dims, "quantities": quantities}
    if draw(st.booleans()):
        doc["dependent"] = draw(json_values if rarely() else st.sampled_from(names))
    if draw(st.booleans()):
        doc["excluded"] = draw(json_values if rarely() else st.lists(st.sampled_from(names), max_size=2))
    return doc


@st.composite
def mutated_fixtures(draw) -> bytes:
    """A fixture with one value replaced or deleted, or its bytes cut or spliced."""
    text = draw(st.sampled_from(FIXTURE_TEXTS))
    if draw(st.booleans()):
        data = bytearray(text.encode("utf-8"))
        start = draw(st.integers(0, len(data)))
        stop = draw(st.integers(start, min(len(data), start + 8)))
        data[start:stop] = draw(st.binary(max_size=4))
        return bytes(data)
    doc = json.loads(text)
    node = doc
    while True:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        if not keys:
            break
        key = draw(st.sampled_from(keys))
        action = draw(st.sampled_from(["replace", "delete", "descend"]))
        if action == "descend" and isinstance(node[key], (dict, list)):
            node = node[key]
            continue
        if action == "delete":
            del node[key]
        else:
            node[key] = draw(json_values)
        break
    return json.dumps(doc).encode("utf-8")


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "problem.dim"


def check_contract(path, data: bytes, command: str, fmt: str) -> None:
    """Run main in-process on the file and assert the CLI contract."""
    path.write_bytes(data)
    argv = [command, "--input", str(path), "--format", fmt, "--max-n", "5"]
    if command in ("graver", "check"):
        argv += ["--graver-method", "brute:1"]
    code, stdout, stderr = run_main(argv)
    stdout, stderr = stdout.decode("utf-8"), stderr.decode("utf-8")
    assert code in (0, 1, 2, 3)
    if code in (1, 2):
        assert stdout == ""
        assert stderr.startswith("error: ") and stderr.endswith("\n"), stderr
        assert stderr.count("\n") == 1, stderr
    elif code == 0:
        assert stderr == "" or (stderr.startswith("warning: ") and stderr.count("\n") == 1)


fuzz_settings = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
commands = st.sampled_from(COMMANDS)
formats = st.sampled_from(["text", "latex", "json"])


@fuzz_settings
@given(data=st.binary(max_size=200), command=commands, fmt=formats)
def test_fuzz_arbitrary_bytes(fuzz_path, data, command, fmt):
    check_contract(fuzz_path, data, command, fmt)


@fuzz_settings
@given(doc=problem_docs() | json_values, command=commands, fmt=formats)
def test_fuzz_arbitrary_json(fuzz_path, doc, command, fmt):
    check_contract(fuzz_path, json.dumps(doc).encode("utf-8"), command, fmt)


@fuzz_settings
@given(data=mutated_fixtures(), command=commands, fmt=formats)
def test_fuzz_mutated_fixtures(fuzz_path, data, command, fmt):
    check_contract(fuzz_path, data, command, fmt)


PACKAGING_JOB = (REPO / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")


def packaging_argv(args: str) -> list[str]:
    """The argument list of a console-script run in the CI ``packaging`` job."""
    paths = {"$pipe": PIPE, "$GITHUB_WORKSPACE": str(REPO)}
    return shlex.split(re.sub(r"\$\w+", lambda v: paths[v.group()], args))


def packaging_expectations() -> list[tuple[list[str], str]]:
    """The console-script runs whose stdout the CI ``packaging`` job spells out.

    Each is the argument list and the exact stdout: a ``test "$(...)" = value``
    line, or a run into ``file.txt`` checked by ``diff - file.txt <<'EOF'``.
    """
    runs = [(args, value + "\n") for args, value in
            re.findall(r'test "\$\("\$bin/dimbasis" ([^)\n]*)\)" = (\S+)', PACKAGING_JOB)]
    heredoc = r"^( *)\"\$bin/dimbasis\" ([^\n]*) > (\S+)\n\1diff - \3 <<'EOF'\n(.*?)^\1EOF$"
    for indent, args, _, body in re.findall(heredoc, PACKAGING_JOB, re.M | re.S):
        runs.append((args, "".join(line[len(indent):] + "\n" for line in body.splitlines())))
    return [(packaging_argv(args), stdout) for args, stdout in runs]


def packaging_line_counts() -> list[tuple[list[str], int, list[str] | None]]:
    """The console-script runs whose line count the CI ``packaging`` job checks.

    Each is a run into ``file.txt`` checked by ``test "$(wc -l < file.txt)" = count``:
    its argument list, the count, and the argument list of a second run that
    ``| diff file.txt -`` compares with it on the next line, or None.
    """
    counted = (r'^( *)"\$bin/dimbasis" ([^\n]*) > (\S+)\n\1test "\$\(wc -l < \3\)" = (\d+)\n'
               r'(?:\1"\$bin/dimbasis" ([^\n|]*) \| diff \3 -\n)?')
    return [(packaging_argv(args), int(count), packaging_argv(other) if other else None)
            for _, args, _, count, other in re.findall(counted, PACKAGING_JOB, re.M)]


def test_packaging_job_expects_what_the_cli_prints():
    # The job installs the package from the network, so it runs only in CI;
    # its hard-coded outputs are checked here against the in-process CLI.
    cases = packaging_expectations()
    assert [argv[0] for argv, _ in cases] == ["rank", "check", "graver"]
    for argv, stdout in cases:
        code, out, err = run_main(argv)
        assert (code, out.decode("utf-8"), err) == (0, stdout, b""), argv
    counts = packaging_line_counts()
    assert [(os.path.basename(argv[2]), count, other is not None)
            for argv, count, other in counts] == [
        ("pipe.dim", 5, True), ("falling_body.dim", 8, True), ("two_body.dim", 3, True),
        ("pipe_10.dim", 444, False),
    ]
    for argv, count, other in counts:
        code, out, err = run_main(argv)
        assert (code, len(out.splitlines()), err) == (0, count, b""), argv
        if other is not None:
            assert run_main(other) == (0, out, b""), other
