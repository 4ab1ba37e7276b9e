from __future__ import annotations

import json
import os
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


def test_size_cap_exits_2(capsys):
    code, _, err = run(capsys, "circuits", "--input", PIPE, "--max-n", "3")
    assert code == 2
    assert "cap" in err


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


@pytest.mark.parametrize("command", ["representations", "check"])
def test_reduction_cap_exits_2(capsys, monkeypatch, tmp_path, command):
    from dimbasis import enumeration

    # 15,504 basis subsets and a 60,459-subset scan are under the cap, but
    # 16 eliminations per basis subset are not.
    code, out, err = run_over_cap(capsys, monkeypatch, tmp_path, command, rank=5)
    assert (code, out) == (2, "")
    cap = enumeration._MAX_SUBSETS
    assert err == (
        f"error: basis-set reductions would run 248064 eliminations, exceeding the cap of {cap}\n"
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
    (["graver", "--input", PIPE, "--graver-method", "brute:0"],
     "error: brute-force bound must be at least 1\n"),
], ids=["unknown flag", "missing input", "bad max-n", "negative max-n", "zero max-n",
        "zero max-n on an enumeration", "negative max-n on an enumeration", "bad format",
        "unknown command", "flag of another command", "doubled sign max-n",
        "non-ASCII digit max-n", "max-n beyond int digit limit", "underscore bound",
        "space in bound", "non-ASCII digit bound", "zero bound"])
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
    assert "unknown dependent" in err


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
    monkeypatch.setattr("dimbasis.graver._MAX_NORMAL_FORMS", 10)
    code, out, err = run(capsys, command, "--input", PIPE)
    assert (code, out) == (2, "")
    assert err == "error: Graver completion would compute more than 10 normal forms\n"


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
