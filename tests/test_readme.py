"""The README's examples run and print what the README shows."""

from __future__ import annotations

import io
import re
from contextlib import redirect_stdout

from dimbasis import circuit_basis
from conftest import BENCH_DIR, FIXTURE_DIR, run_main

README = (BENCH_DIR.parent / "README.md").read_text(encoding="utf-8")


def test_readme_representations_example():
    session = re.search(r"```sh\n\$ dimbasis (.*)\n((?:[^`].*\n)+)```", README)
    command, shown = session.groups()
    assert command == "representations --input tests/fixtures/two_body.dim"
    assert shown.count("\n") == 2
    code, out, err = run_main(["representations", "--input", str(FIXTURE_DIR / "two_body.dim")])
    assert (code, err) == (0, b"")
    assert out.decode("utf-8") == shown


def test_readme_library_example():
    source = re.search(r"## Library\n\n```python\n(.*?)```", README, re.S).group(1)
    namespace: dict = {}
    with redirect_stdout(io.StringIO()) as out:
        exec(source, namespace)  # the containment assert runs here
    assert len(circuit_basis(namespace["matrix"])) == 8
    assert len(namespace["system"].representations) == 3
    assert len(out.getvalue().splitlines()) == 8 + 3
