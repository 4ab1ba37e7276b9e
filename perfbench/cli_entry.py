"""Traced stand-in for ``python -m dimbasis``.

Imports ``dimbasis.cli`` (timing the import), installs the benchmark's
span wrappers, runs ``dimbasis.cli.main`` on the command-line arguments in a
``cli.main`` span and writes the spans to the file named by the
``PERFBENCH_SPANS`` environment variable. Exit code, stdout, stderr and
uncaught exceptions are those of ``python -m dimbasis``.
"""

import os
import sys
from time import perf_counter

from tracer import Tracer

start = perf_counter()
import dimbasis.cli  # noqa: E402

import_s = perf_counter() - start
tracer = Tracer()
tracer.install()
try:
    code = tracer.span("cli.main", dimbasis.cli.main, sys.argv[1:])
finally:
    tracer.dump(os.environ["PERFBENCH_SPANS"], import_s=import_s)
sys.exit(code)
