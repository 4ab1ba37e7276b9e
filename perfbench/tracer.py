"""Span tracing of dimbasis from outside the package.

:meth:`Tracer.install` replaces public functions of the dimbasis modules
with timing wrappers. A function is replaced under every module attribute that
refers to it, because the package looks functions up in three ways: as a
module attribute (``linalg.rank``), as a module global (``rank`` inside
``linalg``), and as a name bound by ``from ... import`` (``circuit_basis``
inside ``graver``). Each call becomes a span (name, start, end, parent,
job, size) kept in memory; :meth:`Tracer.dump` writes them out at the end.
Self time is a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import json
import statistics
import sys
from math import comb
from time import perf_counter


def _len(result, args):
    return len(result)


def _text_bytes(result, args):
    return len(result.encode("utf-8")) if isinstance(result, str) else 0


def _basis_sets(result, args):
    matrix = args[0]
    return (len(result), comb(len(matrix.quantities), matrix.rank))


# (module, function, span name, size annotation or None)
TARGETS = [
    ("linalg", "rank", "linalg.rank", None),
    ("linalg", "kernel_basis", "linalg.kernel_basis", None),
    ("linalg", "solve_in_basis", "linalg.solve_in_basis", None),
    ("linalg", "scale_to_primitive", "linalg.scale", None),
    ("linalg", "primitive_scale", "linalg.scale", None),
    ("linalg", "integer_kernel_basis", "linalg.integer_kernel_basis", None),
    ("enumeration", "enumerate_basis_sets", "enumeration.enumerate_basis_sets", _basis_sets),
    ("enumeration", "enumerate_circuit_sets", "enumeration.enumerate_circuit_sets", _len),
    ("enumeration", "is_circuit_set", "enumeration.is_circuit_set", None),
    ("enumeration", "circuit_invariant", "enumeration.circuit_invariant", None),
    ("enumeration", "circuit_basis", "enumeration.circuit_basis", None),
    ("enumeration", "basis_set_invariants", "enumeration.basis_set_invariants",
     lambda result, args: len(result.invariants)),
    ("enumeration", "unified_basis", "enumeration.unified_basis", _len),
    ("representations", "admissible_basis_sets", "representations.admissible_basis_sets", _len),
    ("representations", "build_representation", "representations.build_representation", None),
    ("representations", "equation_system", "representations.equation_system", None),
    ("graver", "graver_basis", "graver.graver_basis", _len),
    ("graver", "_completion", "graver.completion", None),
    ("graver", "_brute_force", "graver.brute_force", None),
    ("graver", "_minimal_elements", "graver.minimal_elements", None),
    ("model", "build_matrix", "model.build_matrix", None),
    ("problem", "parse_problem", "problem.parse_problem",
     lambda result, args: len(args[0].encode("utf-8"))),
] + [
    ("render", name, f"render.{name}", _text_bytes)
    for name in (
        "render_power_product", "render_invariant", "render_index_set",
        "render_representation", "invariant_json", "representation_json",
        "equation_system_json", "to_json",
    )
]

# Called about ten million times on a slow Graver case: counted, not spanned.
COUNTED = [("graver", "conforms", "graver.conforms")]


class Tracer:
    """Spans and call counters of one traced run."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.job = -1
        self.counters: dict[str, list[int]] = {}
        self.active = False
        self._patches: list | None = None

    def span(self, name, fn, *args, size=None, **kwargs):
        """Call fn inside a span named *name*."""
        spans, stack = self.spans, self.stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, self.job, 0)
        if size is not None:
            spans[index] = spans[index][:5] + (size(result, args),)
        return result

    def wrap(self, name, fn, size):
        span = self.span

        def traced(*args, **kwargs):
            return span(name, fn, *args, size=size, **kwargs)

        return traced

    def count(self, name, fn):
        cell = self.counters.setdefault(name, [0])

        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    def install(self) -> None:
        """Replace every target under every dimbasis module attribute naming it."""
        if self._patches is None:
            self._patches = self._find_patches()
        for module, key, _, wrapper in self._patches:
            setattr(module, key, wrapper)
        self.active = True

    def uninstall(self) -> None:
        for module, key, original, _ in self._patches:
            setattr(module, key, original)
        self.active = False

    def _find_patches(self) -> list:
        import importlib

        for module_name, _, _, _ in TARGETS:
            importlib.import_module(f"dimbasis.{module_name}")
        modules = [m for k, m in sys.modules.items() if k == "dimbasis" or k.startswith("dimbasis.")]
        replacements = []
        for module_name, attr, name, size in TARGETS:
            original = getattr(sys.modules[f"dimbasis.{module_name}"], attr)
            replacements.append((original, self.wrap(name, original, size)))
        for module_name, attr, name in COUNTED:
            original = getattr(sys.modules[f"dimbasis.{module_name}"], attr)
            replacements.append((original, self.count(name, original)))
        return [
            (module, key, original, wrapper)
            for original, wrapper in replacements
            for module in modules
            for key, value in vars(module).items()
            if value is original
        ]

    def add_child_spans(self, spans, parent: int, job: int) -> None:
        """Append spans recorded in another process below span *parent*."""
        offset = len(self.spans)
        for name, start, end, p, _, size in spans:
            self.spans.append((name, start, end, parent if p < 0 else p + offset, job, size))

    def add_counters(self, counters: dict) -> None:
        for name, value in counters.items():
            self.counters.setdefault(name, [0])[0] += value

    def dump(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({
                "spans": self.spans,
                "counters": {k: v[0] for k, v in self.counters.items()},
                **extra,
            }, f)


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, cli_imports: list[float]) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of one traced run."""
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    sizes: dict[str, list] = {}
    root_s = 0.0
    names = [s[0] for s in spans]
    for index, (name, start, end, parent, _, size) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - covered[index]
        if parent < 0:
            root_s += end - start
        if parent < 0 or names[parent] != name:
            calls[name] = calls.get(name, 0) + 1
        sizes.setdefault(name, []).append(size)

    def under(child: str, ancestor: str) -> list:
        """Sizes of *child* spans whose nearest parent is an *ancestor* span."""
        return [
            size for (name, _, _, parent, _, size) in spans
            if name == child and parent >= 0 and names[parent] == ancestor
        ]

    m: dict[str, float] = {}
    for op in ("rank", "kernel_basis", "solve_in_basis", "scale", "integer_kernel_basis"):
        m[f"linalg.{op}.calls"] = calls.get(f"linalg.{op}", 0)
        m[f"linalg.{op}.self_s"] = self_s.get(f"linalg.{op}", 0.0)
    linalg_s = sum(v for k, v in self_s.items() if k.startswith("linalg."))
    m["linalg.self_s"] = linalg_s
    m["linalg.share"] = _ratio(linalg_s, root_s)

    for op in ("enumerate_basis_sets", "enumerate_circuit_sets", "circuit_basis", "unified_basis"):
        m[f"enumeration.{op}.self_s"] = self_s.get(f"enumeration.{op}", 0.0)
    for op in ("circuit_invariant", "basis_set_invariants", "is_circuit_set"):
        m[f"enumeration.{op}.calls"] = calls.get(f"enumeration.{op}", 0)
        m[f"enumeration.{op}.self_s"] = self_s.get(f"enumeration.{op}", 0.0)
    # A span whose call raised has size 0.
    basis = [s for s in sizes.get("enumeration.enumerate_basis_sets", []) if s]
    m["enumeration.basis_hit_ratio"] = _ratio(sum(s[0] for s in basis), sum(s[1] for s in basis))
    m["enumeration.circuit_hit_ratio"] = _ratio(
        sum(sizes.get("enumeration.enumerate_circuit_sets", [])),
        calls.get("enumeration.is_circuit_set", 0),
    )
    m["enumeration.unified_dedup_ratio"] = _ratio(
        sum(sizes.get("enumeration.unified_basis", [])),
        sum(under("enumeration.basis_set_invariants", "enumeration.unified_basis")),
    )

    for op in ("equation_system", "build_representation"):
        m[f"representations.{op}.self_s"] = self_s.get(f"representations.{op}", 0.0)
    m["representations.build_representation.calls"] = calls.get(
        "representations.build_representation", 0)
    m["representations.admissible_ratio"] = _ratio(
        sum(sizes.get("representations.admissible_basis_sets", [])),
        sum(s[0] for s in under("enumeration.enumerate_basis_sets",
                                "representations.admissible_basis_sets") if s),
    )

    for op in ("completion", "brute_force", "minimal_elements"):
        m[f"graver.{op}.self_s"] = self_s.get(f"graver.{op}", 0.0)
    m["graver.conforms.calls"] = tracer.counters.get("graver.conforms", [0])[0]
    m["graver.elements"] = sum(sizes.get("graver.graver_basis", []))

    m["model.build_matrix.calls"] = calls.get("model.build_matrix", 0)
    m["model.build_matrix.self_s"] = self_s.get("model.build_matrix", 0.0)
    m["problem.parse_problem.calls"] = calls.get("problem.parse_problem", 0)
    m["problem.parse_problem.self_s"] = self_s.get("problem.parse_problem", 0.0)
    m["problem.bytes_in"] = sum(sizes.get("problem.parse_problem", []))

    render_calls = render_bytes = 0
    for index, (name, _, _, parent, _, size) in enumerate(spans):
        if name.startswith("render.") and (parent < 0 or not names[parent].startswith("render.")):
            render_calls += 1
            render_bytes += size
    m["render.calls"] = render_calls
    m["render.self_s"] = sum(v for k, v in self_s.items() if k.startswith("render."))
    m["render.bytes_out"] = render_bytes

    # cli.import_s and cli.startup_s are medians per CLI process; the
    # startup of a process is its job span minus its cli.main span.
    startups = [
        (spans[parent][2] - spans[parent][1]) - (end - start)
        for (name, start, end, parent, _, _) in spans
        if name == "cli.main" and parent >= 0
    ]
    m["cli.import_s"] = statistics.median(cli_imports) if cli_imports else 0.0
    m["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    m["cli.startup_s"] = statistics.median(startups) if startups else 0.0
    return m
