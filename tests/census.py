#!/usr/bin/env python3
"""Call census: the functions of ``src/repro`` that no product entry point reaches.

    python tests/census.py            print the unreached functions by package
    python tests/census.py --check    also exit 1 when an unreached function has no
                                      reason in tests/census_reasons.json, or when a
                                      reason names a function that is reached or gone

The entry points run in this process under ``sys.setprofile`` +
``threading.setprofile``, which record every Python call:

* the conformance sweep (``python -m repro.testing.conformance --cases 40 --seed 0``);
* the five ``examples/`` (``parallel_crossover.py`` at ``--smallest --budget 0.1``);
* the six ``perfbench`` workloads at ``--quick --trace 1``;
* ``pytest benchmarks -m "not slow"``.

Every ``def`` an ``ast`` walk of ``src/repro`` finds and none of them
called is *unreached*, unless a file under ``benchmarks/``, ``examples/``
or ``perfbench/`` names it (an import from ``repro`` or an attribute read):
those are what the slow figures and the benchmark harness call, so the
census counts them reached.  A function is named
``repro.package.module:Class.method`` (nested defs joined by dots), the
form ``census_reasons.json`` keys its one-line reasons by.  Takes a few
minutes; the output of the entry points is discarded.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
REASONS = Path(__file__).resolve().parent / "census_reasons.json"
#: directories whose references to ``repro`` count as reached
CALLERS = ("benchmarks", "examples", "perfbench")
WORKLOADS = ("analytics_fused", "analytics_native", "analytics_parallel",
             "adhoc_cold", "serving_closed", "storage_append")
EXAMPLES = (("quickstart.py",), ("simd_vs_multicore.py",), ("tpch_analytics.py",),
            ("tuning_explorer.py",), ("parallel_crossover.py", "--smallest", "--budget", "0.1"))


class Function:
    """One ``def`` under ``src/repro``: where it starts and how long it is."""

    __slots__ = ("name", "module", "simple", "path", "first", "lines")

    def __init__(self, module: str, qualname: str, path: Path, node):
        self.module = module
        self.name = f"{module}:{qualname}"
        self.simple = node.name
        self.path = path
        # a code object starts at its first decorator
        self.first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        self.lines = node.end_lineno - self.first + 1

    @property
    def package(self) -> str:
        parts = self.module.split(".")
        return parts[1] if len(parts) > 1 else self.module


def functions() -> list[Function]:
    """Every ``def`` / ``async def`` under ``src/repro``."""
    found: list[Function] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]

        def walk(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found.append(Function(module, prefix + child.name, path, child))
                    walk(child, prefix + child.name + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(), str(path)), "")
    return found


def referenced() -> tuple[set[str], set[str]]:
    """What the callers' files name: ``(module:name imports, attribute names)``.

    An attribute read on a module the file imported from outside
    ``repro`` (``np.empty``) names nothing of ours and is skipped."""
    imports: set[str] = set()
    attributes: set[str] = set()
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            foreign: set[str] = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                    imports.update(f"{node.module}:{alias.name}" for alias in node.names)
                elif isinstance(node, ast.Import):
                    foreign.update((alias.asname or alias.name).split(".")[0]
                                   for alias in node.names
                                   if not alias.name.startswith("repro"))
                elif isinstance(node, ast.ImportFrom):
                    foreign.update(alias.asname or alias.name for alias in node.names)
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    base = node.value
                    if not (isinstance(base, ast.Name) and base.id in foreign):
                        attributes.add(node.attr)
    return imports, attributes


# -- the entry points -----------------------------------------------------------


def _conformance(scratch: Path) -> int:
    from repro.testing import conformance

    return conformance.main(["--cases", "40", "--seed", "0",
                             "--dump-dir", str(scratch / "conformance")])


def _examples(scratch: Path) -> int:
    failed = 0
    for script, *args in EXAMPLES:
        argv = sys.argv
        sys.argv = [script, *args]
        try:
            runpy.run_path(str(ROOT / "examples" / script), run_name="__main__")
        except SystemExit as stop:
            failed += stop.code not in (None, 0)
        finally:
            sys.argv = argv
    return failed


def _perfbench(scratch: Path) -> int:
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench import workload

    failed = 0
    for name in WORKLOADS:
        ctx = workload.Context(workload=name, seed=1, seconds=8.0, trace=True,
                               quick=True, started=time.perf_counter(),
                               tmp=scratch / f"perfbench-{name}")
        failed += workload.run_one(ctx) != 0
    return failed


def _benchmarks(scratch: Path) -> int:
    import pytest

    return int(pytest.main([str(ROOT / "benchmarks"), "-q", "-m", "not slow",
                            "-p", "no:cacheprovider", "--rootdir", str(ROOT)]))


ENTRY_POINTS = (("conformance", _conformance), ("examples", _examples),
                ("perfbench", _perfbench), ("benchmarks", _benchmarks))


def reached_code() -> tuple[set[tuple[str, int]], dict[str, int]]:
    """Run every entry point; ``(file, first line)`` of each code object
    called, and each entry point's failure count (reported, not fatal:
    the census is about what runs)."""
    codes: set = set()
    add = codes.add

    def profile(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    failures: dict[str, int] = {}
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        os.environ.setdefault("REPRO_NATIVE_CACHE", str(Path(tmp) / "native-cache"))
        for name, run in ENTRY_POINTS:
            sink = io.StringIO()
            threading.setprofile(profile)
            sys.setprofile(profile)
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    failures[name] = run(Path(tmp))
            finally:
                sys.setprofile(None)
                threading.setprofile(None)
    package = str(PACKAGE)
    return ({(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes
             if os.path.realpath(c.co_filename).startswith(package)}, failures)


class Census:
    """Every function, the ones no entry point called, and which of those
    the callers' files name (so count as reached)."""

    def __init__(self) -> None:
        self.functions = functions()
        called, self.failures = reached_code()
        imports, attributes = referenced()
        uncalled = [f for f in self.functions
                    if (os.path.realpath(f.path), f.first) not in called]
        self.named = [f for f in uncalled
                      if f"{f.module}:{f.simple}" in imports or f.simple in attributes]
        self.unreached = [f for f in uncalled if f not in self.named]


def report(census: Census) -> str:
    unreached = census.unreached
    by_package: dict[str, list[Function]] = defaultdict(list)
    for f in unreached:
        by_package[f.package].append(f)
    out = [f"{len(unreached)} of {len(census.functions)} functions "
           f"({sum(f.lines for f in unreached)} lines) are reached by no entry point",
           f"({len(census.named)} more are called by none but named by "
           f"{', '.join(CALLERS)}: counted reached)", ""]
    for package, group in sorted(by_package.items(), key=lambda kv: -len(kv[1])):
        out.append(f"{package}: {len(group)} functions, {sum(f.lines for f in group)} lines")
        out.extend(f"  {f.name}  ({f.lines})" for f in group)
    return "\n".join(out)


def check(unreached: list[Function], reasons: dict[str, str]) -> list[str]:
    """What ``--check`` fails on: unreached functions without a reason,
    and reasons for functions that are reached or gone."""
    names = {f.name for f in unreached}
    problems = [f"unreached, no reason: {name}" for name in sorted(names - set(reasons))]
    problems += [f"reason for a reached or removed function: {name}"
                 for name in sorted(set(reasons) - names)]
    problems += [f"empty reason: {name}" for name, why in sorted(reasons.items())
                 if not why.strip()]
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="fail on unreached functions without a reason and on stale reasons")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    census = Census()
    print(report(census))
    for name, count in census.failures.items():
        if count:
            print(f"note: entry point {name} reported {count} failure(s)", file=sys.stderr)
    if not args.check:
        return 0
    problems = check(census.unreached, json.loads(REASONS.read_text()))
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
