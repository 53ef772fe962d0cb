"""``repro.bench`` prices the paper's figures and sits on top of the
engine: nothing else in the package may import it, and the serving CLI —
the one production path that once borrowed a dataset from a benchmark
module — still starts and answers without it.  The reference evaluator
(``repro.testing.oracle``) is an independent opinion on the engine: it
imports none of the engine's execution code.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent


def imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_nothing_outside_bench_imports_repro_bench():
    sources = [path for path in PACKAGE.rglob("*.py")
               if "bench" not in path.relative_to(PACKAGE).parts]
    assert len(sources) > 50  # the walk found the package
    offenders = sorted({
        str(path.relative_to(PACKAGE)) for path in sources
        for module in imported_modules(path)
        if module == "repro.bench" or module.startswith("repro.bench.")
    })
    assert offenders == []


def test_reference_evaluator_imports_no_engine_code():
    engine_code = ("repro.compiler", "repro.interpreter", "repro.parallel", "repro.native",
                   "repro.relational.translate", "repro.relational.engine")
    modules = set(imported_modules(PACKAGE / "testing" / "oracle.py"))
    assert "repro.relational.algebra" in modules  # the walk read the evaluator
    offenders = sorted(module for module in modules
                       if any(module == code or module.startswith(code + ".")
                              for code in engine_code))
    assert offenders == []


def test_serving_cli_answers_a_query_over_stdio():
    requests = [{"op": "query", "dataset": "micro", "sql": "SELECT COUNT(*) AS n FROM facts"},
                {"op": "quit"}]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run(
        [sys.executable, "-m", "repro.serving", "--micro", "1000", "--stdio"],
        input="".join(json.dumps(request) + "\n" for request in requests),
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    answer = json.loads(done.stdout.splitlines()[0])
    assert answer["ok"] is True and answer["result"]["rows"] == [[1000]]
