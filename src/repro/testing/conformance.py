"""The conformance matrix: every case × every backend configuration.

``run_case`` executes one generated (or replayed) case across the whole
backend grid — every ``CompilerOptions`` × ``ExecutionOptions`` ×
workers combination that *executes* differently (knobs that only price —
``fuse``, ``selection``, ``slot_suppression`` — are covered by
``tests/compiler/test_pricing.py``) — and checks three properties:

* **bit-identity with the reference**: every configuration must produce
  exactly the result of the paper's reference :class:`Interpreter`
  (:func:`reference_table`: the ``semantics.*`` kernels, nothing of the
  node runner every configuration executes on) — same dtypes, same
  rows, NaN-for-NaN equal;
* **a warm plan answers as a cold one** (kind ``"warm"``): every
  configuration runs the query twice on its engine — the second is a
  plan-cache hit served by what the first run left on the plan
  (constants, structural routes, control-vector metadata) — and both
  results must be the same bits;
* **a plan outlives an append** (kind ``"append"``): each entry then
  appends rows resampled from its query's first-scanned table (stats
  and dictionaries stay) to its own copy of the store and reruns the
  query, matching the interpreter on an identical appended copy;
* **chunks, whatever the size** — every ``workers > 1`` entry runs
  under :func:`crossover` ``(0)`` with a core per worker, so its plans
  go to the pool with one chunk per worker however small the case and
  however few cores the host has: the chunked path is what those
  entries fuzz;
* **agreement with the oracle**: the reference result must match the
  independent NumPy oracle (:mod:`repro.testing.oracle`) — exactly for
  integers/booleans/strings, within a small tolerance for float
  aggregates (the oracle's ``np.sum`` associates additions pairwise,
  the backends sequentially).

Failures are serialized as self-contained JSON case files so they can
be replayed (and shrunk) with ``python -m repro.testing.replay``.

CLI::

    python -m repro.testing.conformance --cases 200 --seed 0

exits non-zero if any case fails, writing one JSON per failing case.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.compiler import CompilerOptions, ExecutionOptions
from repro.interpreter import Interpreter
from repro.parallel import planner
from repro.relational import EngineConfig, VoodooEngine
from repro.relational import algebra as ra
from repro.relational.engine import ResultTable
from repro.storage.columnstore import ColumnStore, resegment
from repro.testing import oracle as oracle_mod
from repro.testing.serialize import Case, save_case


@contextlib.contextmanager
def crossover(value: float):
    """Plans made inside go to the pool from *value* work up: ``0`` pools
    every plan that splits, ``float("inf")`` runs every program whole.
    It rebinds :data:`repro.parallel.planner.POOL_CROSSOVER` for the
    whole process (plans are memoized per value, so none made inside is
    reused outside)."""
    saved = planner.POOL_CROSSOVER
    planner.POOL_CROSSOVER = value
    try:
        yield
    finally:
        planner.POOL_CROSSOVER = saved


@dataclass(frozen=True)
class BackendConfig:
    """One execution configuration of the engine."""

    name: str
    options: CompilerOptions = CompilerOptions()
    workers: int = 1
    tracing: bool | None = None
    #: reseal the store before executing (``"plain-small"`` resegments
    #: every column into tiny plain segments, ``"auto"`` additionally
    #: lets RLE/FoR encodings engage): results must be invariant under
    #: physical storage layout, lazy decode, and compressed folding
    resegment: str | None = None

    def engine(self, store, grain: int) -> VoodooEngine:
        """An engine of this configuration on its own copy of *store*, so
        an append reaches no other entry."""
        # segmented entries reseal on deliberately tiny, non-round
        # segments: cases are small, and odd boundaries fuzz
        # segment-spanning slices/takes/folds
        encoding, segment_rows = {
            None: ("plain", None), "plain-small": ("plain", 17), "auto": ("auto", 13),
        }[self.resegment]
        store = resegment(store, encoding=encoding, segment_rows=segment_rows)
        execution = ExecutionOptions(workers=self.workers) if self.workers > 1 else None
        return VoodooEngine(store, config=EngineConfig(
            options=self.options,
            grain=grain,
            execution=execution,
            tracing=self.tracing,
        ))


#: the full grid; every entry must bit-match :func:`reference_table`.
#: The traced entries are named by what they execute: the runner with a
#: pricer attached, scatters virtual or landed.
BACKEND_GRID: tuple[BackendConfig, ...] = (
    BackendConfig("traced-fused", CompilerOptions(), tracing=True),
    BackendConfig("traced-no-virtual-scatter", CompilerOptions(virtual_scatter=False),
                  tracing=True),
    BackendConfig("untraced-fused", CompilerOptions(), tracing=False),
    BackendConfig("native", CompilerOptions(native=True), tracing=False),
    BackendConfig("parallel-w2-fused", CompilerOptions(), workers=2),
    BackendConfig("parallel-w2-native", CompilerOptions(native=True), workers=2),
    BackendConfig("parallel-w4-fused", CompilerOptions(), workers=4),
    BackendConfig("segmented", CompilerOptions(), tracing=False,
                  resegment="plain-small"),
    BackendConfig("segmented-compressed", CompilerOptions(), workers=2,
                  resegment="auto"),
)


@dataclass
class CaseFailure:
    """One conformance violation, with everything needed to replay it."""

    case: Case
    backend: str
    kind: str          # "grid" | "warm" | "append" | "oracle" | "error"
    detail: str
    path: Path | None = None

    def __str__(self) -> str:
        where = f" -> {self.path}" if self.path else ""
        return f"[{self.kind}] {self.case.name} on {self.backend}: {self.detail}{where}"


# -- comparisons -------------------------------------------------------------


def _describe(arr: np.ndarray, limit: int = 8) -> str:
    head = ", ".join(repr(v) for v in arr[:limit])
    more = f", ... ({len(arr)} total)" if len(arr) > limit else ""
    return f"[{head}{more}]"


def compare_bitwise(ref: ResultTable, other: ResultTable) -> str | None:
    """Exact (NaN-aware) equality; ``None`` when identical."""
    if ref.columns != other.columns:
        return f"columns {other.columns} != {ref.columns}"
    for name in ref.columns:
        a, b = ref.arrays[name], other.arrays[name]
        if len(a) != len(b):
            return f"{name}: {len(b)} rows != {len(a)}"
        if a.dtype.kind == "O" or b.dtype.kind == "O":
            if a.tolist() != b.tolist():
                return f"{name}: decoded values differ: {_describe(b)} != {_describe(a)}"
            continue
        if a.dtype != b.dtype:
            return f"{name}: dtype {b.dtype} != {a.dtype}"
        if not np.array_equal(a, b, equal_nan=a.dtype.kind == "f"):
            return f"{name}: values differ: {_describe(b)} != {_describe(a)}"
    return None


def compare_oracle(
    table: ResultTable,
    expected: dict[str, np.ndarray],
    scales: dict[str, np.ndarray] | None = None,
    rtol: float = 1e-9,
    atol: float = 1e-9,
) -> str | None:
    """Engine vs oracle: exact, except float values within tolerance.

    ``scales`` carries the oracle's per-cell Σ|v| for float sums/avgs:
    the backends add sequentially and the oracle pairwise, so after
    cancellation the honest error bound is relative to the summed
    magnitudes, not to the (possibly ~0) result.
    """
    if list(table.columns) != list(expected):
        return f"columns {table.columns} != {list(expected)}"
    for name in table.columns:
        a, b = table.arrays[name], expected[name]   # a = engine, b = oracle
        if len(a) != len(b):
            return f"{name}: engine has {len(a)} rows, oracle {len(b)}"
        if a.dtype.kind == "O" or b.dtype.kind == "O":
            if a.tolist() != b.tolist():
                return f"{name}: decoded values differ: {_describe(a)} != {_describe(b)}"
            continue
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            x = a.astype(np.float64)
            y = b.astype(np.float64)
            if not np.array_equal(np.isnan(x), np.isnan(y)):
                return f"{name}: NaN placement differs: {_describe(a)} != {_describe(b)}"
            inf = np.isinf(x) | np.isinf(y)
            if not np.array_equal(x[inf], y[inf]):  # placement and sign, exactly
                return f"{name}: Inf values differ: {_describe(a)} != {_describe(b)}"
            fin = ~np.isnan(x) & ~inf
            cell_atol = np.full(len(x), atol)
            scale = (scales or {}).get(name)
            if scale is not None and len(scale) == len(x):
                with np.errstate(invalid="ignore"):
                    cell_atol = atol + rtol * np.where(np.isfinite(scale), scale, 0.0)
            ok = np.isclose(x[fin], y[fin], rtol=rtol, atol=0.0) | (
                np.abs(x[fin] - y[fin]) <= cell_atol[fin]
            )
            if not ok.all():
                return f"{name}: values differ: {_describe(a)} != {_describe(b)}"
            continue
        if not np.array_equal(a.astype(np.int64, copy=False),
                              b.astype(np.int64, copy=False)):
            return f"{name}: values differ: {_describe(a)} != {_describe(b)}"
    return None


# -- the matrix --------------------------------------------------------------

#: what the anchor is called in failure triples
ANCHOR = "interpreter"


def append_resampled(store: ColumnStore, case: Case) -> None:
    """Append to *store*, a copy of ``case.store``, rows resampled
    (seeded by the case) from the table ``case.query`` scans first."""
    plan = case.query.plan
    while not isinstance(plan, ra.Scan):
        plan = plan.child
    table = store.table(plan.table)
    if len(table):
        rng = np.random.default_rng([abs(case.seed), abs(case.index)])
        rows = rng.integers(0, len(table), (len(table) + 1) // 2)
        store.append(table.name, {
            name: np.asarray(col.decoded(), dtype=object if col.dictionary else None)[rows]
            for name, col in table.columns.items()
        })


def reference_table(case: Case) -> ResultTable:
    """The anchor of the bit-identity comparison: the engine's translated
    program evaluated by the reference interpreter over the plain store,
    extracted the way the engine extracts."""
    with VoodooEngine(case.store, config=EngineConfig(grain=case.grain)) as engine:
        outputs = Interpreter(engine.vectors()).run(engine.translate(case.query))
        return engine._extract(case.query, outputs["result"])


def run_case(
    case: Case,
    grid: tuple[BackendConfig, ...] = BACKEND_GRID,
) -> list[tuple[str, str, str]]:
    """Run one case over the grid; returns (backend, kind, detail) triples."""
    problems: list[tuple[str, str, str]] = []
    reference: ResultTable | None = None
    grown_reference: ResultTable | None = None  # the reference after the append
    reference_name = ""
    for config in (None, *grid):
        name = ANCHOR if config is None else config.name
        again: ResultTable | None = None
        try:
            with warnings.catch_warnings():
                # adversarial NaN/Inf/overflow data makes NumPy chatty;
                # the conformance check is the comparison, not the noise
                warnings.simplefilter("ignore", RuntimeWarning)
                if config is None:
                    table = reference_table(case)
                    grown_store = resegment(case.store, encoding="plain")
                    append_resampled(grown_store, case)
                    grown = reference_table(replace(case, store=grown_store))
                else:
                    # every parallel plan is chunked on the pool, however
                    # small and on any host: a core per worker
                    with crossover(0), config.engine(case.store, case.grain) as engine:
                        if config.workers > 1:
                            engine._parallel_backend._effective = config.workers
                        table = engine.query(case.query)
                        # a plan-cache hit: what the first run left on the
                        # plan (:mod:`repro.compiler.runner`) serves this one
                        again = engine.query(case.query)
                        # the plans of the engine's store outlive an append
                        append_resampled(engine.store, case)
                        grown = engine.query(case.query)
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            problems.append((name, "error", f"{type(exc).__name__}: {exc}"))
            continue
        warm = None if again is None else compare_bitwise(table, again)
        if warm:
            problems.append((name, "warm", warm))
        if reference is None:
            # the first *succeeding* run anchors the bit-identity
            # comparison (the interpreter; a configuration if it crashed)
            reference, reference_name, grown_reference = table, name, grown
            continue
        mismatch = compare_bitwise(reference, table)
        if mismatch:
            problems.append((name, "grid", mismatch))
        mismatch = compare_bitwise(grown_reference, grown)
        if mismatch:
            problems.append((name, "append", mismatch))
    if reference is not None:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                expected, scales = oracle_mod.evaluate_with_scales(
                    case.store, case.query
                )
        except Exception as exc:  # noqa: BLE001
            problems.append(("oracle", "error", f"{type(exc).__name__}: {exc}"))
        else:
            mismatch = compare_oracle(reference, expected, scales)
            if mismatch:
                problems.append((reference_name, "oracle", mismatch))
    return problems


def run_conformance(
    cases: int,
    seed: int = 0,
    grid: tuple[BackendConfig, ...] = BACKEND_GRID,
    dump_dir: str | Path | None = "conformance_cases",
    start: int = 0,
    progress: bool = False,
) -> list[CaseFailure]:
    """Generate and check *cases* cases; returns (and dumps) all failures."""
    from repro.testing.qgen import generate_case

    failures: list[CaseFailure] = []
    t0 = time.monotonic()
    for index in range(start, start + cases):
        case = generate_case(seed, index)
        problems = run_case(case, grid)
        path = None
        if problems and dump_dir is not None:
            # one dump per case, its note listing *every* failure
            case.note = "; ".join(
                f"{kind} failure on {backend}: {detail}"
                for backend, kind, detail in problems
            )
            path = save_case(case, Path(dump_dir) / f"{case.name}.json")
        for backend, kind, detail in problems:
            failures.append(CaseFailure(case, backend, kind, detail, path))
        if progress and (index + 1 - start) % 25 == 0:
            rate = (index + 1 - start) / (time.monotonic() - t0)
            print(f"  {index + 1 - start}/{cases} cases "
                  f"({rate:.1f}/s, {len(failures)} failures)", flush=True)
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Differential conformance fuzzing across the backend grid."
    )
    parser.add_argument("--cases", type=int, default=200,
                        help="number of generated cases (default 200)")
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument("--start", type=int, default=0,
                        help="first case index (resume/sharding)")
    parser.add_argument("--dump-dir", default="conformance_cases",
                        help="directory for failing-case JSON files")
    args = parser.parse_args(argv)

    print(f"conformance: {args.cases} cases, seed={args.seed}, "
          f"{len(BACKEND_GRID)} backend configurations + the interpreter anchor")
    t0 = time.monotonic()
    failures = run_conformance(
        args.cases, seed=args.seed, dump_dir=args.dump_dir,
        start=args.start, progress=True,
    )
    elapsed = time.monotonic() - t0
    print(f"checked {args.cases} cases x {len(BACKEND_GRID)} backends "
          f"in {elapsed:.1f}s ({args.cases / max(elapsed, 1e-9):.1f} cases/s)")
    if failures:
        for failure in failures:
            print(f"FAIL {failure}")
        print(f"{len(failures)} failure(s); replay with: "
              f"python -m repro.testing.replay <case.json>")
        return 1
    print("all configurations bit-identical and oracle-consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
