"""The differential conformance subsystem, tested on itself.

Covers the three properties the subsystem must have to be trusted:

* generated cases run *green* across the full backend grid (smoke, with
  the deep sweep in ``test_fuzz_sweep.py`` marked slow);
* case files round-trip exactly and generation is deterministic, so
  every failure is replayable;
* an *intentionally broken* kernel is caught — by grid bit-identity
  when one backend diverges, and by the oracle when every backend
  shares the bug — and the failure is dumped as a replayable JSON case.
"""

import json

import numpy as np
import pytest

from repro.compiler import kernels
from repro.parallel import ParallelInterpreter
from repro.relational import EngineConfig
from repro.relational.engine import VoodooEngine
from repro.testing import (
    BACKEND_GRID,
    Case,
    case_from_json,
    case_to_json,
    generate_case,
    load_case,
    run_case,
    run_conformance,
)
from repro.testing.serialize import CASES_DIR, save_case
from repro.tpch import build, generate

COMMITTED_CASES = sorted(CASES_DIR.glob("*.json"))

# adversarial NaN/Inf/overflow data makes NumPy warn when tests drive
# engines directly; the assertions, not the noise, are the check
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


class TestSmoke:
    def test_generated_cases_conform(self):
        failures = run_conformance(25, seed=0, dump_dir=None)
        assert failures == [], [str(f) for f in failures]

    @pytest.mark.parametrize("path", COMMITTED_CASES, ids=lambda p: p.stem)
    def test_committed_regression_cases(self, path):
        problems = run_case(load_case(path))
        assert problems == [], problems

    def test_committed_cases_exist(self):
        assert len(COMMITTED_CASES) >= 3

    def test_every_parallel_entry_runs_chunked_on_the_pool(self, monkeypatch):
        """``run_case`` runs each ``workers > 1`` entry with the pool
        crossover at 0 and a core per worker: on a TPC-H case every run
        of such an entry is a parallel plan with a pool lease, on any
        host — the entries fuzz chunks, not a second copy of the whole
        run."""
        store = generate(0.002, seed=3)
        case = Case(seed=0, index=0, grain=4096, store=store, query=build(store, 6))
        runs: list = []
        plain = ParallelInterpreter.run

        def spy(self, *args, **kwargs):
            outputs = plain(self, *args, **kwargs)
            runs.append((self.last_plan, self._lease))
            return outputs

        monkeypatch.setattr(ParallelInterpreter, "run", spy)
        parallel = [config for config in BACKEND_GRID if config.workers > 1]
        assert len(parallel) == 4
        for config in parallel:
            runs.clear()
            assert run_case(case, grid=(config,)) == [], config.name
            assert len(runs) == 3, config.name  # cold, warm, after the append
            for plan, lease in runs:
                assert plan.parallel and 1 < len(plan.chunks) <= config.workers, config.name
                assert lease is not None, config.name


class TestSerialization:
    def test_roundtrip_exact(self):
        case = generate_case(3, 5)
        data = case_to_json(case)
        again = case_to_json(case_from_json(json.loads(json.dumps(data))))
        # string comparison: NaN-bearing dicts never compare equal directly
        assert json.dumps(again, sort_keys=True) == json.dumps(data, sort_keys=True)

    def test_roundtrip_preserves_results(self, tmp_path):
        case = generate_case(2, 11)
        reloaded = load_case(save_case(case, tmp_path / "case.json"))
        with VoodooEngine(case.store, config=EngineConfig(grain=case.grain)) as a, \
                VoodooEngine(reloaded.store, config=EngineConfig(grain=reloaded.grain)) as b:
            left = a.query(case.query)
            right = b.query(reloaded.query)
        assert left.columns == right.columns
        for name in left.columns:
            assert np.array_equal(
                left.arrays[name], right.arrays[name],
                equal_nan=left.arrays[name].dtype.kind == "f",
            )

    def test_generation_is_deterministic(self):
        a = json.dumps(case_to_json(generate_case(0, 4)), sort_keys=True)
        b = json.dumps(case_to_json(generate_case(0, 4)), sort_keys=True)
        assert a == b

    def test_distinct_indices_differ(self):
        a = json.dumps(case_to_json(generate_case(0, 1)), sort_keys=True)
        b = json.dumps(case_to_json(generate_case(0, 2)), sort_keys=True)
        assert a != b


def _find_grouped_sum_case(limit: int = 60):
    """A generated case whose result actually exercises grouped sums."""
    from repro.relational.algebra import GroupBy

    for index in range(limit):
        case = generate_case(0, index)
        plan = case.query.plan
        if not isinstance(plan, GroupBy) or not plan.keys:
            continue
        wanted = [n for n, s in plan.aggs.items()
                  if s.fn == "sum" and n in case.query.select]
        if not wanted:
            continue
        with VoodooEngine(case.store, config=EngineConfig(grain=case.grain)) as engine:
            if len(engine.query(case.query)) >= 2:
                return case
    raise AssertionError("no grouped-sum case found in the first cases")


class TestBrokenBackendIsCaught:
    """The acceptance gate: deliberate kernel bugs must not survive."""

    def test_broken_grouped_kernel_caught_with_replayable_case(
        self, tmp_path, monkeypatch
    ):
        case = _find_grouped_sum_case()
        orig = kernels.fold_aggregate_groups

        def off_by_one(fn, values, part, buckets):
            per_group = orig(fn, values, part, buckets)
            if fn == "sum" and len(part):
                per_group[part[-1]] += 1
            return per_group

        monkeypatch.setattr(kernels, "fold_aggregate_groups", off_by_one)
        problems = run_case(case)
        assert problems, "off-by-one in the grouped fold kernel went undetected"
        kinds = {kind for _, kind, _ in problems}
        assert kinds & {"grid", "oracle"}

        # ... and the failure dumps as a case file that replays the bug
        case.note = problems[0][2]
        path = save_case(case, tmp_path / f"{case.name}.json")
        replayed = load_case(path)
        assert run_case(replayed), "dumped case did not reproduce the failure"

        monkeypatch.setattr(kernels, "fold_aggregate_groups", orig)
        assert run_case(replayed) == [], "case must go green once the kernel is fixed"

    def test_shared_engine_bug_caught_by_oracle(self, monkeypatch):
        """A bug in code *every* backend shares only the oracle can see."""
        for index in range(40):  # a case whose result has rows to drop
            case = generate_case(0, index)
            with VoodooEngine(case.store, config=EngineConfig(grain=case.grain)) as engine:
                if len(engine.query(case.query)):
                    break
        orig = VoodooEngine._extract

        def dropping_extract(self, query, vector):
            table = orig(self, query, vector)
            table.arrays = {n: a[:-1] for n, a in table.arrays.items()}
            return table

        monkeypatch.setattr(VoodooEngine, "_extract", dropping_extract)
        problems = run_case(case)
        assert any(kind == "oracle" for _, kind, _ in problems), problems
        assert not any(kind == "grid" for _, kind, _ in problems), (
            "all backends share the bug; only the oracle should disagree"
        )

    def test_a_plan_that_answers_differently_warm_is_caught(self, tmp_path, monkeypatch):
        """Every configuration runs its query twice on one engine; a
        second run (a plan-cache hit, served by what the first left on
        the plan) that differs from the first is a ``"warm"`` failure —
        invisible to the grid comparison, which reads the first."""
        case = _find_grouped_sum_case()
        plain = VoodooEngine.query
        #: keyed by the engine itself: holding it keeps a closed engine's
        #: address from being reused by the next configuration's engine
        hits: dict = {}

        def stale_when_warm(self, query, *args, **kwargs):
            table = plain(self, query, *args, **kwargs)
            hits[self] = hits.get(self, 0) + 1
            if hits[self] == 2 and self.config.tracing is False:
                table.arrays = {n: a[::-1].copy() for n, a in table.arrays.items()}
            return table

        monkeypatch.setattr(VoodooEngine, "query", stale_when_warm)
        problems = run_case(case)
        assert problems and {kind for _, kind, _ in problems} == {"warm"}, problems
        assert {backend for backend, _, _ in problems} >= {"untraced-fused", "native"}
        monkeypatch.setattr(VoodooEngine, "query", plain)
        case.note = problems[0][2]
        assert run_case(load_case(save_case(case, tmp_path / "warm.json"))) == []

    def test_a_plan_that_misses_the_appended_rows_is_caught(self, monkeypatch):
        """After its warm run every configuration appends to its own copy
        of the store and runs the query again; a third run that answers
        as before the append is an ``"append"`` failure, against the
        interpreter on an identical appended copy."""
        case = _find_grouped_sum_case()
        plain = VoodooEngine.query

        def first_answer_forever(self, query, *args, **kwargs):
            table = plain(self, query, *args, **kwargs)
            return self.__dict__.setdefault("_first_table", table)

        monkeypatch.setattr(VoodooEngine, "query", first_answer_forever)
        problems = run_case(case)
        assert problems and {kind for _, kind, _ in problems} == {"append"}, problems
        assert {backend for backend, _, _ in problems} == {c.name for c in BACKEND_GRID}

    def test_broken_fold_select_rank_caught(self, monkeypatch):
        """Selection compaction bugs show up across the whole grid."""
        from repro.interpreter import semantics

        orig = semantics.fold_select

        def shifted(control, selected, sel_present=None, control_present=None):
            out, present = orig(control, selected, sel_present, control_present)
            if present.any():
                out = out.copy()
                out[np.flatnonzero(present)[-1]] += 1  # point at the wrong row
            return out, present

        monkeypatch.setattr(semantics, "fold_select", shifted)
        failures = run_conformance(15, seed=0, dump_dir=None)
        assert failures, "a mis-ranked FoldSelect survived 15 cases"
