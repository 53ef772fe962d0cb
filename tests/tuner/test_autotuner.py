"""The adaptive auto-tuner: space, two-stage search, memoization, and
engine integration.

The headline property (mirrored by the conformance grid's ``tuned``
entry) is at the bottom: on every evaluated TPC-H query an engine with
``tuning="auto"`` returns exactly the bits of ``tuning="off"`` — tuning
changes wall-clock, never results.
"""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.relational import EngineConfig, VoodooEngine
from repro.tpch import QUERIES, build, generate
from repro.tuner import (
    AutoTuner,
    TunedConfig,
    TuningCache,
    compact_space,
    default_config,
    knob_space,
    sample_store,
)


@pytest.fixture(scope="module")
def store():
    return generate(0.01, seed=42)


def fast_tuner(store, **kwargs) -> AutoTuner:
    kwargs.setdefault("space", compact_space())
    kwargs.setdefault("sample_rows", 2048)
    kwargs.setdefault("shortlist", 2)
    kwargs.setdefault("repeats", 1)
    return AutoTuner(store, **kwargs)


# ----------------------------------------------------- the knob space


class TestKnobSpace:
    def test_covers_every_knob_family(self):
        space = knob_space(cpu_count=4)
        selections = {c.options.selection for c in space}
        assert selections == {"branching", "branch-free"}
        assert any(not c.options.fuse for c in space)
        assert any(not c.options.virtual_scatter for c in space)
        assert any(not c.options.slot_suppression for c in space)
        assert {c.execution.workers for c in space} >= {1, 2, 4}
        assert any(c.native and c.workers == 1 for c in space)
        assert any(c.native and c.workers > 1 for c in space)
        assert any(c.execution.parallel_grain is not None for c in space)

    def test_cpu_count_widens_worker_sweep(self):
        assert {c.execution.workers for c in knob_space(cpu_count=8)} >= {8}

    def test_first_entry_is_the_static_default(self):
        for space in (knob_space(cpu_count=2), compact_space()):
            assert space[0] == default_config()

    def test_config_json_round_trip(self):
        for config in knob_space(cpu_count=4):
            assert TunedConfig.from_json(config.to_json()) == config

    def test_describe_is_unique_within_space(self):
        space = knob_space(cpu_count=4)
        labels = [c.describe() for c in space]
        assert len(set(labels)) == len(labels)


# ----------------------------------------------------- sampling


class TestSampleStore:
    def test_small_store_returned_unsliced(self, store):
        biggest = max(len(t) for t in store.tables())
        assert sample_store(store, biggest) is store

    def test_prefix_slice_preserves_dtypes_and_dictionaries(self, store):
        sampled = sample_store(store, 100)
        assert all(len(t) <= 100 for t in sampled.tables())
        lineitem = sampled.table("lineitem")
        full = store.table("lineitem")
        for name, col in lineitem.columns.items():
            assert col.data.dtype == full.columns[name].data.dtype
            assert np.array_equal(col.data, full.columns[name].data[:100])
            if full.columns[name].dictionary is not None:
                assert col.dictionary is full.columns[name].dictionary

    def test_sample_meta_records_provenance(self, store):
        sampled = sample_store(store, 64)
        assert sampled.meta["sampled_rows"] == 64
        assert sampled.meta["seed"] == store.meta["seed"]

    def test_aux_vectors_shared_with_full_store(self, store):
        """LIKE membership tables register on the full store at query
        build time — even after sampling, trial translations must see
        them (they index a dictionary code domain, not table rows)."""
        sampled = sample_store(store, 64)
        build(store, 9)  # registers LIKE membership tables on the store
        full_aux = set(store.vectors()) - {t.name for t in store.tables()}
        sample_aux = set(sampled.vectors()) - {t.name for t in sampled.tables()}
        assert full_aux and full_aux == sample_aux


# ----------------------------------------------------- two-stage search


class TestSearch:
    def test_every_candidate_gets_a_prediction(self, store):
        tuner = fast_tuner(store)
        report = tuner.explain(build(store, 6))
        assert len(report.candidates) == len(tuner.space)
        assert all(c.predicted_seconds is not None for c in report.candidates)

    def test_shortlist_plus_default_measured(self, store):
        tuner = fast_tuner(store, shortlist=2)
        report = tuner.explain(build(store, 1))
        measured = [c for c in report.candidates if c.measured_seconds is not None]
        # default + shortlist + at most one parallel and one native probe
        assert 2 <= len(measured) <= 5
        assert report.candidates[0].measured_seconds is not None  # the default

    def test_chosen_comes_from_the_space(self, store):
        tuner = fast_tuner(store)
        assert tuner.tune(build(store, 19)) in tuner.space

    def test_parallel_candidates_pruned_to_one_probe_on_single_core(self, store):
        """Per-machine pruning: with cpu_count=1 the overhead priors keep
        workers>1 candidates out of the shortlist — except the single
        diversity probe the refiner always races (inline-chunked
        execution can win on locality, which only measurement sees)."""
        tuner = AutoTuner(store, space=knob_space(cpu_count=1), cpu_count=1,
                          sample_rows=2048, shortlist=3, repeats=1)
        report = tuner.explain(build(store, 6))
        measured_parallel = [
            outcome for outcome in report.candidates
            if outcome.config.workers > 1 and outcome.measured_seconds is not None
        ]
        assert len(measured_parallel) <= 1
        # the probe is the *best-predicted* parallel candidate
        ranked = sorted(
            (o for o in report.candidates if o.config.workers > 1),
            key=lambda o: o.predicted_seconds,
        )
        if measured_parallel:
            assert measured_parallel[0] is ranked[0]

    def test_report_renders(self, store):
        tuner = fast_tuner(store)
        text = tuner.explain(build(store, 6)).render()
        assert "predicted" in text and "measured" in text and "chosen" in text.lower()


# ----------------------------------------------------- confirmation probe


class TestConfirmationProbe:
    """Near-tie parallel/native challengers earn one full-store lap each
    (plus one for the default), and that evidence overrides the sample
    race — the fix for sample-scale races declining full-scale wins."""

    @staticmethod
    def _outcomes(tuner, sample_ms=10.0):
        from repro.tuner.tuner import CandidateOutcome

        outcomes = [CandidateOutcome(config) for config in tuner.space]
        outcomes[0].measured_seconds = sample_ms * 1e-3
        return outcomes

    @staticmethod
    def _pin_full_times(monkeypatch, times):
        monkeypatch.setattr(
            AutoTuner, "_time_full",
            lambda self, query, grain, config: times[id(config)],
        )

    def test_near_tie_native_challenger_wins_on_full_scale(
        self, store, monkeypatch
    ):
        tuner = fast_tuner(store)
        outcomes = self._outcomes(tuner)
        default = outcomes[0]
        challenger = next(o for o in outcomes if o.config.native)
        challenger.measured_seconds = 0.011  # loses the sample race
        self._pin_full_times(monkeypatch, {
            id(default.config): 0.100, id(challenger.config): 0.050,
        })
        trials = tuner.measured_trials
        tuner._confirm(build(store, 6), None, outcomes)
        assert default.confirmed_seconds == 0.100
        assert challenger.confirmed_seconds == 0.050
        assert tuner.measured_trials == trials + 2
        winner = tuner._choose(outcomes)
        assert winner is challenger and challenger.chosen
        assert "full" in challenger.row()  # the evidence is visible

    def test_full_scale_can_also_save_the_default(self, store, monkeypatch):
        tuner = fast_tuner(store)
        outcomes = self._outcomes(tuner)
        default = outcomes[0]
        challenger = next(o for o in outcomes if o.config.workers > 1)
        challenger.measured_seconds = 0.009  # wins the sample race...
        self._pin_full_times(monkeypatch, {
            id(default.config): 0.050, id(challenger.config): 0.200,
        })
        tuner._confirm(build(store, 6), None, outcomes)
        assert tuner._choose(outcomes) is default  # ...loses at full scale

    def test_only_near_tie_parallel_or_native_challengers_qualify(
        self, store, monkeypatch
    ):
        tuner = fast_tuner(store)
        outcomes = self._outcomes(tuner)
        default = outcomes[0]
        # a sequential non-native config, even on a dead-heat sample race,
        # never earns a lap: it has no scale-dependent fixed overheads
        sequential = next(
            o for o in outcomes[1:]
            if not o.config.native and o.config.workers == 1
        )
        sequential.measured_seconds = default.measured_seconds
        # a parallel config far outside the margin does not qualify either
        parallel = next(o for o in outcomes if o.config.workers > 1)
        parallel.measured_seconds = default.measured_seconds * 2.0
        self._pin_full_times(monkeypatch, {})  # any lap would KeyError
        tuner._confirm(build(store, 6), None, outcomes)
        assert all(o.confirmed_seconds is None for o in outcomes)

    def test_confirm_off_disables_the_probe(self, store, monkeypatch):
        tuner = fast_tuner(store, confirm=False)
        outcomes = self._outcomes(tuner)
        challenger = next(o for o in outcomes if o.config.native)
        challenger.measured_seconds = outcomes[0].measured_seconds
        self._pin_full_times(monkeypatch, {})  # any lap would KeyError
        tuner._confirm(build(store, 6), None, outcomes)
        assert all(o.confirmed_seconds is None for o in outcomes)

    def test_explain_runs_the_probe_end_to_end(self, store, monkeypatch):
        """Through the real entry point: pin full-scale laps so the
        native candidate must be adopted, and check the report shows
        the full-scale column."""
        monkeypatch.setattr(
            AutoTuner, "_time_full",
            lambda self, query, grain, config:
                1e-4 if config.native else 10.0,
        )
        tuner = fast_tuner(store, confirm_margin=1e9)  # everyone is "near"
        report = tuner.explain(build(store, 6))
        confirmed = [
            o for o in report.candidates if o.confirmed_seconds is not None
        ]
        if any(
            o.config.native and o.measured_seconds is not None
            for o in report.candidates
        ):
            assert len(confirmed) == 2  # default + best challenger
            assert "full" in report.render()


# ----------------------------------------------------- memoization


class TestMemoization:
    def test_second_tune_is_a_cache_hit_with_zero_trials(self, store):
        tuner = fast_tuner(store)
        first = tuner.tune(build(store, 6))
        trials = tuner.measured_trials
        assert trials > 0
        fresh = AutoTuner(store, cache=tuner.cache, space=compact_space(),
                          sample_rows=2048)
        assert fresh.tune(build(store, 6)) == first
        assert fresh.measured_trials == 0
        assert fresh.cache.hits >= 1

    def test_store_change_invalidates(self, store):
        tuner = fast_tuner(store)
        tuner.tune(build(store, 6))
        other = generate(0.005, seed=9)
        tuner2 = AutoTuner(other, cache=tuner.cache, space=compact_space(),
                           sample_rows=2048, shortlist=1, repeats=1)
        tuner2.tune(build(other, 6))
        assert tuner2.measured_trials > 0  # miss: re-tuned

    def test_hardware_change_invalidates(self, store):
        query = build(store, 6)
        tuner = fast_tuner(store, cpu_count=1)
        tuner.tune(query)
        moved = AutoTuner(store, cache=tuner.cache, space=compact_space(),
                          sample_rows=2048, shortlist=1, repeats=1, cpu_count=8)
        moved.tune(query)
        assert moved.measured_trials > 0  # same query+store, new machine

    def test_grain_is_part_of_the_query_identity(self, store):
        query = build(store, 6)
        tuner = fast_tuner(store)
        assert tuner.key_for(query, 4096) != tuner.key_for(query, 256)

    def test_persisted_cache_round_trip_zero_trials(self, store, tmp_path):
        path = tmp_path / "tuning.json"
        query = build(store, 19)
        tuner = fast_tuner(store, cache=TuningCache(path=path))
        chosen = tuner.tune(query)
        # a brand-new process would construct exactly this:
        revived = AutoTuner(store, cache=TuningCache(path=path),
                            space=compact_space(), sample_rows=2048)
        assert revived.tune(query) == chosen
        assert revived.measured_trials == 0


# ----------------------------------------------------- engine integration


class TestEngineIntegration:
    def test_tuning_argument_validated(self, store):
        with pytest.raises(ExecutionError, match="tuning"):
            VoodooEngine(store, config=EngineConfig(tuning="sometimes"))

    def test_tuned_engine_rejects_tracing(self, store):
        with pytest.raises(ExecutionError, match="tuning"):
            VoodooEngine(store, config=EngineConfig(tuning="auto", tracing=True))

    def test_tuned_engine_rejects_explicit_execution(self, store):
        """tuning="auto" owns the ExecutionOptions — passing them too
        would be silently ignored, so it raises instead."""
        from repro.compiler import ExecutionOptions

        for workers in (2, 4):
            config = EngineConfig(tuning="auto", execution=ExecutionOptions(workers=workers))
            with pytest.raises(ExecutionError, match="ExecutionOptions"):
                VoodooEngine(store, config=config)

    def test_explain_requires_auto(self, store):
        with VoodooEngine(store) as engine:
            with pytest.raises(ExecutionError, match="explain_tuning"):
                engine.explain_tuning(build(store, 6))

    def test_decision_is_entry_not_key(self, store):
        """The tuned plan-cache key must not name the chosen options —
        only query structure, store, and hardware."""
        tuner = fast_tuner(store)
        with VoodooEngine(store, config=EngineConfig(tuning="auto", tuner=tuner)) as engine:
            engine.query(build(store, 6))
            (token,) = engine._tuned_decisions
            key = tuner.key_for(build(store, 6), engine.grain)
            assert token == key.token()  # reproducible from query+store+hw
            decision = engine._tuned_decisions[token]
            assert decision in tuner.space  # the entry carries the config

    def test_delegate_reuse_and_close(self, store):
        tuner = fast_tuner(store)
        engine = VoodooEngine(store, config=EngineConfig(tuning="auto", tuner=tuner))
        engine.query(build(store, 6))
        engine.query(build(store, 6))
        assert len(engine._delegates) == 1  # one config, one delegate
        delegate = next(iter(engine._delegates.values()))
        assert delegate.cache_info()["plan_hits"] >= 1  # compiled once
        engine.close()
        assert engine._delegates == {}

    def test_cache_info_extends_with_tuning_counters(self, store):
        tuner = fast_tuner(store)
        with VoodooEngine(store, config=EngineConfig(tuning="auto", tuner=tuner)) as engine:
            engine.query(build(store, 6))
            info = engine.cache_info()
            assert info["tuning_misses"] == 1
            assert info["tuned_decisions"] == 1

    def test_explain_tuning_via_engine(self, store):
        tuner = fast_tuner(store)
        with VoodooEngine(store, config=EngineConfig(tuning="auto", tuner=tuner)) as engine:
            report = engine.explain_tuning(build(store, 6))
            assert report.chosen in tuner.space
            engine.query(build(store, 6))
            # the engine reuses the tuner's memoized decision
            assert engine.cache_info()["tuning_misses"] == 1


# ----------------------------------------------------- TPC-H bit-identity


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_tpch_tuned_bit_identical_to_untuned(store, number):
    """The acceptance bar: tuning="auto" returns exactly the bits of
    tuning="off" on all 14 evaluated TPC-H queries."""
    tuner = fast_tuner(store, space=knob_space(cpu_count=2))
    with VoodooEngine(store, config=EngineConfig(tracing=False)) as reference, \
            VoodooEngine(store, config=EngineConfig(tuning="auto", tuner=tuner)) as tuned:
        expected = reference.query(build(store, number))
        got = tuned.query(build(store, number))
    assert got.columns == expected.columns
    for column in expected.columns:
        a, b = expected.column(column), got.column(column)
        assert a.dtype == b.dtype, column
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), column
