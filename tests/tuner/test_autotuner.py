"""The adaptive auto-tuner: space, measured search, memoization, and
engine integration.

The headline property (mirrored by the conformance grid's ``tuned``
entry) is at the bottom: on every evaluated TPC-H query an engine with
``tuning="auto"`` returns exactly the bits of ``tuning="off"`` — tuning
changes wall-clock, never results.
"""

import dataclasses

import numpy as np
import pytest

from repro.compiler import CompilerOptions
from repro.errors import ExecutionError
from repro.relational import EngineConfig, VoodooEngine
from repro.testing import crossover
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


@pytest.fixture
def built(monkeypatch) -> list:
    """The store of every ``VoodooEngine`` constructed from here on."""
    stores = []
    init = VoodooEngine.__init__
    monkeypatch.setattr(
        VoodooEngine, "__init__",
        lambda self, *a, **kw: stores.append(a[0]) or init(self, *a, **kw),
    )
    return stores


def fast_tuner(store, **kwargs) -> AutoTuner:
    kwargs.setdefault("space", compact_space())
    kwargs.setdefault("sample_rows", 2048)
    kwargs.setdefault("repeats", 1)
    return AutoTuner(store, **kwargs)


# ----------------------------------------------------- the knob space


def runner_fields(config: TunedConfig) -> tuple:
    """The three fields untraced execution reads (README, "Execution
    backends"): everything else shapes the simulator only."""
    return (
        config.options.native,
        config.options.virtual_scatter,
        config.execution.workers,
    )


class TestKnobSpace:
    def test_covers_every_knob_family(self):
        space = knob_space(cpu_count=4)
        assert any(not c.options.virtual_scatter for c in space)
        assert {c.execution.workers for c in space} >= {1, 2, 4}
        assert any(c.native and c.workers == 1 for c in space)
        assert any(c.native and c.workers > 1 for c in space)

    def test_every_parallel_candidate_runs_one_chunk_per_worker_on_the_pool(self, store):
        """Forced onto the pool, each ``workers > 1`` candidate cuts one
        chunk per worker, leases its pool and returns the default's bits."""
        query = build(store, 6)
        with crossover(0), VoodooEngine(store, config=EngineConfig(tracing=False)) as engine:
            expected = engine.query(query)
            for config in knob_space(cpu_count=4):
                if config.workers == 1:
                    continue
                backend = engine._parallel_backend(config.workers)
                backend._effective = config.workers  # a real pool, also on a 1-CPU host
                got = engine.run_as(query, config.options, config.execution).table
                assert len(backend.last_plan.chunks) == config.workers, config.describe()
                assert backend._lease is not None
                assert got.columns == expected.columns
                for column in expected.columns:
                    assert np.array_equal(got.column(column), expected.column(column))

    @pytest.mark.parametrize("space", [
        knob_space(cpu_count=1), knob_space(cpu_count=2), knob_space(cpu_count=8),
        compact_space(),
    ], ids=["cpu1", "cpu2", "cpu8", "compact"])
    def test_space_is_defined_over_what_the_runner_reads(self, space):
        """A candidate that differs from the default (or from another
        candidate) only in a field the runner never reads executes the
        same code: racing the two in wall-clock measures noise."""
        default = runner_fields(default_config())
        fields = [runner_fields(c) for c in space]
        assert all(f != default for f in fields[1:])
        assert len(set(fields)) == len(fields)
        simulator_only = CompilerOptions()
        for config in space:
            assert config.options.selection == simulator_only.selection
            assert config.options.slot_suppression == simulator_only.slot_suppression
            assert config.options.fuse == simulator_only.fuse

    def test_space_sizes(self):
        assert len(knob_space(cpu_count=2)) == 6
        assert len(compact_space()) == 4

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


# ----------------------------------------------------- measured search


def raced(report) -> list:
    return [c.config for c in report.candidates if c.measured_seconds is not None]


class TestSearch:
    def test_every_candidate_not_whole_is_raced(self, store):
        """Nothing is pruned: a candidate is raced unless it runs whole,
        and a whole one pays no trial."""
        tuner = fast_tuner(store)
        report = tuner.explain(build(store, 6))
        assert len(report.candidates) == len(tuner.space)
        for outcome in report.candidates:
            if outcome.whole:
                assert outcome.trials == 0 and outcome.measured_seconds is None
            else:
                assert outcome.trials >= 1 and outcome.measured_seconds is not None

    def test_raced_set_is_the_space_minus_whole_candidates(self, store):
        tuner = fast_tuner(store, space=knob_space(cpu_count=2))
        report = tuner.explain(build(store, 1))
        whole = [c.config for c in report.candidates if c.whole]
        assert raced(report) == [c for c in tuner.space if c not in whole]
        assert raced(report)[0] == default_config()
        assert all(config.workers > 1 for config in whole)

    def test_chosen_comes_from_the_space(self, store):
        tuner = fast_tuner(store)
        assert tuner.tune(build(store, 19)) in tuner.space

    @pytest.mark.parametrize("cores, value", [(1, 0), (2, float("inf")), (2, 0)],
                             ids=["one-core", "below-crossover", "pooled"])
    def test_a_parallel_candidate_races_only_when_its_sample_plan_is_pooled(
            self, store, cores, value, monkeypatch):
        """With one core, or below the crossover, a ``workers > 1``
        candidate runs its sequential twin's code: it is marked whole and
        neither raced nor confirmed.  Pooled, every one is raced."""
        monkeypatch.setattr(AutoTuner, "CONFIRM_MARGIN", 1e9)  # every challenger is "near"
        tuner = AutoTuner(store, space=knob_space(cpu_count=cores), cpu_count=cores,
                          sample_rows=2048, repeats=1)
        with crossover(value):
            report = tuner.explain(build(store, 6))
        pooled = cores > 1 and value == 0
        parallel = [o for o in report.candidates if o.config.workers > 1]
        assert parallel
        for outcome in parallel:
            assert outcome.whole is not pooled
            assert (outcome.measured_seconds is not None) is pooled
        if not pooled:
            assert all(o.trials == 0 and o.confirmed_seconds is None for o in parallel)

    def test_report_renders(self, store):
        tuner = fast_tuner(store)
        text = tuner.explain(build(store, 6)).render()
        assert "predicted" not in text
        assert "measured" in text and "chosen" in text.lower()


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
            lambda self, query, engine, config: times[id(config)],
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

    def test_choice_never_compares_across_scales(self, store, monkeypatch):
        """Full-store laps run ~3x the sample laps here.  A third,
        unconfirmed candidate whose *sample* lap is 1.5x the default's
        is faster than every *full-store* lap — and must not win on
        that: once confirmation laps ran, they alone decide."""
        tuner = fast_tuner(store)
        outcomes = self._outcomes(tuner, sample_ms=10.0)
        default = outcomes[0]
        challenger = next(o for o in outcomes if o.config.native)
        challenger.measured_seconds = 0.011
        bystander = next(
            o for o in outcomes[1:]
            if not o.config.native and o.config.workers == 1
        )
        bystander.measured_seconds = 0.015  # 1.5x slower at sample scale
        self._pin_full_times(monkeypatch, {
            id(default.config): 0.030, id(challenger.config): 0.033,
        })
        tuner._confirm(build(store, 6), None, outcomes)
        assert bystander.confirmed_seconds is None
        winner = tuner._choose(outcomes)
        assert winner is default and not bystander.chosen

    def test_sample_laps_decide_when_nothing_was_confirmed(self, store):
        tuner = fast_tuner(store)
        outcomes = self._outcomes(tuner, sample_ms=10.0)
        fast = next(o for o in outcomes if o.config.workers > 1)
        fast.measured_seconds = 0.005
        slow = next(o for o in outcomes if o.config.native)
        slow.measured_seconds = 0.0095  # inside the keep-default margin
        assert tuner._choose(outcomes) is fast
        fast.chosen, fast.measured_seconds = False, 0.0095
        assert tuner._choose(outcomes) is outcomes[0]  # ties keep the default

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

    def test_confirm_margin_bounds_the_probe(self, store, monkeypatch):
        """``CONFIRM_MARGIN`` is what the probe reads: a challenger just
        outside it earns no lap, one just inside it does."""
        monkeypatch.setattr(AutoTuner, "CONFIRM_MARGIN", 0.05)
        tuner = fast_tuner(store)
        outcomes = self._outcomes(tuner)
        challenger = next(o for o in outcomes if o.config.native)
        challenger.measured_seconds = outcomes[0].measured_seconds * 1.06
        self._pin_full_times(monkeypatch, {})  # any lap would KeyError
        tuner._confirm(build(store, 6), None, outcomes)
        assert all(o.confirmed_seconds is None for o in outcomes)
        challenger.measured_seconds = outcomes[0].measured_seconds * 1.04
        self._pin_full_times(monkeypatch, {
            id(outcomes[0].config): 0.020, id(challenger.config): 0.010,
        })
        tuner._confirm(build(store, 6), None, outcomes)
        assert challenger.confirmed_seconds == 0.010

    def test_explain_runs_the_probe_end_to_end(self, store, monkeypatch):
        """Through the real entry point: pin full-scale laps so the
        native candidate must be adopted, and check the report shows
        the full-scale column."""
        monkeypatch.setattr(
            AutoTuner, "_time_full",
            lambda self, query, engine, config:
                1e-4 if config.native else 10.0,
        )
        monkeypatch.setattr(AutoTuner, "CONFIRM_MARGIN", 1e9)  # everyone is "near"
        tuner = fast_tuner(store)
        report = tuner.explain(build(store, 6))
        confirmed = [
            o for o in report.candidates if o.confirmed_seconds is not None
        ]
        assert any(o.config.native for o in confirmed)  # always raced now
        assert len(confirmed) == 2  # default + best challenger
        assert report.chosen.native
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
                           sample_rows=2048, repeats=1)
        tuner2.tune(build(other, 6))
        assert tuner2.measured_trials > 0  # miss: re-tuned

    def test_hardware_change_invalidates(self, store):
        query = build(store, 6)
        tuner = fast_tuner(store, cpu_count=1)
        tuner.tune(query)
        moved = AutoTuner(store, cache=tuner.cache, space=compact_space(),
                          sample_rows=2048, repeats=1, cpu_count=8)
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
        """The decision is keyed query x store x hardware — never by the
        chosen options, which would be circular — and memoized once, in
        the TuningCache; the compiled plan is keyed by the chosen
        options, in the engine's one plan cache."""
        tuner = fast_tuner(store)
        with VoodooEngine(store, config=EngineConfig(tuning="auto", tuner=tuner)) as engine:
            engine.query(build(store, 6))
            (token,) = tuner.cache.entries
            key = tuner.key_for(build(store, 6), engine.grain)
            assert token == key.token()  # reproducible from query+store+hw
            decision = tuner.cache.entries[token].config
            assert decision in tuner.space  # the entry carries the config
            (plan_key,) = engine._plan_cache
            assert plan_key == engine.cache_key(
                build(store, 6), None, decision.options, decision.execution
            )

    def test_one_engine_one_compile_and_close(self, store, request):
        """A configuration is a value: executing a tuned query builds no
        engine besides the caller's (and the tuner's per-search ones),
        compiles once, counts on the engine's own counters, and close()
        returns every pool lease."""
        from repro.parallel import REGISTRY

        tuner = fast_tuner(store)
        leases = REGISTRY.stats()["active_leases"]
        engine = VoodooEngine(store, config=EngineConfig(tuning="auto", tuner=tuner))
        engine.query(build(store, 6))  # cold: the tuner searches here
        built = request.getfixturevalue("built")  # spy from here on
        engine.query(build(store, 6))
        assert built == []
        info = engine.cache_info()
        assert (info["plan_misses"], info["plan_hits"], info["size"]) == (1, 1, 1)
        engine.close()
        assert engine._parallel_backends == {}
        assert REGISTRY.stats()["active_leases"] == leases

    def test_a_search_builds_one_engine_per_store(self, store, built):
        """Candidates race through one sample engine (plus one
        full-store engine when a confirmation is due) — never one each."""
        tuner = fast_tuner(store, space=knob_space(cpu_count=2), sample_rows=64)
        report = tuner.explain(build(store, 6))
        raced = [c for c in report.candidates if c.measured_seconds is not None]
        assert len(raced) >= 3
        assert 1 <= len(built) <= 2 and built[0] is tuner.sample
        assert built[1:] in ([], [store])

    def test_reports_stay_bounded(self, store, monkeypatch):
        """Evidence is kept for cold searches only, and capped; the
        decision is memoized in the TuningCache alone."""
        monkeypatch.setattr(AutoTuner, "REPORT_CAPACITY", 8)
        tuner = AutoTuner(
            store, space=[default_config()], sample_rows=64, repeats=1
        )
        for i in range(300):  # 300 distinct literals: 300 distinct keys
            query = dataclasses.replace(build(store, 6), limit=i + 1)
            tuner.tune(query)
        assert len(tuner._reports) == 8
        assert len(tuner.cache.entries) == 300
        assert tuner.tune(query) == default_config()  # a hit: no report grows
        assert len(tuner._reports) == 8

    def test_cache_info_extends_with_tuning_counters(self, store):
        tuner = fast_tuner(store)
        with VoodooEngine(store, config=EngineConfig(tuning="auto", tuner=tuner)) as engine:
            engine.query(build(store, 6))
            info = engine.cache_info()
            assert info["tuning_misses"] == 1
            assert info["tuning_entries"] == 1

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


def test_fourteen_tuned_queries_build_no_engine_per_configuration(store, built):
    """One tuned engine runs whatever the tuner picks: the only engines
    ever constructed are the caller's and the tuner's per-search ones
    (the sample's, plus the full store's when a confirmation is due) —
    and a warm second pass constructs none at all."""
    tuner = fast_tuner(store, space=knob_space(cpu_count=2), sample_rows=512)
    with VoodooEngine(store, config=EngineConfig(tuning="auto", tuner=tuner)) as tuned:
        assert built == [store]
        for number in sorted(QUERIES):
            before = len(built)
            tuned.query(build(store, number))
            search = built[before:]
            assert search[0] is tuner.sample and search[1:] in ([], [store]), number
        cold = len(built)
        for number in sorted(QUERIES):
            tuned.query(build(store, number))
        assert len(built) == cold
        info = tuned.cache_info()
        assert (info["plan_misses"], info["plan_hits"]) == (14, 14)
        chosen = {tuned.explain_tuning(build(store, n)).chosen for n in sorted(QUERIES)}
        assert chosen <= set(tuner.space)
