"""The adaptive knob auto-tuner (the paper's section 5.3, automated).

Given a relational query and a :class:`~repro.storage.ColumnStore`, the
tuner picks the fastest point of the knob space *for this query on this
machine* by measurement alone:

* **Sample race** — the static default and every candidate that runs
  its own code on the sample race in real wall-clock on a sampled
  slice of the store, in knob-space order, with early exit: a candidate
  whose first lap is hopelessly behind the leader forfeits its
  remaining repeats.  A ``workers > 1`` candidate whose sample plan
  runs whole (one effective core, or below the pool crossover) runs its
  sequential twin's code there: it is marked ``whole`` and neither
  raced nor confirmed.
* **Full-store confirmation** — a near-tie between the default and a
  parallel/native challenger is settled by one full-scale lap of each:
  sample-scale races systematically under-credit configurations whose
  fixed overheads amortize with input size.  Times are only ever
  compared at one scale: once confirmation laps ran, the choice is
  between the confirmed candidates on their full-store times.
* **Keep-default rule** — the winner must beat the static default by
  more than :attr:`AutoTuner.KEEP_DEFAULT_MARGIN`, otherwise the default
  is kept.

Every candidate of one search runs through **one engine per store** (the
sample's, and the full store's when a confirmation is due): a
configuration is an argument of ``VoodooEngine.run_as``, not an engine.

The winner is memoized — once — in a
:class:`~repro.tuner.cache.TuningCache` keyed on query × store ×
hardware, so a warm cache answers with **zero** measured trials — and
persists across restarts when given a path.

Every configuration in the space is bit-identical to the reference
backend by construction (the conformance grid's ``tuned`` entry fuzzes
this), so tuning can never change a query's result, only its latency.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import attrgetter

from repro.errors import VoodooError
from repro.parallel.planner import PartitionPlanner
from repro.relational.algebra import Query
from repro.relational.eviction import evict_oldest
from repro.storage.columnstore import ColumnStore
from repro.tuner.cache import (
    TuningCache,
    TuningEntry,
    TuningKey,
    digest,
    hardware_signature,
)
from repro.tuner.sample import sample_store
from repro.tuner.space import TunedConfig, knob_space



@dataclass
class CandidateOutcome:
    """One candidate's journey through the race and the confirmation."""

    config: TunedConfig
    measured_seconds: float | None = None
    #: full-store confirmation lap (near-tie challengers and the default)
    confirmed_seconds: float | None = None
    trials: int = 0
    chosen: bool = False
    #: a ``workers > 1`` candidate whose sample plan runs whole (one core,
    #: or below the pool crossover): its sequential twin's code, so it
    #: is neither raced nor confirmed
    whole: bool = False

    def row(self) -> str:
        measured = (
            "    whole" if self.whole
            else "        -" if self.measured_seconds is None
            else f"{self.measured_seconds * 1e3:8.3f}ms"
        )
        confirmed = (
            "" if self.confirmed_seconds is None
            else f" | full {self.confirmed_seconds * 1e3:8.3f}ms"
        )
        mark = " <- chosen" if self.chosen else ""
        return f"{self.config.describe():>42} | {measured}{confirmed}{mark}"


@dataclass
class TuningReport:
    """Everything ``engine.explain_tuning`` shows: candidates considered,
    their measured (sample) and confirmed (full-store) times, and the
    chosen configuration."""

    key: TuningKey
    hardware: dict
    chosen: TunedConfig
    cache_hit: bool
    sample_rows: int
    candidates: list[CandidateOutcome] = field(default_factory=list)
    tuning_seconds: float = 0.0
    measured_trials: int = 0

    def render(self) -> str:
        lines = [
            f"tuning {self.key.token()}  "
            f"(hardware {self.hardware}, sample {self.sample_rows} rows)"
        ]
        if self.cache_hit:
            lines.append(
                f"  cache HIT -> {self.chosen.describe()} "
                f"(0 measured trials this run)"
            )
            return "\n".join(lines)
        header = f"{'candidate':>42} | {'measured':>10}"
        lines += [header, "-" * len(header)]
        lines += [f"  {outcome.row()}" for outcome in self.candidates]
        lines.append(
            f"  -> {self.chosen.describe()} after {self.measured_trials} measured "
            f"trial(s) in {self.tuning_seconds * 1e3:.1f} ms"
        )
        return "\n".join(lines)


class AutoTuner:
    """Searches the knob space per query, per machine, with memoization.

    Parameters
    ----------
    store:
        The full dataset queries will run against.
    cache:
        A :class:`TuningCache`, a path for a persistent one, or ``None``
        for a process-local cache.
    device:
        Device profile of the default knob space's options.
    space:
        Candidate list; defaults to :func:`repro.tuner.space.knob_space`
        for this machine.  The first entry is treated as the baseline:
        it is always measured, and wins ties (see ``KEEP_DEFAULT_MARGIN``).
    sample_rows:
        Row cap for the measurement sample (prefix slice per table).
    repeats:
        Timed laps per measured candidate (best-of).
    cpu_count:
        Real core budget (tests override it to simulate other machines).
    """

    #: early exit: a candidate whose first lap exceeds the best time so
    #: far by this factor forfeits its remaining laps
    RACE_FACTOR = 2.0
    #: the winner must beat the static default by more than this relative
    #: margin, otherwise the default is kept — ties go to the least
    #: surprising configuration, and sample-scale flukes are not allowed
    #: to adopt configs that could regress at full scale
    KEEP_DEFAULT_MARGIN = 0.10
    #: how close (relative) a parallel/native challenger must race to the
    #: default on the sample to earn a full-store confirmation lap
    CONFIRM_MARGIN = 0.35

    def __init__(
        self,
        store: ColumnStore,
        cache: TuningCache | str | None = None,
        device: str = "cpu-mt",
        space: list[TunedConfig] | None = None,
        sample_rows: int = 65536,
        repeats: int = 3,
        cpu_count: int | None = None,
    ):
        self.store = store
        self.cache = cache if isinstance(cache, TuningCache) else TuningCache(path=cache)
        self.device = device
        self.hardware = hardware_signature(device, cpu_count)
        self.space = space if space is not None else knob_space(
            device, self.hardware["cpu_count"]
        )
        if not self.space:
            raise VoodooError("tuner needs a non-empty candidate space")
        self.sample_rows = sample_rows
        self.repeats = max(1, repeats)
        #: timed wall-clock laps executed so far (0 on a warm cache)
        self.measured_trials = 0
        self._sample: ColumnStore | None = None
        #: evidence of this tuner's own cold searches (what ``explain``
        #: shows); the decision itself lives in ``cache`` alone
        self._reports: dict[str, TuningReport] = {}

    # -- identity ----------------------------------------------------------

    def key_for(self, query: Query, grain: int | None = None) -> TuningKey:
        from repro.relational.engine import structural_fingerprint

        return TuningKey(
            query=digest((structural_fingerprint(query), grain)),
            store=digest(self.store.fingerprint()),
            hardware=digest(tuple(sorted(self.hardware.items()))),
        )

    @property
    def sample(self) -> ColumnStore:
        if self._sample is None:
            self._sample = sample_store(self.store, self.sample_rows)
        return self._sample

    # -- the search --------------------------------------------------------

    @staticmethod
    def _engine(store: ColumnStore, grain: int | None):
        """The one engine every candidate of a search runs through on
        *store* (use as a context manager: it holds the pool leases)."""
        from repro.relational.config import EngineConfig
        from repro.relational.engine import VoodooEngine

        return VoodooEngine(store, config=EngineConfig(grain=grain, tracing=False))

    def _runs_whole(self, query: Query, engine, config: TunedConfig) -> bool:
        """Whether a ``workers > 1`` *config* runs its sequential twin's
        code on *engine* (the sample's): one effective core, or a sample
        plan that is not parallel.  The plan is made from the compile the
        candidate's own warm-up lap would use (same plan-cache key)."""
        if config.workers == 1:
            return False
        if self.hardware["cpu_count"] < 2:
            return True
        compiled = engine.compile(
            query, options=config.options, execution=config.execution
        )
        return not PartitionPlanner(
            compiled.program, engine.vectors(), config.workers
        ).plan().parallel

    def _race(self, query: Query, engine) -> list[CandidateOutcome]:
        """Race every candidate that runs its own code on the sample in
        real wall-clock, in space order (through *engine*, the sample's)."""
        outcomes = [CandidateOutcome(config) for config in self.space]
        best = float("inf")
        for index, outcome in enumerate(outcomes):
            outcome.whole = self._runs_whole(query, engine, outcome.config)
            if outcome.whole:
                continue
            self._lap(query, engine, outcome.config)  # warmup: compile, pool, plan
            elapsed = float("inf")
            for lap in range(self.repeats):
                elapsed = min(elapsed, self._lap(query, engine, outcome.config))
                outcome.trials += 1
                self.measured_trials += 1
                if lap == 0 and index != 0 and elapsed > best * self.RACE_FACTOR:
                    break  # hopelessly behind: forfeit remaining laps
            outcome.measured_seconds = elapsed
            best = min(best, elapsed)
        return outcomes

    @staticmethod
    def _lap(query: Query, engine, config: TunedConfig) -> float:
        """Seconds of one execution of *config* on *engine*."""
        start = time.perf_counter()
        engine.run_as(query, config.options, config.execution)
        return time.perf_counter() - start

    def _time_full(self, query: Query, engine, config: TunedConfig) -> float:
        """One warmed wall-clock lap of *config* on the **full** store,
        through *engine* (the confirmation probe's measurement; tests
        monkeypatch this)."""
        self._lap(query, engine, config)
        return self._lap(query, engine, config)

    def _confirm(
        self, query: Query, grain: int | None, outcomes: list[CandidateOutcome]
    ) -> None:
        """Full-scale tiebreak for near-tie parallel/native challengers.

        The sample race charges a parallel pool's startup and a native
        run's dispatch against a fraction of the real work, so configs
        that win at full scale can lose the sample race by a whisker and
        be declined by the keep-default margin.  When the best such
        challenger measures within ``CONFIRM_MARGIN`` of the default,
        one full-store lap of each decides (``confirmed_seconds``).
        """
        default = outcomes[0]
        if default.measured_seconds is None:
            return
        challengers = [
            o for o in outcomes
            if o is not default
            and o.measured_seconds is not None
            and (o.config.workers > 1 or o.config.native)
            and o.measured_seconds
            <= default.measured_seconds * (1 + self.CONFIRM_MARGIN)
        ]
        if not challengers:
            return
        challenger = min(challengers, key=lambda o: o.measured_seconds)
        with self._engine(self.store, grain) as engine:
            for outcome in (default, challenger):
                outcome.confirmed_seconds = self._time_full(
                    query, engine, outcome.config
                )
                outcome.trials += 1
                self.measured_trials += 1

    def _choose(self, outcomes: list[CandidateOutcome]) -> CandidateOutcome:
        """Like with like: full-store laps, when they ran, decide between
        the candidates that have one; otherwise the sample laps decide.
        A sample-scale time is never compared with a full-store time."""
        seconds = attrgetter("confirmed_seconds")
        if all(seconds(o) is None for o in outcomes):
            seconds = attrgetter("measured_seconds")
        winner = min((o for o in outcomes if seconds(o) is not None), key=seconds)
        default = outcomes[0]
        if (
            seconds(default) is not None
            and seconds(default) <= seconds(winner) * (1 + self.KEEP_DEFAULT_MARGIN)
        ):
            winner = default  # ties go to the static default
        winner.chosen = True
        return winner

    # -- entry points ------------------------------------------------------

    #: cold-search reports kept for ``explain`` (oldest dropped first)
    REPORT_CAPACITY = 256

    def tune(self, query: Query, grain: int | None = None) -> TunedConfig:
        """The decision: cached when warm, measured search when cold."""
        key = self.key_for(query, grain)
        entry = self.cache.get(key)
        if entry is not None:
            return entry.config
        return self._search(query, grain, key).chosen

    def explain(self, query: Query, grain: int | None = None) -> TuningReport:
        """Tune (or recall) and report the full evidence trail."""
        key = self.key_for(query, grain)
        report = self._reports.get(key.token())
        if report is not None:
            return report
        entry = self.cache.get(key)
        if entry is None:
            return self._search(query, grain, key)
        return TuningReport(
            key=key,
            hardware=self.hardware,
            chosen=entry.config,
            cache_hit=True,
            sample_rows=self._sample_rows(),
        )

    def _sample_rows(self) -> int:
        return max((len(t) for t in self.sample.tables()), default=0)

    def _search(self, query: Query, grain: int | None, key: TuningKey) -> TuningReport:
        """The cold path: the race, its confirmation, the choice, and its
        memoization."""
        start = time.perf_counter()
        trials_before = self.measured_trials
        with self._engine(self.sample, grain) as engine:
            outcomes = self._race(query, engine)
        self._confirm(query, grain, outcomes)
        winner = self._choose(outcomes)
        report = TuningReport(
            key=key,
            hardware=self.hardware,
            chosen=winner.config,
            cache_hit=False,
            sample_rows=self._sample_rows(),
            candidates=outcomes,
            tuning_seconds=time.perf_counter() - start,
            measured_trials=self.measured_trials - trials_before,
        )
        evict_oldest(self._reports, self.REPORT_CAPACITY)
        self._reports[key.token()] = report
        self.cache.put(TuningEntry(
            key=key,
            config=winner.config,
            measured_ms=(
                None if winner.measured_seconds is None
                else winner.measured_seconds * 1e3
            ),
            trials=winner.trials,
        ))
        return report
