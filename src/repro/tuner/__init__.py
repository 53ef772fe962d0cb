"""Adaptive knob auto-tuner: the paper's tuning space, searched per
query, per machine (section 5.3, automated).

One measured stage — every candidate that runs its own code races the
static default in wall-clock on a sampled store, with early exit, and a
near-tie is settled by full-store confirmation laps — memoized in a
persistent :class:`TuningCache` keyed on query × store × hardware.  Wired into the engine as
``VoodooEngine(store, config=EngineConfig(tuning="auto"))``; inspect decisions with
``engine.explain_tuning(query)`` or ``python -m repro.tuner`` (smoke
CLI: tune three TPC-H queries, prove the warm cache re-answers with
zero measured trials).
"""

from repro.tuner.cache import TuningCache, TuningEntry, TuningKey, hardware_signature
from repro.tuner.sample import sample_store
from repro.tuner.space import TunedConfig, compact_space, default_config, knob_space
from repro.tuner.tuner import AutoTuner, CandidateOutcome, TuningReport

__all__ = [
    "AutoTuner",
    "CandidateOutcome",
    "TunedConfig",
    "TuningCache",
    "TuningEntry",
    "TuningKey",
    "TuningReport",
    "compact_space",
    "default_config",
    "hardware_signature",
    "knob_space",
    "sample_store",
]
