"""Comparison baselines: HyPeR-like (pipelined) and Ocelot-like (bulk)."""

from repro.baselines.engine import BaselineEngine
from repro.baselines.hyper import HyperEngine
from repro.baselines.ocelot import OcelotEngine

__all__ = ["BaselineEngine", "HyperEngine", "OcelotEngine"]
