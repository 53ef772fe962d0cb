"""TPC-H workload: deterministic generator, evaluated queries, references."""

from repro.tpch.datagen import generate
from repro.tpch.queries import CPU_QUERIES, GPU_QUERIES, QUERIES, build
from repro.tpch.reference import REFERENCES
from repro.tpch.schema import date

__all__ = ["generate", "CPU_QUERIES", "GPU_QUERIES", "QUERIES", "build",
           "REFERENCES", "date"]
