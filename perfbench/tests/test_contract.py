"""BENCHMARK.json, the metric tables and the driver's schema agree."""

import json
import re

from perfbench.harness import ROOT
from perfbench.metrics import PER_LAYER
from perfbench.suite import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_file_is_generated_from_the_tables():
    assert SPEC == spec(), "run: python perfbench/run.py spec > BENCHMARK.json"


def test_keys_are_exactly_the_contracts():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_names_and_counts():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names)), "a name is used twice"
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_workloads_say_why():
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_end_to_end_metrics_have_unit_direction_and_bound():
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_metrics_say_what_they_move():
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"])
    for layer in PER_LAYER:
        assert layer.moves.strip(), f"{layer.name} names no end-to-end metric"
        assert layer.name.split(".")[0] in {
            "relational", "compiler", "native", "parallel", "storage", "serving",
            "tpch", "micro", "raw", "calib", "trace"}


def test_file_is_small():
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
