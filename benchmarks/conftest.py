"""Shared fixtures for the benchmark suite.

Each ``bench_*`` module regenerates one table/figure of the paper: the
pytest-benchmark fixture times the real execution of our compiled kernels,
and the test body prints the *simulated* series in the paper's layout.
Wall-clock comparisons between commits are ``perfbench/``'s job, not
this suite's.

Run with ``python -m pytest benchmarks`` from the repo root (collection
is configured in pyproject.toml); ``-m "not slow"`` is the CI smoke set.
"""

import pytest

# pytest's rootdir is the repo root (anchored by pyproject.toml), so the
# root conftest.py has already bootstrapped src/ onto sys.path when this
# module loads — no install required.
from repro.tpch import generate


def pytest_addoption(parser):
    parser.addoption(
        "--bench-scale", action="store", default="0.02",
        help="TPC-H scale factor for the comparison benchmarks",
    )
    parser.addoption(
        "--bench-n", action="store", default=str(1 << 19),
        help="element count for the microbenchmark figures",
    )


@pytest.fixture(scope="session")
def bench_scale(request) -> float:
    return float(request.config.getoption("--bench-scale"))


@pytest.fixture(scope="session")
def bench_n(request) -> int:
    return int(request.config.getoption("--bench-n"))


@pytest.fixture(scope="session")
def tpch_store(bench_scale):
    return generate(bench_scale, seed=42)
