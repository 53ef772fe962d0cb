"""Hardware models: caches, branch predictors, devices, cost accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VoodooError
from repro.hardware import (
    CPU_1T,
    CPU_MT,
    GPU,
    CacheHierarchySimulator,
    CostModel,
    TraceEvent,
    TraceRecorder,
    TwoBitPredictor,
    available_devices,
    expected_random_latency,
    get_device,
    hit_probability,
    mispredict_fraction,
    simulate_mispredict_fraction,
)
from repro.hardware import cache
from repro.hardware.cachesim import random_addresses, sequential_addresses


class TestHitModel:
    def test_tiny_footprint_hits(self):
        assert hit_probability(32 * 1024, 64) == pytest.approx(1.0, abs=1e-6)

    def test_huge_footprint_capacity_bound(self):
        p = hit_probability(8 << 20, 128 << 20)
        assert 0.01 < p < 0.06  # ~0.65 * S/F

    def test_parity_degraded(self):
        p = hit_probability(8 << 20, 8 << 20)
        assert 0.3 < p < 0.5

    def test_monotone_in_footprint(self):
        sizes = [1 << k for k in range(10, 30)]
        probs = [hit_probability(8 << 20, f) for f in sizes]
        assert all(a >= b - 1e-12 for a, b in zip(probs, probs[1:]))

    def test_latency_hot_vs_cold(self):
        hot = expected_random_latency(CPU_MT, 64)
        cold = expected_random_latency(CPU_MT, 1 << 30)
        assert hot == pytest.approx(4.0, rel=0.1)   # L1
        assert cold > 150                           # mostly DRAM

    def test_stream_bandwidth_cache_vs_dram(self):
        cached = cache.stream_bytes_seconds(CPU_MT, 1 << 20, footprint=16 << 10)
        dram = cache.stream_bytes_seconds(CPU_MT, 1 << 20, footprint=0)
        assert cached < dram


class TestCacheSimulator:
    def test_sequential_mostly_hits(self):
        sim = CacheHierarchySimulator(CPU_1T)
        result = sim.run(sequential_addresses(4096, stride=4))
        assert result.per_level["L1"].hit_rate > 0.9

    def test_random_over_large_footprint_misses(self):
        sim = CacheHierarchySimulator(CPU_1T)
        result = sim.run(random_addresses(4096, footprint=64 << 20))
        assert result.per_level["L1"].hit_rate < 0.1
        assert result.average_latency > 100

    def test_small_footprint_settles_resident(self):
        sim = CacheHierarchySimulator(CPU_1T)
        addresses = random_addresses(20_000, footprint=8 << 10)
        result = sim.run(addresses)
        assert result.per_level["L1"].hit_rate > 0.9

    def test_analytical_model_tracks_simulator(self):
        """The soft hit model stays within 0.2 of set-assoc LRU reality."""
        for footprint in (8 << 10, 64 << 10, 512 << 10):
            sim = CacheHierarchySimulator(CPU_1T)
            addresses = random_addresses(30_000, footprint=footprint, seed=3)
            measured = sim.run(addresses)
            # combined hit rate across the hierarchy vs analytic walk
            analytic_latency = expected_random_latency(CPU_1T, footprint)
            assert abs(measured.average_latency - analytic_latency) < max(
                50.0, 0.9 * analytic_latency
            )

    def test_bad_geometry_rejected(self):
        from repro.hardware import CacheLevel, SetAssociativeCache
        with pytest.raises(VoodooError):
            SetAssociativeCache(CacheLevel("X", 1000, 1.0), associativity=8)


class TestBranchModels:
    def test_analytic_peak_at_half(self):
        assert mispredict_fraction(0.5) == pytest.approx(0.5)
        assert mispredict_fraction(0.0) == 0.0
        assert mispredict_fraction(1.0) == 0.0

    def test_clamping(self):
        assert mispredict_fraction(-1.0) == 0.0
        assert mispredict_fraction(2.0) == 0.0

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.8])
    def test_two_bit_predictor_tracks_analytic(self, p):
        rng = np.random.default_rng(0)
        outcomes = rng.random(30_000) < p
        measured = simulate_mispredict_fraction(outcomes)
        assert abs(measured - mispredict_fraction(p)) < 0.12

    def test_two_bit_predictor_constant_stream(self):
        predictor = TwoBitPredictor()
        rate = predictor.run(np.ones(1000, dtype=bool))
        assert rate < 0.01


class TestDevices:
    def test_registry(self):
        assert set(available_devices()) >= {"cpu-1t", "cpu-mt", "gpu"}
        assert get_device("gpu") is GPU

    def test_unknown_device(self):
        with pytest.raises(VoodooError):
            get_device("abacus")

    def test_gpu_int_penalty(self):
        assert GPU.int_op_cycles > GPU.float_op_cycles

    def test_gpu_not_speculative(self):
        assert not GPU.speculative and CPU_MT.speculative


class TestCostModel:
    def test_sequential_event_single_lane(self):
        model = CostModel(CPU_MT)
        parallel = TraceEvent(int_ops=10_000_000, extent=10_000_000)
        sequential = TraceEvent(int_ops=10_000_000, extent=1)
        assert model.compute_seconds(sequential) > model.compute_seconds(parallel) * 10

    def test_branch_cost_peaks_mid_selectivity(self):
        model = CostModel(CPU_MT)
        mid = TraceEvent(branches=1_000_000, taken_fraction=0.5, extent=1_000_000)
        low = TraceEvent(branches=1_000_000, taken_fraction=0.01, extent=1_000_000)
        assert model.branch_seconds(mid) > model.branch_seconds(low) * 5

    def test_gpu_branches_cost_divergence_not_mispredict(self):
        gpu, cpu = CostModel(GPU), CostModel(CPU_MT)
        event = TraceEvent(branches=10_000_000, taken_fraction=0.5,
                           extent=10_000_000)
        assert gpu.branch_seconds(event) < cpu.branch_seconds(event)

    def test_warp_serial_penalty_on_gpu(self):
        model = CostModel(GPU)
        normal = TraceEvent(int_ops=10_000_000, extent=10_000_000)
        serial = TraceEvent(int_ops=10_000_000, extent=10_000_000, warp_serial=True)
        assert model.compute_seconds(serial) > model.compute_seconds(normal) * 4

    def test_memory_random_vs_sequential(self):
        model = CostModel(CPU_MT)
        seq = TraceEvent(bytes_read_seq=8 << 20, extent=1 << 20)
        rand = TraceEvent(random_reads=1 << 20, random_read_footprint=1 << 30,
                          extent=1 << 20)
        assert model.memory_seconds(rand) > model.memory_seconds(seq)

    def test_trace_pricing_sums_kernels(self):
        recorder = TraceRecorder()
        recorder.begin_kernel(0, extent=0, intent=1)
        recorder.emit(TraceEvent(int_ops=1000, extent=1000))
        recorder.begin_kernel(1, extent=0, intent=1)
        recorder.emit(TraceEvent(int_ops=1000, extent=1000))
        report = CostModel(CPU_MT).price(recorder.trace)
        assert len(report.kernels) == 2
        assert report.seconds >= 2 * CPU_MT.kernel_launch_seconds

    def test_event_scaling(self):
        event = TraceEvent(elements=10, int_ops=10, bytes_read_seq=80, branches=10)
        scaled = event.scaled(10)
        assert scaled.int_ops == 100 and scaled.bytes_read_seq == 800


@given(st.floats(0.0, 1.0))
@settings(max_examples=50)
def test_mispredict_fraction_bounded(p):
    assert 0.0 <= mispredict_fraction(p) <= 0.5


@given(st.integers(64, 1 << 28), st.integers(64, 1 << 28))
@settings(max_examples=50)
def test_hit_probability_bounded(size, footprint):
    assert 0.0 <= hit_probability(size, footprint) <= 1.0
