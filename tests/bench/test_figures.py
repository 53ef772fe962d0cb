"""Figure-shape regression tests (small inputs; full runs live in benchmarks/)."""

import pytest

from repro.bench import ablations, figure01, figure14, figure15, figure16, tpch_compare
from repro.bench.harness import BarSet, SeriesSet

N = 1 << 17


class TestHarness:
    def test_series_set_render(self):
        fig = SeriesSet(title="t", x_label="x", y_label="s")
        fig.line("a").add(1, 0.5)
        fig.line("b").add(1, 0.25)
        text = fig.render()
        assert "t" in text and "a" in text

    def test_winner_at(self):
        fig = SeriesSet(title="t", x_label="x", y_label="s")
        fig.line("a").add(1, 0.5)
        fig.line("b").add(1, 0.25)
        assert fig.winner_at(1) == "b"

    def test_barset(self):
        bars = BarSet(title="t")
        bars.set("sys", "Q1", 0.001)
        assert bars.value("sys", "Q1") == 0.001
        assert bars.value("sys", "Q2") is None
        assert "Q1" in bars.render()

class TestFigure01:
    def test_shape(self):
        figure = figure01.run(n=N)
        assert not figure01.expected_shape(figure)

    def test_branch_free_flat(self):
        figure = figure01.run(n=N)
        flat = figure.series["Single Thread No Branch"]
        assert max(flat.ys) < 2.0 * min(flat.ys)  # flat within 2x across sweep


@pytest.mark.slow
class TestFigure14:
    def test_cpu_shape(self):
        figure = figure14.run(device="cpu-mt", n_lookups=1 << 23)
        assert not figure14.expected_shape_cpu(figure)

    def test_gpu_shape(self):
        figure = figure14.run(device="gpu", n_lookups=1 << 23)
        assert not figure14.expected_shape_gpu(figure)


class TestFigure15:
    def test_cpu_shape(self):
        figure = figure15.run(device="cpu-mt", n=N)
        assert not figure15.expected_shape_cpu(figure)

    def test_gpu_shape(self):
        figure = figure15.run(device="gpu", n=N)
        assert not figure15.expected_shape_gpu(figure)


class TestFigure16:
    def test_cpu_shape(self):
        figure = figure16.run(device="cpu-mt", n=N)
        assert not figure16.expected_shape_cpu(figure)

    def test_gpu_shape(self):
        figure = figure16.run(device="gpu", n=N)
        assert not figure16.expected_shape_gpu(figure)


class TestTpchComparison:
    @pytest.fixture(scope="class")
    def figures(self):
        from repro.tpch import generate
        store = generate(0.01, seed=42)
        cpu = tpch_compare.run(device="cpu-mt", store=store)
        gpu = tpch_compare.run(device="gpu", store=store)
        return cpu, gpu

    def test_cpu_shape(self, figures):
        cpu, _ = figures
        assert not tpch_compare.expected_shape_cpu(cpu)

    def test_gpu_shape(self, figures):
        cpu, gpu = figures
        assert not tpch_compare.expected_shape_gpu(cpu, gpu)

    def test_paper_reference_data_present(self):
        assert tpch_compare.PAPER_CPU_MS["Voodoo"][19] == 120
        assert tpch_compare.PAPER_GPU_MS["Voodoo"][1] == 294


class TestAblations:
    def test_fusion_wins(self):
        results = ablations.ablate_fusion(n=N)
        assert results["fused"] < results["operator-at-a-time"]

    def test_virtual_scatter_wins(self):
        results = ablations.ablate_virtual_scatter(n=N)
        assert results["virtual"] < results["materialized"]

    def test_slot_suppression_helps(self):
        results = ablations.ablate_slot_suppression(n=N)
        assert results["suppressed"] <= results["padded"]

    def test_intent_sweep_runs(self):
        figure = ablations.intent_sweep(n=N, grains=(64, 4096))
        assert len(figure.series["cpu-mt"].ys) == 2
