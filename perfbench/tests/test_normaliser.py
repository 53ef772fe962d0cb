"""The noise rule: a run and the same run on a machine twice as slow
(samples and calibration alike) report equal values."""

import pytest

from perfbench import calibrate
from perfbench.harness import Recorder

ROUNDS = [
    (310.0, [("q1", 120.0), ("q6", 11.0), ("append", 0.5)]),
    (290.0, [("q1", 110.0), ("q6", 12.5), ("append", 0.4)]),
    (335.0, [("q1", 131.0), ("q6", 10.5), ("append", 0.6)]),
]
KERNEL = [40.0, 44.0, 38.0, 41.0]


def _run(slowdown: float) -> Recorder:
    kernel = iter(k * slowdown for k in KERNEL)
    recorder = Recorder(kernel_ms=lambda: next(kernel))
    for wall_ms, samples in ROUNDS:
        recorder.add(wall_ms * slowdown, [(op, ms * slowdown) for op, ms in samples])
    return recorder


def test_slowdown_cancels():
    base, slow = _run(1.0), _run(2.0)
    assert slow.latency_geomean_ms() == pytest.approx(base.latency_geomean_ms())
    assert slow.throughput_qps() == pytest.approx(base.throughput_qps())
    assert slow.op_medians() == pytest.approx(base.op_medians())
    # the raw rows keep the difference
    assert slow.latency_geomean_ms(normalised=False) == pytest.approx(
        2 * base.latency_geomean_ms(normalised=False))


def test_factor_is_reference_over_mean_calibration():
    assert calibrate.factor(30.0, 50.0) == pytest.approx(calibrate.REFERENCE_MS / 40.0)
    recorder = _run(1.0)
    assert recorder.rounds[0].factor == pytest.approx(calibrate.REFERENCE_MS / 42.0)


def test_kernel_runs_and_takes_time():
    assert calibrate.kernel_ms() > 0.0
