"""Tests for the telemetry layer: counters and latency histograms."""

import numpy as np
import pytest

from repro.obs.registry import Histogram
from repro.serve import Telemetry


class TestLatencySecondsHistogram:
    def test_empty(self):
        histogram = Histogram("repro_latency_seconds")
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.quantile(0.5) == 0.0

    def test_single_observation(self):
        histogram = Histogram("repro_latency_seconds")
        histogram.observe(0.01)
        assert histogram.count == 1
        assert histogram.max == 0.01
        assert histogram.quantile(0.5) == pytest.approx(0.01, rel=0.30)

    def test_quantiles_track_numpy(self):
        rng = np.random.default_rng(5)
        samples = rng.lognormal(mean=-7, sigma=1.0, size=5000)
        histogram = Histogram("repro_latency_seconds")
        for value in samples:
            histogram.observe(float(value))
        for q in (0.50, 0.95, 0.99):
            exact = float(np.quantile(samples, q))
            # Bucketed estimate may exceed the exact quantile by at most
            # one growth factor (1.25), and never undershoots more than
            # one bucket either.
            assert histogram.quantile(q) <= exact * 1.25
            assert histogram.quantile(q) >= exact / 1.25

    def test_quantile_never_exceeds_max(self):
        histogram = Histogram("repro_latency_seconds")
        for value in (1e-5, 2e-5, 3e-5):
            histogram.observe(value)
        assert histogram.quantile(1.0) <= 3e-5

    def test_out_of_range_observations(self):
        histogram = Histogram("repro_latency_seconds")
        histogram.observe(-1.0)   # clamped to 0, lands in underflow
        histogram.observe(1e-9)   # below the first edge
        histogram.observe(1e4)    # above the last edge
        assert histogram.count == 3
        assert histogram.max == 1e4

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            Histogram("repro_latency_seconds").quantile(0.0)
        with pytest.raises(ValueError):
            Histogram("repro_latency_seconds").quantile(1.5)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Histogram("repro_latency_seconds", low=1.0, high=0.5)
        with pytest.raises(ValueError):
            Histogram("repro_latency_seconds", growth=1.0)

    def test_percentiles_ms_keys(self):
        histogram = Histogram("repro_latency_seconds")
        histogram.observe(0.002)
        keys = set(histogram.percentiles_ms())
        assert keys == {"p50_ms", "p95_ms", "p99_ms", "mean_ms", "max_ms"}


class TestTelemetry:
    def test_counters(self):
        telemetry = Telemetry()
        assert telemetry.counter("inspected") == 0
        telemetry.increment("inspected")
        telemetry.increment("inspected", 4)
        assert telemetry.counter("inspected") == 5

    def test_record_inspection(self):
        telemetry = Telemetry()
        telemetry.record_inspection(True, 0.001)
        telemetry.record_inspection(False, 0.002)
        assert telemetry.counter("inspected") == 2
        assert telemetry.counter("alerted") == 1

    def test_snapshot_shape(self):
        telemetry = Telemetry()
        telemetry.record_inspection(True, 0.001)
        telemetry.observe("latency", 0.003)
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["inspected"] == 1
        assert snapshot["latency"]["service"]["count"] == 1
        assert snapshot["latency"]["latency"]["count"] == 1
        assert snapshot["uptime_s"] >= 0

    def test_snapshot_is_a_copy(self):
        telemetry = Telemetry()
        telemetry.increment("x")
        snapshot = telemetry.snapshot()
        snapshot["counters"]["x"] = 99
        assert telemetry.counter("x") == 1
