"""Unit tests for monitors, series, and percentile helpers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Monitor, Series, median, percentile


def test_series_record_and_iterate():
    s = Series("x")
    s.record(0.0, 1.0)
    s.record(1.0, 2.0)
    assert list(s) == [(0.0, 1.0), (1.0, 2.0)]
    assert len(s) == 2


def test_series_rejects_time_regression():
    s = Series("x")
    s.record(5.0, 1.0)
    with pytest.raises(ValueError):
        s.record(4.0, 1.0)


def test_series_allows_same_tick_appends():
    """Several samples at one sim instant are legal (batched completions);
    insertion order is preserved."""
    s = Series("x")
    s.record(1.0, 1.0)
    s.record(1.0, 2.0)
    s.record(1.0, 3.0)
    assert list(s) == [(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)]


def test_series_stats():
    s = Series("x")
    for t, v in enumerate([1.0, 3.0, 5.0]):
        s.record(float(t), v)
    assert s.mean() == 3.0
    assert s.total() == 9.0
    assert s.max() == 5.0
    assert s.last() == 5.0


def test_empty_series_stats_raise():
    s = Series("x")
    with pytest.raises(ValueError):
        s.mean()
    with pytest.raises(ValueError):
        s.max()
    with pytest.raises(ValueError):
        s.last()


def test_series_between():
    s = Series("x")
    for t in range(10):
        s.record(float(t), float(t))
    sub = s.between(2.0, 5.0)
    assert sub.times == [2.0, 3.0, 4.0]


# -- bounded series: one row per sample, on an exact stride grid ---------------


def _indices(series):
    return [int(t) for t in series.times]


def test_bounded_series_keeps_an_exact_stride_grid():
    s = Series("x", max_samples=8)
    for i in range(40):
        s.record(float(i), float(i))
    assert _indices(s) == [0, 8, 16, 24, 32]


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 64), st.integers(0, 2000))
def test_bounded_series_retains_exactly_the_multiples_of_its_stride(cap, n):
    s = Series("x", max_samples=cap)
    for i in range(n):
        s.record(float(i), float(i), trace_id=i)
        assert s.retained <= cap
    # The stride is the smallest power of two whose grid fits the cap.
    stride = 1
    while n > cap * stride:
        stride *= 2
    assert _indices(s) == list(range(0, n, stride))
    assert s.values == [float(i) for i in range(0, n, stride)]
    assert s.trace_ids == list(range(0, n, stride))


def test_recent_samples_return_every_recorded_trace_id():
    s = Series("x", max_samples=4096)
    for i in range(70):
        s.record(float(i), 0.5, trace_id=1000 + i)
    assert [tid for _, _, tid in s.recent_samples(60.0)] == \
        [1000 + i for i in range(61, 70)]


def test_binned_mean():
    s = Series("x")
    for t in range(10):
        s.record(float(t), float(t))
    bins = s.binned(5.0, t0=0.0, t1=10.0, agg="mean")
    assert bins == [(0.0, 2.0), (5.0, 7.0)]


def test_binned_count_and_sum():
    s = Series("x")
    for t in [0.1, 0.2, 5.5]:
        s.record(t, 2.0)
    bins_count = s.binned(5.0, t0=0.0, t1=10.0, agg="count")
    bins_sum = s.binned(5.0, t0=0.0, t1=10.0, agg="sum")
    assert bins_count == [(0.0, 2.0), (5.0, 1.0)]
    assert bins_sum == [(0.0, 4.0), (5.0, 2.0)]


def test_binned_empty_bin_is_nan_for_mean():
    s = Series("x")
    s.record(0.0, 1.0)
    bins = s.binned(1.0, t0=0.0, t1=3.0, agg="mean")
    assert bins[0][1] == 1.0
    assert math.isnan(bins[1][1])
    assert math.isnan(bins[2][1])


def test_binned_validation():
    s = Series("x")
    with pytest.raises(ValueError):
        s.binned(0.0)
    with pytest.raises(ValueError):
        s.binned(1.0, agg="bogus")


def test_percentile_and_median():
    data = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(data, 0) == 1.0
    assert percentile(data, 100) == 5.0
    assert percentile(data, 50) == 3.0
    assert median(data) == 3.0
    assert percentile([7.0], 50) == 7.0


def test_percentile_interpolates():
    assert percentile([1.0, 2.0], 50) == 1.5


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_series_percentile_and_median():
    s = Series("latency")
    for t, v in enumerate([5.0, 1.0, 3.0, 2.0, 4.0]):
        s.record(float(t), v)
    assert s.percentile(50) == 3.0
    assert s.percentile(0) == 1.0
    assert s.percentile(100) == 5.0
    assert s.median() == 3.0


def test_series_percentile_empty_raises():
    s = Series("x")
    with pytest.raises(ValueError):
        s.percentile(50)
    with pytest.raises(ValueError):
        s.median()


def test_monitor_percentile_and_median():
    m = Monitor()
    for t, v in enumerate([10.0, 30.0, 20.0]):
        m.record("latency", float(t), v)
    assert m.percentile("latency", 50) == 20.0
    assert m.median("latency") == 20.0


def test_monitor_series_registry():
    m = Monitor()
    m.record("throughput", 0.0, 100.0)
    m.record("throughput", 1.0, 200.0)
    assert m.series("throughput").mean() == 150.0
    assert list(m.names()) == ["throughput"]


# -- float-robust binning -----------------------------------------------------


def test_binned_boundary_sample_lands_in_own_bin():
    """0.2/0.1 floats to 1.999...: a naive int() would misplace the
    boundary sample into the previous bin."""
    s = Series("csr")
    s.record(0.2, 1.0)
    out = s.binned(0.1, t0=0.0, t1=0.3, agg="count")
    assert [v for _, v in out] == [0.0, 0.0, 1.0]


def test_binned_no_phantom_trailing_bin():
    """5.6/0.7 floats a hair above 8.0: ceil()-style bin counting would
    manufacture a ninth, empty bin."""
    s = Series("csr")
    for k in range(8):
        s.record(k * 0.7, 1.0)
    out = s.binned(0.7, t0=0.0, t1=5.6, agg="count")
    assert len(out) == 8
    assert [v for _, v in out] == [1.0] * 8


def test_bin_index_invariant_over_grid():
    from repro.sim.monitor import _bin_index

    for width in (0.1, 0.3, 0.7, 1.0, 2.5):
        for k in range(200):
            t = k * width
            idx = _bin_index(t, 0.0, width)
            assert idx * width <= t < (idx + 1) * width
