"""Figure 9 bench: per-hour AccessParks usage (synthetic trace).

Paper result (shape): hourly active subscribers and throughput over
Mar-Apr 2022 for a 14-site fixed-wireless network show a strong diurnal
cycle and a growing subscriber base.
"""

import pytest

from repro.experiments.fig9_accessparks import run_fig9
from repro.workloads.diurnal import DiurnalConfig

from conftest import run_once


@pytest.mark.benchmark(group="fig9")
def test_fig9_accessparks_trace(benchmark):
    result = run_once(benchmark, run_fig9, DiurnalConfig(days=61), 0)
    print()
    print(result.render())

    stats = result.stats
    # Two months of hourly samples (Mar-Apr = 61 days).
    assert stats["hours"] == 61 * 24
    # Strong diurnal swing with an evening peak and pre-dawn trough.
    assert stats["peak_to_trough_ratio"] > 3.0
    assert 17 <= stats["peak_hour_of_day"] <= 23
    assert 2 <= stats["trough_hour_of_day"] <= 10
    # Subscriber base grows over the period.
    first_week = [s.active_subscribers for s in result.samples[:7 * 24]]
    last_week = [s.active_subscribers for s in result.samples[-7 * 24:]]
    assert sum(last_week) > sum(first_week)
    # Throughput tracks subscribers (correlation sanity).
    assert stats["peak_throughput_mbps"] > stats["mean_throughput_mbps"]
