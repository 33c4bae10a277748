"""Synthetic diurnal usage generator (Fig. 9's AccessParks trace).

We cannot access AccessParks's production data, so this generator produces
the *shape* Fig. 9 reports for a fixed-wireless hotspot network: hourly
active-subscriber counts and aggregate throughput over weeks, with

- a strong diurnal cycle (evening peak, pre-dawn trough),
- a weekend uplift (the deployment serves parks/campgrounds),
- slow week-over-week subscriber growth (the network was expanding), and
- lognormal-ish noise.

Deterministic given (seed, parameters) - replicable like everything else.
"""

from __future__ import annotations

import math
from typing import List

from ..record import record
from ..sim.rng import RngRegistry

HOURS_PER_DAY = 24
BASE_SUBSCRIBERS = 350       # network-wide evening-peak users
GROWTH_PER_WEEK = 0.02       # expanding deployment
PEAK_HOUR = 20               # 8 pm local
MBPS_PER_SUBSCRIBER = 2.2    # hotspot browsing/streaming mix


@record
class DiurnalConfig:
    weekend_uplift: float = 1.35
    trough_fraction: float = 0.12         # 4 am load vs peak
    noise_sigma: float = 0.10
    days: int = 61                        # Mar-Apr 2022

    def __post_init__(self):
        if not 0 < self.trough_fraction <= 1:
            raise ValueError("trough fraction must be in (0, 1]")


@record
class HourSample:
    hour_index: int
    day: int
    hour_of_day: int
    active_subscribers: int
    throughput_mbps: float


def diurnal_factor(hour_of_day: int, peak_hour: int,
                   trough_fraction: float) -> float:
    """Smooth day-cycle factor in [trough_fraction, 1]."""
    phase = 2 * math.pi * (hour_of_day - peak_hour) / HOURS_PER_DAY
    # Cosine bump centered at peak_hour, normalized to [0, 1].
    bump = (math.cos(phase) + 1) / 2
    return trough_fraction + (1 - trough_fraction) * bump ** 1.5


def generate_trace(config: DiurnalConfig = None,
                   seed: int = 0) -> List[HourSample]:
    """Hourly samples for the configured period."""
    config = config or DiurnalConfig()
    rng = RngRegistry(seed).stream("diurnal")
    samples: List[HourSample] = []
    for day in range(config.days):
        weekday = day % 7
        weekend = weekday in (5, 6)
        week = day / 7.0
        growth = (1 + GROWTH_PER_WEEK) ** week
        day_factor = config.weekend_uplift if weekend else 1.0
        for hour in range(HOURS_PER_DAY):
            base = (BASE_SUBSCRIBERS * growth * day_factor *
                    diurnal_factor(hour, PEAK_HOUR, config.trough_fraction))
            noise = rng.lognormvariate(0, config.noise_sigma)
            subscribers = max(0, int(round(base * noise)))
            throughput = (subscribers * MBPS_PER_SUBSCRIBER *
                          rng.lognormvariate(0, config.noise_sigma / 2))
            samples.append(HourSample(
                hour_index=day * HOURS_PER_DAY + hour, day=day,
                hour_of_day=hour, active_subscribers=subscribers,
                throughput_mbps=throughput))
    return samples


def summarize(samples: List[HourSample]) -> dict:
    """Headline statistics for EXPERIMENTS.md."""
    if not samples:
        raise ValueError("empty trace")
    subs = [s.active_subscribers for s in samples]
    tput = [s.throughput_mbps for s in samples]
    by_hour = {}
    for sample in samples:
        by_hour.setdefault(sample.hour_of_day, []).append(
            sample.active_subscribers)
    hourly_mean = {h: sum(v) / len(v) for h, v in by_hour.items()}
    peak_hour = max(hourly_mean, key=hourly_mean.get)
    trough_hour = min(hourly_mean, key=hourly_mean.get)
    return {
        "hours": len(samples),
        "peak_subscribers": max(subs),
        "mean_subscribers": sum(subs) / len(subs),
        "peak_throughput_mbps": max(tput),
        "mean_throughput_mbps": sum(tput) / len(tput),
        "peak_hour_of_day": peak_hour,
        "trough_hour_of_day": trough_hour,
        "peak_to_trough_ratio": hourly_mean[peak_hour] /
                                max(hourly_mean[trough_hour], 1e-9),
    }
