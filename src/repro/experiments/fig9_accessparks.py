"""Figure 9: per-hour AccessParks usage (Mar-Apr 2022).

We cannot access the operator's production data, so this experiment
regenerates the figure's *shape* from the calibrated synthetic diurnal
generator (see DESIGN.md substitutions): hourly active subscribers and
aggregate throughput for a 14-site fixed-wireless-backhaul network over
two months, with the diurnal cycle, weekend uplift, and week-over-week
growth the deployment exhibited.
"""

from __future__ import annotations

from typing import List

from ..record import record
from ..workloads.diurnal import DiurnalConfig, HourSample, generate_trace, summarize
from .common import format_table


@record
class Fig9Result:
    samples: List[HourSample]
    stats: dict

    def daily_rows(self) -> List[List[object]]:
        """Per-day peak subscribers and mean throughput (compact view)."""
        rows = []
        days = {}
        for sample in self.samples:
            days.setdefault(sample.day, []).append(sample)
        for day in sorted(days):
            entries = days[day]
            rows.append([
                day,
                max(e.active_subscribers for e in entries),
                sum(e.throughput_mbps for e in entries) / len(entries),
            ])
        return rows

    def render(self) -> str:
        header = (
            "Figure 9 - AccessParks-style hourly usage (synthetic trace)\n"
            f"peak subscribers {self.stats['peak_subscribers']}, "
            f"mean throughput {self.stats['mean_throughput_mbps']:.0f} Mbps, "
            f"peak hour {self.stats['peak_hour_of_day']}:00, "
            f"peak/trough {self.stats['peak_to_trough_ratio']:.1f}x\n")
        return header + format_table(
            ["day", "peak_subscribers", "mean_throughput_mbps"],
            self.daily_rows())


def run_fig9(config: DiurnalConfig = None, seed: int = 0) -> Fig9Result:
    samples = generate_trace(config or DiurnalConfig(), seed=seed)
    return Fig9Result(samples=samples, stats=summarize(samples))
