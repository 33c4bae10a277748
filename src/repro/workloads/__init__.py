"""Workload generators: attach storms, fleets, traffic, IoT, diurnal usage."""

from .attach_storm import AttachRecord, AttachStorm
from .fleet import AgwFleetAdapter, CohortSpec, UeFleet, binomial
from .diurnal import (
    DiurnalConfig,
    HourSample,
    diurnal_factor,
    generate_trace,
    summarize,
)
from .iot import IotWorkload
from .traffic import TrafficEngine

__all__ = [
    "AgwFleetAdapter",
    "AttachRecord",
    "AttachStorm",
    "CohortSpec",
    "DiurnalConfig",
    "HourSample",
    "IotWorkload",
    "TrafficEngine",
    "UeFleet",
    "binomial",
    "diurnal_factor",
    "generate_trace",
    "summarize",
]
