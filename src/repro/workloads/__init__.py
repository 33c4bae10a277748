"""Workload generators: attach storms, fleets, traffic, IoT, diurnal usage.

Import each generator from its own module (``from
repro.workloads.fleet import UeFleet``).
"""
