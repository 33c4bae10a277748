"""Discrete-event simulation substrate.

Public surface:

- :class:`~repro.sim.kernel.Simulator` and the awaitables
  (:class:`~repro.sim.kernel.Event`, :class:`~repro.sim.kernel.Timeout`,
  :class:`~repro.sim.kernel.Process`, :class:`~repro.sim.kernel.AnyOf`,
  :class:`~repro.sim.kernel.AllOf`).  One dispatch loop serves
  ``run()``, ``run(until=)`` and ``run_until_triggered()``: every stop
  condition is a queue entry.
- :class:`~repro.sim.kernel.Hook`, the one observation seam on that loop
  (``Simulator.add_hook``): scheduled handles, dispatches, run start/end.
  The sanitizer and the profiler are hooks and can be on together.
- :class:`~repro.sim.resources.Resource`, :class:`~repro.sim.resources.Store`,
  :class:`~repro.sim.resources.Signal` for coordination.
- :class:`~repro.sim.cpu.CpuModel` for the calibrated AGW CPU model.
- :class:`~repro.sim.monitor.Monitor` for experiment time series.
- :class:`~repro.sim.rng.RngRegistry` for reproducible randomness.
- :class:`~repro.sim.sansim.SimSan` for the opt-in runtime sanitizer
  (``Simulator(sanitizer=SimSan())``), a hook.
"""

from .kernel import (
    AllOf,
    AnyOf,
    Event,
    Hook,
    Interrupted,
    PeriodicCall,
    Process,
    ScheduledCall,
    SimulationError,
    Simulator,
    Timeout,
)
from .cpu import CpuModel
from .monitor import Monitor, Series, median, percentile
from .resources import Resource, Signal, Store
from .rng import RngRegistry
from .sansim import SimSan

__all__ = [
    "AllOf",
    "AnyOf",
    "CpuModel",
    "Event",
    "Hook",
    "Interrupted",
    "Monitor",
    "PeriodicCall",
    "Process",
    "Resource",
    "RngRegistry",
    "ScheduledCall",
    "Series",
    "Signal",
    "SimSan",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "median",
    "percentile",
]
