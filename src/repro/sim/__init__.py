"""Discrete-event simulation substrate.

Public surface:

- :class:`~repro.sim.kernel.Simulator` and the awaitables
  (:class:`~repro.sim.kernel.Event`, :class:`~repro.sim.kernel.Timeout`,
  :class:`~repro.sim.kernel.Process`, :class:`~repro.sim.kernel.AnyOf`).
  One dispatch loop serves ``run()``, ``run(until=)`` and
  ``run_until_triggered()``: every stop condition is a queue entry.
- :class:`~repro.sim.kernel.Hook`, the one observation seam on that loop
  (``Simulator.add_hook``): scheduled handles, dispatches, run start/end.
  The sanitizer and the profiler are hooks and can be on together.
- :class:`~repro.sim.cpu.CpuModel` for the calibrated AGW CPU model.
- :class:`~repro.sim.monitor.Monitor` for experiment time series.
- :class:`~repro.sim.rng.RngRegistry` for reproducible randomness.

The opt-in runtime sanitizer, :class:`~repro.sim.sansim.SimSan`
(``Simulator(sanitizer=SimSan())``), is a hook too; import it from
:mod:`repro.sim.sansim`, since a plain run does not load it.
"""

from .kernel import (
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
from .rng import RngRegistry

__all__ = [
    "AnyOf",
    "CpuModel",
    "Event",
    "Hook",
    "Interrupted",
    "Monitor",
    "PeriodicCall",
    "Process",
    "RngRegistry",
    "ScheduledCall",
    "Series",
    "SimulationError",
    "Simulator",
    "Timeout",
    "median",
    "percentile",
]
