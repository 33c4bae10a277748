"""The cost tests' one call counter: executed Python + C calls, by cProfile.

A call count is deterministic where a time is not, and it is the
benchmark's ``host_calls`` counter.  ``sys.setprofile`` counts the same
calls plus one (the ``setprofile(None)`` that ends its count), a constant
that cancels in every budget that used it.

Both entry points collect garbage first: finalizers of an earlier test's
garbage, run by a collection inside the counted call, would count as its
calls.
"""

import cProfile
import gc


def profiled(fn, *args, **kwargs):
    """``(result, entries)``: ``fn``'s result and cProfile's per-function
    entries for the calls it made (``entry.code``, ``entry.callcount``)."""
    gc.collect()
    profiler = cProfile.Profile()
    result = profiler.runcall(fn, *args, **kwargs)
    # The profiler's own disable() is the one entry that is not fn's.
    return result, [entry for entry in profiler.getstats()
                    if "_lsprof.Profiler" not in str(entry.code)]


def counted(fn, *args, **kwargs):
    """``(result, calls)``: ``fn``'s result and the calls it executed."""
    result, entries = profiled(fn, *args, **kwargs)
    return result, sum(entry.callcount for entry in entries)


def calls(fn, *args, **kwargs):
    """The calls ``fn`` executed."""
    return counted(fn, *args, **kwargs)[1]


def entries_scheduled(sim):
    """Entries ``sim`` has ever scheduled, by the kernel's sequence
    counter; the probe itself takes one number."""
    probe = sim.schedule(0.0, lambda: None)
    probe.cancel()
    return probe.seq
