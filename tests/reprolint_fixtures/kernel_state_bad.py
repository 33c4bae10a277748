"""Known-bad fixture: the clock and event outcomes written outside the kernel."""

from repro.sim import Event


def warp(sim, site):
    sim.now = 10.0  # CLOCK-MARKER-1
    site.sim.now += 1.0  # CLOCK-MARKER-2


def fake_reply(sim, channel):
    done = sim.event("reply")
    done.value = "ok"  # OUTCOME-MARKER-1
    done.triggered = True  # OUTCOME-MARKER-2


def fail_quietly(record, exc):
    record.event.ok = False  # OUTCOME-MARKER-3
    record.event.fail(exc)


def mark(thing):
    thing.triggered = True  # OUTCOME-MARKER-4


class Latch(Event):
    def open(self, value):
        self.value = value  # OUTCOME-MARKER-5
