"""Known-good fixture: the clock read, outcomes set through the kernel, and
look-alike attributes on objects that are not the scheduler or an event."""


class Gauge:
    def __init__(self):
        self.now = 0.0
        self.value = 0.0
        self.ok = True

    def set(self, now, value):
        self.now = now
        self.value = value


def reply(sim, done, result):
    started = sim.now
    done.succeed(result)
    return sim.now - started


def tally(counter, sample):
    counter.value += sample
    counter.ok = sample >= 0
