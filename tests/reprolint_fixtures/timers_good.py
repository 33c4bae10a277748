"""timer-leak fixture twin: every pattern here is clean.

Each function is one blessed ownership shape: the ``finally`` revoke
(the shipped PR 6 fix), escape-to-owner stores, the liveness-guarded
conditional cancel, and fire-and-forget on ``call_later()``.
"""


class UeFixed:
    def __init__(self, sim, enb):
        self.sim = sim
        self.enb = enb
        self._sr_done = None
        self._guard = None
        self._retry = {}

    def service_request_fixed(self):
        self._sr_done = self.sim.event("sr-inner")
        guard = self.sim.event("sr-guard")
        guard_timer = self.sim.schedule(10.0, guard.succeed)
        try:
            race = yield self.sim.any_of([self._sr_done, guard])
        finally:
            guard_timer.cancel()
        return self._sr_done in race

    def escape_to_attribute(self):
        self._guard = self.sim.schedule(10.0, self._probe)

    def escape_to_local_then_attribute(self):
        timer = self.sim.schedule(10.0, self._probe)
        self._guard = timer

    def escape_to_dict(self, seq):
        handle = self.sim.schedule(0.25, self._probe)
        self._retry[seq] = handle

    def escape_by_return(self):
        return self.sim.schedule(1.0, self._probe)

    def escape_by_return_of_local(self):
        timer = self.sim.schedule(1.0, self._probe)
        return timer

    def guarded_conditional_cancel(self, maybe):
        timer = None
        if maybe:
            timer = self.sim.schedule(1.0, self._probe)
        try:
            yield self.sim.timeout(0.5)
        finally:
            if timer is not None:
                timer.cancel()

    def fire_and_forget(self):
        self.sim.call_later(5.0, self._probe)

    def straight_line_release(self):
        probe = self.sim.schedule(0.25, self._probe)
        expire = self.sim.schedule(10.0, self._probe)
        probe.cancel()
        expire.cancel()

    def _probe(self):
        pass
