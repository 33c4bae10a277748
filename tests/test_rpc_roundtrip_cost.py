"""Host cost of one RPC round trip, and the one timer behind it.

A call sends its request inline and arms a single timer: the next
retransmission while that lands before the deadline, then the deadline
itself.  The request and the reply each walk a hop plan compiled once per
route.  The round trip below (a call, two hops out, a plain handler, two
hops back, the caller woken) is counted in executed calls and kernel
entries, never time, so the checks are deterministic.  With a retry
timer and a deadline timer per call and a route walked hop by hop it
cost 88.9 calls and 5 entries; with the reply sent through two helper
frames, the timer armed through two, and the caller woken through two,
48.8 calls.
"""

from repro.net import Link, Network, RpcChannel, RpcError, RpcServer
from repro.net.rpc import RETRY_INTERVAL
from repro.sim import Hook, RngRegistry, Simulator

from costs import calls, entries_scheduled

CALLS = 10
#: Calls and kernel entries per lossless two-hop round trip, the first
#: call's route compilation amortised over ``CALLS``.  Measured at 36.8
#: calls on CPython 3.11; the budget leaves 5% for other interpreters and
#: fails the 48.8 of a round trip that crosses the pass-through frames.
ROUNDTRIP_BUDGET = (38.6, 4.0)


def two_hops(loss=0.0):
    sim = Simulator()
    net = Network(sim, RngRegistry(3))
    net.connect("client", "mid", Link(latency=0.001, loss=loss))
    net.connect("mid", "server", Link(latency=0.001, loss=loss))
    server = RpcServer(sim, net, "server")
    channel = RpcChannel(sim, net, "client", "server")
    return sim, server, channel


def test_a_lossless_two_hop_round_trip_stays_inside_its_budget():
    sim, server, channel = two_hops()
    server.register("svc", "echo", lambda request: request)

    def round_trips():
        return [sim.run_until_triggered(channel.call("svc", "echo", i))
                for i in range(CALLS)]

    start = entries_scheduled(sim)
    spent = calls(round_trips)
    # The entries numbered between the two probes.
    entries = entries_scheduled(sim) - start - 1
    assert channel.stats["ok"] == CALLS
    assert sim.pending == 0
    call_budget, entry_budget = ROUNDTRIP_BUDGET
    assert spent / CALLS <= call_budget, spent / CALLS
    assert entries / CALLS <= entry_budget, entries / CALLS


class TimerLog(Hook):
    """Every handle ``sim.schedule`` hands out, with whether each earlier
    one was still pending at that moment."""

    def __init__(self):
        self.armed = []

    def scheduled(self, handle):
        overlap = any(earlier.active for earlier, _, _, _ in self.armed)
        self.armed.append((handle, handle.fn.__name__, handle.when, overlap))
        return handle


def test_a_lossy_call_rearms_one_timer_and_expires_at_its_deadline():
    sim, server, channel = two_hops(loss=0.5)
    never = sim.event("never")

    def stalled(request):
        yield never  # reached or not, the request is never answered

    server.register("svc", "stall", stalled)
    sim.run(until=0.1)
    log = TimerLog()
    sim.add_hook(log)
    expiry = sim.now + 2.0
    done = channel.call("svc", "stall", None, deadline=2.0)
    failed = []
    done.add_callback(lambda ev: failed.append((sim.now, ev.value)))
    sim.run()
    # Retransmissions every retry interval while one lands before the
    # deadline, each timer armed by the one before it as that one fires.
    retries = []
    due = 0.1
    while due + RETRY_INTERVAL < expiry:
        due += RETRY_INTERVAL
        retries.append(due)
    names = [name for _, name, _, _ in log.armed]
    assert names == ["_retry"] * len(retries) + ["_expire"]
    assert [when for _, _, when, _ in log.armed] == retries + [expiry]
    assert not any(overlap for _, _, _, overlap in log.armed)
    assert channel.stats["retries"] == len(retries)
    assert channel.stats["deadline_exceeded"] == 1
    assert channel.pending_calls() == 0
    (when, error), = failed
    assert when == expiry
    assert isinstance(error, RpcError)
    assert error.code == RpcError.DEADLINE_EXCEEDED


def test_a_reply_landing_exactly_at_expiry_beats_the_deadline():
    # One 0.5 s hop and a 1 s deadline: the reply to the first send is
    # scheduled at 0.5 for 1.0; the deadline is armed at the last
    # retransmission, 0.75, for the same instant, and so runs after it.
    sim = Simulator()
    net = Network(sim, RngRegistry(3))
    net.connect("client", "server", Link(latency=0.5))
    server = RpcServer(sim, net, "server")
    channel = RpcChannel(sim, net, "client", "server")
    server.register("svc", "echo", lambda request: request)
    done = channel.call("svc", "echo", "late", deadline=1.0)
    answered = []
    done.add_callback(lambda ev: answered.append((sim.now, ev.ok, ev.value)))
    sim.run()
    assert answered == [(1.0, True, "late")]
    assert channel.stats["retries"] == 3
    assert channel.stats["deadline_exceeded"] == 0
    assert channel.pending_calls() == 0
