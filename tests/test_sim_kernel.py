"""Unit tests for the discrete-event kernel."""

import random

import pytest

from repro.sim import Hook, Interrupted, SimulationError, Simulator

from reference_kernel import ReferenceSimulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, lambda: seen.append(("b", sim.now)))
    sim.schedule(1.0, lambda: seen.append(("a", sim.now)))
    sim.schedule(3.0, lambda: seen.append(("c", sim.now)))
    sim.run()
    assert seen == [("a", 1.0), ("b", 2.0), ("c", 3.0)]


def test_schedule_ties_run_fifo():
    sim = Simulator()
    seen = []
    for i in range(5):
        sim.schedule(1.0, seen.append, i)
    sim.run()
    assert seen == [0, 1, 2, 3, 4]


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    stopped = sim.run(until=4.0)
    assert stopped == 4.0
    assert sim.now == 4.0
    # Event still queued; continuing reaches it.
    sim.run()
    assert sim.now == 10.0


def test_run_until_advances_clock_when_queue_drains_early():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=5.0)
    assert sim.now == 5.0


def test_process_timeout_and_return_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.5)
        return 42

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.triggered and p.ok
    assert p.value == 42
    assert sim.now == 1.5


def test_timeout_delivers_value():
    sim = Simulator()
    got = []

    def proc(sim):
        value = yield sim.timeout(1.0, "payload")
        got.append(value)

    sim.spawn(proc(sim))
    sim.run()
    assert got == ["payload"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_process_waits_on_event_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def proc(sim):
        value = yield ev
        got.append((sim.now, value))

    sim.spawn(proc(sim))
    sim.schedule(3.0, ev.succeed, "hello")
    sim.run()
    assert got == [(3.0, "hello")]


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_waiting_on_failed_event_raises_in_process():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def proc(sim):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.spawn(proc(sim))
    sim.schedule(1.0, ev.fail, RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_waiting_on_already_triggered_event():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    got = []

    def proc(sim):
        value = yield ev
        got.append(value)

    sim.spawn(proc(sim))
    sim.run()
    assert got == ["early"]


@pytest.mark.parametrize("outcome", ["succeed", "fail"])
def test_a_watcher_runs_inline_at_the_trigger_before_any_callback(outcome):
    sim = Simulator()
    ev = sim.event()
    seen = []
    ev.add_callback(lambda e: seen.append(("callback", sim.now)))
    ev.watch(lambda e: seen.append(("watch", sim.now, e.ok)))
    ev.watch(lambda e: seen.append(("watch2", sim.now, e.ok)))
    sim.run(until=1.0)
    if outcome == "succeed":
        ev.succeed("v")
    else:
        ev.fail(RuntimeError("boom"))
    ok = outcome == "succeed"
    # Inline: both watchers ran inside the trigger, in order, before the
    # callback they were registered after.
    assert seen == [("watch", 1.0, ok), ("watch2", 1.0, ok)]
    sim.run()
    assert seen[2:] == [("callback", 1.0)]


def test_a_watcher_on_a_triggered_event_runs_at_once_and_only_once():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    seen = []
    ev.watch(lambda e: seen.append(e.value))
    assert seen == ["early"]
    sim.run()
    assert seen == ["early"]
    late = sim.event()
    late.watch(seen.append)
    late.succeed()
    sim.run()
    with pytest.raises(SimulationError):
        late.succeed()
    assert seen == ["early", late]


def test_process_waits_on_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(2.0)
        return "child-result"

    def parent(sim):
        result = yield sim.spawn(child(sim))
        return ("parent-saw", result)

    p = sim.spawn(parent(sim))
    sim.run()
    assert p.value == ("parent-saw", "child-result")


def test_process_exception_fails_process_event():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("broken")

    p = sim.spawn(bad(sim))
    sim.run()
    assert p.triggered and not p.ok
    assert isinstance(p.value, ValueError)


def test_exception_propagates_to_waiting_parent():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        raise ValueError("child broke")

    def parent(sim):
        try:
            yield sim.spawn(child(sim))
        except ValueError as exc:
            return f"caught: {exc}"

    p = sim.spawn(parent(sim))
    sim.run()
    assert p.value == "caught: child broke"


def test_interrupt_during_timeout():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
            log.append("finished")
        except Interrupted as exc:
            log.append(("interrupted", sim.now, exc.cause))

    p = sim.spawn(sleeper(sim))
    sim.schedule(5.0, p.interrupt, "reason")
    sim.run()
    assert log == [("interrupted", 5.0, "reason")]


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    p = sim.spawn(quick(sim))
    sim.run()
    p.interrupt()  # must not raise
    sim.run()
    assert p.ok


def test_uncaught_interrupt_fails_process():
    sim = Simulator()

    def sleeper(sim):
        yield sim.timeout(100.0)

    p = sim.spawn(sleeper(sim))
    sim.schedule(1.0, p.interrupt)
    sim.run()
    assert p.triggered and not p.ok
    assert isinstance(p.value, Interrupted)


def test_any_of_first_wins():
    sim = Simulator()

    def proc(sim):
        fast = sim.timeout(1.0, "fast")
        slow = sim.timeout(5.0, "slow")
        result = yield sim.any_of([fast, slow])
        return list(result.values())

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == ["fast"]
    assert sim.now == 5.0  # the slow timeout still fires


def test_a_triggered_any_of_holds_no_child():
    sim = Simulator()
    winner, loser = sim.event("winner"), sim.event("loser")
    race = sim.any_of([winner, loser])
    winner.succeed("won")
    sim.run()
    # The loser's callback list still holds the race; the race no longer
    # holds the loser, so no cycle outlives the procedure that raced.
    assert race.value == {winner: "won"} and race.events == []


def test_any_of_empty_completes_immediately():
    sim = Simulator()

    def proc(sim):
        result = yield sim.any_of([])
        return result

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == {}


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad(sim):
        yield 42

    p = sim.spawn(bad(sim))
    sim.run()
    assert not p.ok
    assert isinstance(p.value, SimulationError)


def test_run_until_triggered_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.0)
        return "done"

    p = sim.spawn(proc(sim))
    assert sim.run_until_triggered(p) == "done"


def test_run_until_triggered_deadlock_detection():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_triggered(ev)


def test_nested_processes_deep_chain():
    sim = Simulator()

    def level(sim, n):
        if n == 0:
            yield sim.timeout(1.0)
            return 0
        result = yield sim.spawn(level(sim, n - 1))
        return result + 1

    p = sim.spawn(level(sim, 20))
    sim.run()
    assert p.value == 20


# -- cancelable handles, far buffer, compaction -------------------------------


def test_cancel_revokes_callback():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    assert handle.active
    assert handle.cancel() is True
    assert not handle.active
    assert handle.cancel() is False  # second cancel is a no-op
    sim.run()
    assert fired == []


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    fired = []
    handle = sim.schedule(0.1, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    assert not handle.active
    assert handle.cancel() is False


def test_cancelled_timer_does_not_extend_drain():
    """A revoked far timer must not hold the clock hostage until its
    original deadline (the guard-timer rot pathology)."""
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "live")
    rot = sim.schedule(100.0, fired.append, "rot")
    rot.cancel()
    assert sim.run() == 1.0
    assert fired == ["live"]
    assert sim.pending == 0


def test_event_order_identical_around_the_far_cutoff():
    """The far buffer is a container, not an ordering authority: firing
    order (including FIFO ties) must match the plain-heap kernel exactly."""
    delays = [0.1, 0.24, 0.25, 0.26, 1.0, 3.99, 4.0, 65.0, 1025.0,
              0.25, 1.0, 0.0, 2048.0, 63.9, 0.25]
    runs = []
    for kernel in (Simulator, ReferenceSimulator):
        sim = kernel()
        seen = []
        for i, d in enumerate(delays):
            sim.schedule(d, seen.append, (d, i))
        sim.run()
        runs.append(seen)
    assert runs[0] == runs[1]


def test_event_order_identical_with_nested_schedules():
    def drive(kernel):
        sim = kernel()
        seen = []

        def tick(tag, depth):
            seen.append((sim.now, tag))
            if depth:
                sim.schedule(0.2, tick, tag + "n", depth - 1)
                sim.schedule(1.7, tick, tag + "f", depth - 1)

        for i, d in enumerate([0.0, 0.3, 5.0, 70.0]):
            sim.schedule(d, tick, str(i), 3)
        sim.run()
        return seen

    assert drive(Simulator) == drive(ReferenceSimulator)


def test_release_recycles_without_misfiring():
    """A cancelled far entry stays queued until a flush or sweep drops it;
    it must never fire, delay the live entries around it or hold the
    clock."""
    sim = Simulator()
    fired = []
    stale = sim.schedule(1.0, fired.append, "stale")
    stale.cancel()
    for i in range(10):
        sim.schedule(0.5 + i, fired.append, i)
    assert sim.run() == 9.5
    assert fired == list(range(10))
    assert sim.pending == 0


def test_cancelled_periodic_call_revokes_its_queued_tick():
    """Cancelling a ticker between ticks revokes the tick already queued:
    it is no longer pending and a drained run ends at the last live event.
    Ticks stay invisible to ``Hook.scheduled``."""
    scheduled = []

    class Watch(Hook):
        def scheduled(self, handle):
            scheduled.append(handle.when)
            return handle

    sim = Simulator()
    sim.add_hook(Watch())
    ticks = []
    call = sim.schedule_periodic(10.0, lambda: ticks.append(sim.now))
    sim.schedule(25.0, lambda: None)
    sim.run(until=25.0)
    assert call.cancel() is True
    assert sim.pending == 0
    assert sim.run() == 25.0
    assert ticks == [10.0, 20.0]
    assert scheduled == [25.0]


def test_call_later_fire_and_forget():
    sim = Simulator()
    fired = []
    assert sim.call_later(1.0, fired.append, "near") is None
    assert sim.call_later(50.0, fired.append, "far") is None
    sim.run()
    assert fired == ["near", "far"]
    with pytest.raises(ValueError):
        sim.call_later(-1.0, fired.append, "no")


def test_pending_and_queue_depth_accounting():
    sim = Simulator()
    handles = [sim.schedule(1.0 + i, lambda: None) for i in range(3)]
    assert sim.pending == 3
    assert sim.queue_depth() == 3
    handles[0].cancel()
    assert sim.pending == 2  # live count drops immediately on cancel
    sim.run()
    assert sim.pending == 0
    assert sim.queue_depth() == 0


def test_zero_delay_entries_are_pending_and_queued():
    """Zero-delay calls and a trigger's callbacks sit in the lane, which
    ``pending`` and ``queue_depth()`` count like any other entry."""
    sim = Simulator()
    fired = []
    sim.call_later(0.0, fired.append, "lane")
    handle = sim.schedule(0.0, fired.append, "handle")
    done = sim.event()
    done.add_callback(lambda ev: fired.append("cb1"))
    done.add_callback(lambda ev: fired.append("cb2"))
    assert (sim.pending, sim.queue_depth()) == (2, 2)
    done.succeed()
    sim.call_later(0.0, fired.append, "after")
    assert (sim.pending, sim.queue_depth()) == (5, 5)
    handle.cancel()
    assert (sim.pending, sim.queue_depth()) == (4, 5)
    assert sim.run() == 0.0
    assert fired == ["lane", "cb1", "cb2", "after"]
    assert (sim.pending, sim.queue_depth()) == (0, 0)


def test_mass_cancellation_compacts_storage():
    """Cancelling en masse must reclaim memory via the amortized sweep,
    not park corpses in the queue until their 50 s deadline."""
    sim = Simulator()
    handles = [sim.schedule(50.0, lambda: None) for _ in range(20_000)]
    for h in handles:
        h.cancel()
    assert sim.pending == 0
    assert sim.queue_depth() < 20_000
    assert sim.run() == 0.0  # nothing live: the clock never advances


@pytest.mark.parametrize("order", ["oldest", "newest", "shuffled"])
def test_queue_stays_within_twice_the_live_count(order):
    """Dead entries are swept once they outnumber the live ones, so after
    any cancel the queue holds at most ``2 * pending`` plus a small floor -
    heap and far buffer alike, before and after a partial run."""
    sim = Simulator()
    handles = [sim.schedule(0.1 if i % 5 == 0 else 50.0 + i, lambda: None)
               for i in range(5_000)]
    victims = handles[:4_000] if order == "oldest" else handles[1_000:]
    if order == "shuffled":
        victims = random.Random(7).sample(handles, 4_000)
    for i, handle in enumerate(victims):
        if i == 2_000:
            sim.run(until=1.0)  # fires the live near entries
        handle.cancel()
        assert sim.queue_depth() <= 2 * sim.pending + 65
