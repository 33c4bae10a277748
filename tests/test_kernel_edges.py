"""Kernel edge cases not covered by the basic suite."""

import pytest

from repro.sim import (
    AllOf,
    Interrupted,
    SimulationError,
    Simulator,
)


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(5.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [5.0]


def test_schedule_at_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(str(exc))

    sim.schedule(1.0, nested)
    sim.run()
    assert errors and "reentrant" in errors[0]


@pytest.mark.parametrize("nested", [
    lambda sim: sim.run(),
    lambda sim: sim.run(until=sim.now + 0.5),
    lambda sim: sim.run_until_triggered(sim.timeout(0.5)),
])
def test_every_run_entry_point_refuses_reentry(nested):
    sim = Simulator()
    fired = []
    errors = []

    def inner():
        fired.append(sim.now)
        depth = sim.queue_depth()
        try:
            nested(sim)
        except SimulationError as exc:
            errors.append(str(exc))
        # Nothing ran under the outer loop's feet; only what the nested
        # call itself scheduled (its timeout) was added.
        assert sim.now == 1.0 and fired == [1.0]
        assert sim.queue_depth() - depth <= 1

    sim.schedule(1.0, inner)
    sim.schedule(1.2, fired.append, "later")
    sim.schedule(3.0, fired.append, "last")
    assert sim.run(until=2.0) == 2.0
    assert errors and "reentrant" in errors[0]
    assert fired == [1.0, "later"]
    assert sim.run() == 3.0
    assert fired == [1.0, "later", "last"]


def test_run_until_before_now_is_refused_with_events_queued():
    sim = Simulator()
    fired = []
    sim.schedule(12.0, fired.append, "x")
    assert sim.run(until=10.0) == 10.0
    with pytest.raises(ValueError, match="past"):
        sim.run(until=5.0)
    assert sim.now == 10.0
    assert sim.run() == 12.0 and fired == ["x"]


def test_run_until_before_now_is_refused_when_drained():
    sim = Simulator()
    assert sim.run(until=5.0) == 5.0
    with pytest.raises(ValueError, match="past"):
        sim.run(until=2.0)
    assert sim.now == 5.0
    assert sim.run(until=5.0) == 5.0  # the same instant is fine


def test_all_of_failure_fails_composite():
    sim = Simulator()
    caught = []

    def proc(sim):
        good = sim.timeout(1.0)
        bad = sim.event()
        sim.schedule(0.5, bad.fail, RuntimeError("child failed"))
        try:
            yield sim.all_of([good, bad])
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.spawn(proc(sim))
    sim.run()
    assert caught == ["child failed"]


def test_all_of_empty_completes_immediately():
    sim = Simulator()

    def proc(sim):
        result = yield sim.all_of([])
        return result

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == {}


def test_interrupt_while_waiting_on_plain_event():
    sim = Simulator()
    ev = sim.event()
    log = []

    def waiter(sim):
        try:
            yield ev
        except Interrupted as exc:
            log.append(exc.cause)
            return "interrupted"

    p = sim.spawn(waiter(sim))
    sim.schedule(1.0, p.interrupt, "stop-now")
    sim.run()
    assert p.value == "interrupted"
    assert log == ["stop-now"]
    # The original event firing later must not resurrect the process.
    ev.succeed("late")
    sim.run()
    assert p.value == "interrupted"


def test_interrupted_process_event_after_detached_target_fires():
    """After an interrupt, the old wait target completing is ignored."""
    sim = Simulator()

    def waiter(sim):
        try:
            yield sim.timeout(10.0)
        except Interrupted:
            yield sim.timeout(1.0)
            return "recovered"

    p = sim.spawn(waiter(sim))
    sim.schedule(2.0, p.interrupt)
    sim.run()
    assert p.value == "recovered"
    assert sim.now >= 10.0  # the detached timeout still fired harmlessly


def test_run_on_empty_queue_fires_nothing():
    sim = Simulator()
    assert sim.run() == 0.0
    assert sim.pending == 0 and sim.queue_depth() == 0


def test_process_waits_on_already_failed_event():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("pre-failed"))

    def proc(sim):
        try:
            yield ev
        except ValueError as exc:
            return f"caught {exc}"

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == "caught pre-failed"


def test_event_failed_with_non_exception_via_callback_path():
    sim = Simulator()
    ev = sim.event()

    def proc(sim):
        try:
            yield ev
        except SimulationError as exc:
            return "wrapped"

    p = sim.spawn(proc(sim))
    # Bypass fail()'s type check to simulate an internal misuse.
    ev._trigger(False, "not-an-exception")
    sim.run()
    assert p.value == "wrapped"
