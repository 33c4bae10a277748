"""The kernel against its plain-heap oracle (``reference_kernel.py``).

Random programs - timers and fire-and-forget calls at delays on both
sides of the far-buffer cutoff and far beyond it, ties, periodic calls,
cancels, callbacks that schedule more, processes that sleep,
race an event with ``any_of``, get interrupted and are watched (a watcher
logs inline when its process ends) - are played on both
kernels, stopped in legs by ``run()``, ``run(until=)`` and
``run_until_triggered``.  Bursts exercise the zero-delay lane from inside
a callback: lane calls and ``schedule(0)`` handles interleaved, some
handles cancelled, events triggered with several callbacks, and a delay
so small that ``now + d == now``, which puts a heap entry at ``now``
behind lane entries queued before it and ahead of those queued after.
Events with several callbacks are also stopped on, so a run can halt in
the middle of the lane.  The ``(now, tag)`` firing sequence, every run's
return value or error and the clock after it must be identical.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Interrupted, SimulationError, Simulator

from reference_kernel import ReferenceSimulator

# Around the far-buffer cutoff (0.25 s), and up to hours beyond it.
DELAYS = [0.0, 0.0, 0.1, 0.2499, 0.25, 0.2501, 1.0, 3.99, 4.0, 4.01, 63.9,
          64.0, 65.0, 1023.0, 1024.0, 1500.0, 4096.0]

# Lost in ``now + TINY`` once the clock is past about 1e-14 s.
TINY = 1e-30

delay = st.sampled_from(DELAYS)
burst = st.lists(st.sampled_from(["lane", "handle", "cancel", "tiny",
                                  "trigger", "chain"]),
                 min_size=1, max_size=8)
op = st.one_of(
    st.tuples(st.just("burst"), delay, burst),
    st.tuples(st.just("event"), delay, st.integers(0, 3)),
    st.tuples(st.just("stop_on"), st.integers(0, 20)),
    st.tuples(st.just("schedule"), delay, st.integers(0, 2), delay, delay),
    st.tuples(st.just("call_later"), delay),
    st.tuples(st.just("periodic"), st.sampled_from([0.1, 1.0, 5.0, 70.0]),
              st.integers(1, 4)),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("process"), st.lists(delay, min_size=1, max_size=3),
              st.booleans(), st.one_of(st.none(), delay)),
    st.tuples(st.just("watch"), st.integers(0, 20)),
    st.tuples(st.just("run")),
    st.tuples(st.just("until"), delay),
    st.tuples(st.just("triggered"), st.integers(0, 20),
              st.one_of(st.just(None), delay)),
)


def play(kernel, program):
    sim = kernel()
    log = []
    handles = []
    processes = []
    events = []

    def fire(tag, depth, near, far):
        log.append((sim.now, tag))
        if depth:
            handles.append(sim.schedule(near, fire, tag + "n", depth - 1,
                                        near, far))
            handles.append(sim.schedule(far, fire, tag + "f", depth - 1,
                                        near, far))

    def note(tag):
        log.append((sim.now, tag))

    def chain(tag, left):
        log.append((sim.now, tag))
        if left:
            sim.call_later(0.0, chain, tag + "c", left - 1)

    def fan_out(tag, callbacks):
        """An event whose every callback logs and queues a lane call."""
        ev = sim.event(tag)
        for k in range(callbacks):
            ev.add_callback(lambda e, k=k: (
                log.append((sim.now, f"{e.name}.cb{k}={e.value}")),
                sim.call_later(0.0, note, f"{e.name}.cb{k}.next")))
        events.append(ev)
        return ev

    def play_burst(tag, pattern):
        log.append((sim.now, tag))
        mine = []
        for i, kind in enumerate(pattern):
            sub = f"{tag}.{i}"
            if kind == "lane":
                sim.call_later(0.0, note, sub)
            elif kind == "handle":
                mine.append(sim.schedule(0.0, note, sub))
                handles.append(mine[-1])
            elif kind == "cancel" and mine:
                log.append(("cancel", mine.pop(0).cancel()))
            elif kind == "tiny":
                sim.call_later(TINY, note, sub)
            elif kind == "trigger":
                fan_out(sub, 3).succeed(i)
            elif kind == "chain":
                sim.call_later(0.0, chain, sub, 2)

    def ticker(tag, period, ticks):
        count = [0]

        def tick():
            count[0] += 1
            log.append((sim.now, f"{tag}.{count[0]}"))
            if count[0] == ticks:
                call.cancel()

        call = sim.schedule_periodic(period, tick)

    def sleeper(sim, tag, sleeps, race):
        try:
            for i, pause in enumerate(sleeps):
                if race:
                    poke = sim.event()
                    sim.schedule(pause / 2, poke.succeed, i)
                    yield sim.any_of([sim.timeout(pause), poke])
                else:
                    yield sim.timeout(pause)
                log.append((sim.now, f"{tag}.{i}"))
        except Interrupted as exc:
            log.append((sim.now, f"{tag}.interrupted.{exc.cause}"))
            return "interrupted"
        return tag

    for n, (kind, *args) in enumerate(program):
        tag = f"{kind}{n}"
        if kind == "schedule":
            when, depth, near, far = args
            handles.append(sim.schedule(when, fire, tag, depth, near, far))
        elif kind == "call_later":
            sim.call_later(args[0], fire, tag, 0, 0.0, 0.0)
        elif kind == "burst":
            sim.call_later(args[0], play_burst, tag, args[1])
        elif kind == "event":
            sim.call_later(args[0], fan_out(tag, args[1]).succeed, tag)
        elif kind == "periodic":
            ticker(tag, *args)
        elif kind == "cancel" and handles:
            handle = handles[args[0] % len(handles)]
            log.append(("cancel", handle.cancel()))
        elif kind == "process":
            sleeps, race, interrupt_at = args
            proc = sim.spawn(sleeper(sim, tag, sleeps, race))
            processes.append(proc)
            if interrupt_at is not None:
                sim.schedule(interrupt_at, proc.interrupt, tag)
        elif kind == "watch" and processes:
            target = processes[args[0] % len(processes)]
            target.watch(lambda ev, tag=tag: log.append((sim.now, tag)))
        elif kind in ("run", "until", "triggered", "stop_on"):
            try:
                if kind == "run":
                    result = sim.run()
                elif kind == "until":
                    result = sim.run(until=sim.now + args[0])
                elif kind == "stop_on":
                    if not events:
                        continue
                    result = sim.run_until_triggered(
                        events[args[0] % len(events)])
                elif processes:
                    target = processes[args[0] % len(processes)]
                    limit = float("inf") if args[1] is None \
                        else sim.now + args[1]
                    result = sim.run_until_triggered(target, limit)
                else:
                    continue
            except (SimulationError, Interrupted) as exc:
                result = f"{type(exc).__name__}: {exc}"
            log.append((kind, result, sim.now, sim.pending))
    log.append(("end", sim.run(), sim.pending))
    return log


@settings(max_examples=150, deadline=None)
@given(st.lists(op, max_size=30))
def test_random_programs_fire_identically_on_both_kernels(program):
    assert play(Simulator, program) == play(ReferenceSimulator, program)


def test_oracle_program_covers_every_stop_mode():
    program = [("schedule", 4.0, 2, 0.25, 64.0),
               ("process", [1.0, 1500.0], True, 2.0),
               ("process", [0.1, 0.1], False, None),
               ("periodic", 1.0, 3), ("watch", 0),
               ("until", 1.0), ("triggered", 1, None), ("watch", 1),
               ("triggered", 0, 0.25), ("triggered", 0, 4.0),
               ("until", 63.9), ("run",)]
    log = play(Simulator, program)
    assert log == play(ReferenceSimulator, program)
    stops = [entry for entry in log if entry[0] in ("until", "triggered")]
    assert stops[0][1:3] == (1.0, 1.0)
    assert stops[1][1] == "process2"
    assert stops[2][1:3] == ("SimulationError: time limit 1.25 reached "
                             "while waiting", 1.25)
    assert stops[3][1:3] == ("interrupted", 2.0)
    # A watcher logs inside the dispatch that ends its process, so before
    # the stop that waited on it; one on an ended process logs at once.
    interrupted = log.index((2.0, "process1.interrupted.process1"))
    assert log[interrupted + 1] == (2.0, "watch4")
    assert log[log.index(stops[1]) + 1] == (1.0, "watch7")


def test_oracle_program_covers_the_lane():
    program = [("until", 1.0), ("event", 0.0, 2),
               ("burst", 0.0, ["lane", "handle", "tiny", "trigger", "handle",
                               "cancel", "chain", "lane"]),
               ("stop_on", 0), ("until", 0.0), ("run",)]
    log = play(Simulator, program)
    assert log == play(ReferenceSimulator, program)
    # The stop fired after the event's two callbacks and halted the run
    # with the burst's ten zero-delay entries still queued at 1.0.
    assert ("stop_on", "event1", 1.0, 10) in log
    fired = [tag for entry in log if entry[0] == 1.0 for tag in entry[1:]]
    assert len(fired) == len(log) - 6  # every entry fired at 1.0
    # ``1.0 + TINY == 1.0``: the heap entry fires in sequence order among
    # the lane's, after the lane call queued before it and before the
    # callbacks of the event triggered after it.  The cancelled handle
    # never fires; the other one does.
    assert fired.index("burst2.0") < fired.index("burst2.2") \
        < fired.index("burst2.3.cb0=3")
    assert "burst2.1" not in fired and "burst2.4" in fired
