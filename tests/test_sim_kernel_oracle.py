"""The kernel against its plain-heap oracle (``reference_kernel.py``).

Random programs - timers and fire-and-forget calls at delays spanning
every timer-wheel level and their boundaries, ties, periodic calls,
cancels and releases, callbacks that schedule more, processes that sleep,
race an event with ``any_of`` and get interrupted - are played on both
kernels, stopped in legs by ``run()``, ``run(until=)`` and
``run_until_triggered``.  The ``(now, tag)`` firing sequence, every run's
return value or error and the clock after it must be identical.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Interrupted, SimulationError, Simulator

from reference_kernel import ReferenceSimulator

# Around the wheel cutoff (0.25 s) and the level widths (4, 64, 1024 s).
DELAYS = [0.0, 0.0, 0.1, 0.2499, 0.25, 0.2501, 1.0, 3.99, 4.0, 4.01, 63.9,
          64.0, 65.0, 1023.0, 1024.0, 1500.0, 4096.0]

delay = st.sampled_from(DELAYS)
op = st.one_of(
    st.tuples(st.just("schedule"), delay, st.integers(0, 2), delay, delay),
    st.tuples(st.just("call_later"), delay),
    st.tuples(st.just("periodic"), st.sampled_from([0.1, 1.0, 5.0, 70.0]),
              st.integers(1, 4)),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("release"), st.integers(0, 50)),
    st.tuples(st.just("process"), st.lists(delay, min_size=1, max_size=3),
              st.booleans(), st.one_of(st.none(), delay)),
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

    def fire(tag, depth, near, far):
        log.append((sim.now, tag))
        if depth:
            handles.append(sim.schedule(near, fire, tag + "n", depth - 1,
                                        near, far))
            handles.append(sim.schedule(far, fire, tag + "f", depth - 1,
                                        near, far))

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
        elif kind == "periodic":
            ticker(tag, *args)
        elif kind in ("cancel", "release") and handles:
            handle = handles[args[0] % len(handles)]
            if kind == "cancel":
                log.append(("cancel", handle.cancel()))
            else:
                handles.remove(handle)  # the handle is dead after release
                log.append(("release", handle.release()))
        elif kind == "process":
            sleeps, race, interrupt_at = args
            proc = sim.spawn(sleeper(sim, tag, sleeps, race))
            processes.append(proc)
            if interrupt_at is not None:
                sim.schedule(interrupt_at, proc.interrupt, tag)
        elif kind in ("run", "until", "triggered"):
            try:
                if kind == "run":
                    result = sim.run()
                elif kind == "until":
                    result = sim.run(until=sim.now + args[0])
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
               ("periodic", 1.0, 3),
               ("until", 1.0), ("triggered", 1, None),
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
