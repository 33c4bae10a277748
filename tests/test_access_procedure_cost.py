"""Host cost of one access procedure per RAT, pinned.

An LTE attach, a 5G registration plus its PDU session, and a WiFi
connect each run once on a warmed-up AGW under ``cProfile`` - the same
counter as the benchmark's ``host_calls`` - so the count is deterministic.
Two numbers are pinned per RAT: every call the procedure causes (UE,
radio, RPC, kernel, core), and the calls made by access management and
the three frontends, the code that translates and sequences it.

Measured on CPython 3.11: 721 / 35 (LTE), 917 / 40 (5G) and
382 / 14 (WiFi); the budgets leave about 5% for other interpreters.  The
totals were 816, 1,012 and 477 before a session's rule install and first
tunnel took 45 calls instead of 140, 990, 1,235 and 580 before an RPC
round trip, a process wake-up and a session's flow program lost their
pass-through calls, and 839, 1,046 and 492 before the span sites read
``sim.tracer`` directly.
Before the frontends became translators onto one procedure set the
procedure layer took 31, 37 and 6 calls - 5G and WiFi then ran no
overload check, attach counter, latency sample or span.

The kernel side of a whole cycle per RAT is pinned too: the processes it
creates and the entries it schedules.  A process is spent only on a
procedure that waits - the UE's and access management's stages - and a
send whose reply nobody reads is one deferred call, not a process.
"""

import os

from repro.core.agw import magmad
from repro.deploy import build, subscriber_keys
from repro.fiveg import Ue5g
from repro.sim.kernel import Process

from costs import profiled

PROCEDURE_FILES = ("mme.py", "s1ap_frontend.py", "ngap_frontend.py",
                   "radius_frontend.py")

#: (all calls, procedure-layer calls) per RAT.
BUDGET = {"lte": (758, 40), "nr": (963, 45), "wifi": (402, 15)}


def counted(run):
    """(all calls, calls in access management and the frontends)."""
    total = layer = 0
    for entry in profiled(run)[1]:
        total += entry.callcount
        path = getattr(entry.code, "co_filename", "")
        if os.path.basename(path) in PROCEDURE_FILES \
                and os.sep + "agw" + os.sep in path:
            layer += entry.callcount
    return total, layer


def multi_rat_site():
    """An AGW with an eNodeB, a gNB and a WiFi AP; returns the site, the
    AP and two 5G UEs."""
    site = build(num_ues=6, rats=("5g", "wifi"))
    nr = [Ue5g(site.sim, site.imsis[i], *subscriber_keys(i + 1),
               site.gnbs[0]) for i in (2, 3)]
    return site, site.aps[0], nr


def settle(sim, start):
    """Start a step, run until its event (if it returns one) triggers,
    then two more seconds for the messages that trail it."""
    done = start()
    if done is not None:
        sim.run_until_triggered(done, limit=sim.now + 60.0)
    sim.run(until=sim.now + 2.0)


def procedure_costs():
    site, ap, nr = multi_rat_site()
    sim = site.sim

    def lte(ue):
        return lambda: settle(sim, ue.attach)

    def registration_and_pdu(ue):
        def run():
            settle(sim, ue.register)
            settle(sim, ue.establish_pdu_session)
        return run

    def wifi(username):
        return lambda: settle(sim, lambda: ap.connect(username,
                                                      f"wifi-{username}"))

    # The first of each warms caches (dataclass plans, RNG streams, RPC
    # channels); the second is measured.
    lte(site.ues[0])()
    registration_and_pdu(nr[0])()
    wifi(site.imsis[4])()
    return {"lte": counted(lte(site.ues[1])),
            "nr": counted(registration_and_pdu(nr[1])),
            "wifi": counted(wifi(site.imsis[5]))}


def test_each_rats_procedure_stays_inside_its_call_budget():
    costs = procedure_costs()
    for rat, (total, layer) in costs.items():
        total_budget, layer_budget = BUDGET[rat]
        assert total <= total_budget, (rat, total)
        assert layer <= layer_budget, (rat, layer)


#: (processes created, most kernel entries scheduled) per cycle: LTE
#: attach + graceful detach; 5G registration + PDU session + release +
#: deregistration; WiFi connect + disconnect.  With a process per send
#: the cycles took 14 / 86, 17 / 108 and 3 / 30; with a retry timer and a
#: deadline timer per RPC call, 4 / 77, 6 / 99 and 2 / 29.
CYCLE_BUDGET = {"lte": (4, 67), "nr": (6, 85), "wifi": (2, 26)}


def _entries_scheduled(sim):
    """Entries ever scheduled: the kernel's sequence counter."""
    probe = sim.schedule(0.0, lambda: None)
    probe.cancel()
    return probe.seq


def test_each_rats_cycle_spends_a_process_only_on_waiting(monkeypatch):
    created = []
    init = Process.__init__

    def counting_init(self, *args, **kwargs):
        created.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    # No checkpoint tick inside a measured cycle.
    monkeypatch.setattr(magmad, "CHECKPOINT_INTERVAL", 3600.0)
    site, ap, nr = multi_rat_site()
    sim = site.sim

    def lte(ue):
        return [ue.attach, lambda: ue.detach(switch_off=False)]

    def nr_cycle(ue):
        return [ue.register, ue.establish_pdu_session,
                ue.release_pdu_session, ue.deregister]

    def wifi(user):
        return [lambda: ap.connect(user, f"wifi-{user}"),
                lambda: ap.disconnect(user)]

    def measured(steps):
        del created[:]
        start = _entries_scheduled(sim)
        for step in steps:
            settle(sim, step)
        # The entries numbered between the two probes.
        return len(created), _entries_scheduled(sim) - start - 1

    # The first cycle of each RAT warms up; the second is measured.
    measured(lte(site.ues[0]))
    measured(nr_cycle(nr[0]))
    measured(wifi(site.imsis[4]))
    costs = {"lte": measured(lte(site.ues[1])),
             "nr": measured(nr_cycle(nr[1])),
             "wifi": measured(wifi(site.imsis[5]))}
    assert site.ues[1].stats["attach_successes"] == 1
    assert nr[1].stats["pdu_sessions"] == 2
    assert ap.stats["disconnects"] == 2
    for rat, (processes, entries) in costs.items():
        process_budget, entry_budget = CYCLE_BUDGET[rat]
        assert processes == process_budget, (rat, processes)
        assert entries <= entry_budget, (rat, entries)
