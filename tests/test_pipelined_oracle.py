"""Session rule programming equals the one-mod-at-a-time reference.

Random sequences of install, first tunnel, handover, rate change,
removal and re-install run, inside and outside ``batch()`` (some batches
abort), on ``Pipelined`` and on ``reference_pipelined.ReferencePipelined``.
After every step both must hold the same rules per table (priority,
match, actions, cookie, in order), the same meters, the same switch and
``datapath_stats()`` counters and the same bookkeeping, and agree on
every live session's fluid walk, both ways, and its cookie stats.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agw import AgwContext, Pipelined
from repro.dataplane import StatsRequest, gtpu_encap, ip_packet
from repro.net import Network
from repro.sim import Simulator

from reference_pipelined import ReferencePipelined

IMSIS = ("imsi1", "imsi2", "imsi3", "imsi4")


class Abort(Exception):
    """Raised inside a batch to roll it back."""


steps = st.one_of(
    st.tuples(st.just("install"), st.sampled_from(IMSIS),
              st.integers(0, 3),                      # address / TEID pick
              st.one_of(st.none(), st.sampled_from([0.0, 0.5, 20.0]),
                        st.floats(1e-9, 1e3)),
              st.sampled_from([None, "internet", "gtpa"]),
              st.sampled_from([1, 5, 9, 42])),
    st.tuples(st.just("tunnel"), st.sampled_from(IMSIS),
              st.integers(0, 0xFFFF), st.sampled_from(["enb-a", "enb-b"])),
    st.tuples(st.just("rate"), st.sampled_from(IMSIS),
              st.sampled_from([0.0, 1e-6, 5.0, 100.0])),
    st.tuples(st.just("remove"), st.sampled_from(IMSIS)),
)
programs = st.lists(
    st.one_of(steps.map(lambda step: ("step", step)),
              st.tuples(st.just("batch"), st.lists(steps, max_size=8),
                        st.booleans())),
    max_size=20)


def run_step(pipelined, step):
    """The step's outcome: its result, or the type of what it raised."""
    name, imsi, *args = step
    try:
        if name == "install":
            pick, rate, egress, qci = args
            pipelined.install_session(imsi, f"10.0.0.{pick}", 0x100 + pick,
                                      rate, egress, qci)
            return None
        if name == "tunnel":
            return pipelined.set_enb_tunnel(imsi, *args)
        if name == "rate":
            return pipelined.set_session_rate(imsi, *args)
        return pipelined.remove_session(imsi)
    except KeyError as error:
        return type(error)


def run(pipelined, item):
    kind, *body = item
    if kind == "step":
        return run_step(pipelined, body[0])
    batch, abort = body
    outcomes = []
    try:
        with pipelined.batch():
            outcomes = [run_step(pipelined, step) for step in batch]
            if abort:
                raise Abort
    except Abort:
        outcomes.append(Abort)
    return outcomes


def state(pipelined):
    switch = pipelined.switch
    rules = [[(r.priority, r.match, r.actions, r.cookie) for r in t.rules()]
             for t in switch.tables]
    meters = {i: (m.rate_mbps, m.burst_bytes)
              for i, m in sorted(switch.meters.items())}
    return (rules, meters, dict(switch.stats), pipelined.datapath_stats(),
            pipelined.installed_imsis(), dict(pipelined.stats))


def live_views(pipelined):
    """Per live session: its downlink and uplink fluid walks and its
    cookie stats (these count lookups, so both sides take them)."""
    views = []
    for imsi in pipelined.installed_imsis():
        flows = pipelined.session(imsi)
        switch = pipelined.switch
        uplink = gtpu_encap(ip_packet(flows.ue_ip, "8.8.8.8"),
                            flows.agw_teid, "enb", "agw")
        stats = switch.apply(StatsRequest(cookie=imsi))
        views.append((
            imsi,
            pipelined.admitted_downlink_rate(imsi, 50.0),
            switch.evaluate_fluid(ip_packet("8.8.8.8", flows.ue_ip),
                                  flows.egress_port, 50.0),
            switch.evaluate_fluid(uplink, "ran", 50.0),
            [(e.table_id, e.cookie, e.priority, e.packets, e.bytes)
             for e in stats.entries]))
    return views


@settings(max_examples=200, deadline=None)
@given(programs)
def test_session_programming_equals_the_reference(program):
    sim = Simulator()
    product = Pipelined(AgwContext(sim, Network(sim), "agw-o"))
    reference = ReferencePipelined("agw-o", lambda: sim.now)
    for item in program:
        assert run(product, item) == run(reference, item)
        assert state(product) == state(reference)
        assert live_views(product) == live_views(reference)
        assert state(product) == state(reference)
