"""Cost of per-session rule removal: independent of how many sessions the
AGW holds.

A handover re-point is a strict delete plus an add on the egress table;
a detach is one cookie delete per table.  Both must touch only the
buckets of the session concerned (DESIGN.md §6.8).  The checks count
work - ``FlowMatch`` comparisons and executed calls - rather than time,
so they are deterministic.
"""

import sys

from repro.core.agw import AgwContext, Pipelined
from repro.dataplane import FlowMatch
from repro.net import Network
from repro.sim import Simulator


def loaded_pipelined(sessions):
    sim = Simulator()
    pipelined = Pipelined(AgwContext(sim, Network(sim), "agw-cost"))
    for i in range(sessions):
        imsi = f"imsi{i:05d}"
        pipelined.install_session(imsi, f"10.128.{i // 250}.{i % 250 + 1}",
                                  0x1000 + i, 10.0)
        pipelined.set_enb_tunnel(imsi, 0x9000 + i, "enb-a")
    return pipelined


def handover_then_detach(pipelined, imsi):
    pipelined.set_enb_tunnel(imsi, 0x7777, "enb-b")
    assert pipelined.remove_session(imsi)


def calls_executed(fn, *args):
    """Python + C calls made while running ``fn`` (a count, not a time)."""
    calls = 0

    def profiler(_frame, event, _arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profiler)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_handover_and_detach_compare_a_handful_of_matches(monkeypatch):
    pipelined = loaded_pipelined(2000)
    rules_before = pipelined.datapath_stats()["tables"]
    compared = []
    dataclass_eq = FlowMatch.__eq__

    def counting_eq(self, other):
        compared.append(1)
        return dataclass_eq(self, other)

    monkeypatch.setattr(FlowMatch, "__eq__", counting_eq)
    handover_then_detach(pipelined, "imsi01000")
    # One candidate in the probed bucket; a table scan would be ~4,000.
    assert 1 <= len(compared) <= 4
    rules_after = pipelined.datapath_stats()["tables"]
    assert ([t["rules"] for t in rules_after]
            == [2 * 1999, 1999, 2 * 1999])
    assert ([b["rules"] - a["rules"] for b, a in zip(rules_before, rules_after)]
            == [2, 1, 2])


def test_handover_and_detach_cost_is_flat_in_table_size():
    small = calls_executed(handover_then_detach, loaded_pipelined(200),
                           "imsi00100")
    large = calls_executed(handover_then_detach, loaded_pipelined(2000),
                           "imsi01000")
    assert small == large
