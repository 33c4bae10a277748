"""Cost of per-session rule programming: pinned per step, and for
removal independent of how many sessions the AGW holds.

A handover re-point is a strict delete plus an add on the egress table;
a detach is one cookie delete per table.  Both must touch only the
buckets of the session concerned (DESIGN.md §6.8).  The checks count
work - ``FlowMatch`` comparisons and executed calls - rather than time,
so they are deterministic.
"""

import pytest

from repro.core.agw import AgwContext, Pipelined
from repro.dataplane import FlowMatch
from repro.net import Network
from repro.sim import Simulator

from costs import calls


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
    small = calls(handover_then_detach, loaded_pipelined(200),
                           "imsi00100")
    large = calls(handover_then_detach, loaded_pipelined(2000),
                           "imsi01000")
    assert small == large



#: Calls per session step on a loaded AGW, measured at 35 / 10 / 18 / 16
#: on CPython 3.11 once the switch handled a FlowMod inside ``apply``, the
#: table filed and removed rules in one pass with the invalidation counted
#: inline, ``classifier_fields`` grew tuples instead of calling ``append``,
#: and each step's mods went out through one bound method; the budgets
#: leave 5%, rounded up.  With a helper frame per mod, per rule and per
#: invalidation the steps took 111 / 29 / 51 / 47; building every action
#: per rule as well, 141 / 34 / 61 / 67.
SESSION_BUDGET = {"install": 37, "first tunnel": 11, "handover": 19,
                  "remove": 17}


@pytest.mark.parametrize("step", sorted(SESSION_BUDGET))
def test_each_session_step_stays_inside_its_call_budget(step):
    pipelined = loaded_pipelined(200)
    imsi = "imsi-measured"
    steps = {
        "install": (pipelined.install_session, imsi, "10.200.0.1", 0x5000,
                    10.0),
        "first tunnel": (pipelined.set_enb_tunnel, imsi, 0x6000, "enb-a"),
        "handover": (pipelined.set_enb_tunnel, imsi, 0x6001, "enb-b"),
        "remove": (pipelined.remove_session, imsi),
    }
    # Every step runs, in order; the one under test is checked.
    for name, (method, *args) in steps.items():
        spent = calls(method, *args)
        if name == step:
            assert spent <= SESSION_BUDGET[step], (step, spent)
