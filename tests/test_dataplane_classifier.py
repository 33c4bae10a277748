"""Equivalence tests for the tuple-space-search classifier.

The contract: :meth:`FlowTable.lookup` (mask subtables + residue list)
returns exactly the rule a linear scan of the priority-ordered rule list
would return - including priority ties, where the first-added rule wins -
and the switch-level microflow cache never changes observable forwarding
behaviour versus an uncached switch.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane import (
    FlowMatch,
    FlowMod,
    FlowRule,
    FlowTable,
    SoftwareSwitch,
    gtpu_encap,
    ip_packet,
)
from repro.dataplane import actions as act

IPS = ["10.0.0.1", "10.0.0.2", "10.0.1.9", "8.8.8.8"]
PATTERNS = IPS + ["10.0.0.0/30", "10.0.0.0/16", "0.0.0.0/0"]
PORTS = [0, 53, 80]
REG_VALUES = ["uplink", "downlink", 7]
TEIDS = [1, 2, 3]


def linear_lookup(rules, pkt, in_port=None):
    """The pre-classifier reference: first match in priority order."""
    for rule in rules:
        if rule.match.matches(pkt, in_port):
            return rule
    return None


def shadow_add(shadow, rule):
    """Keep the oracle's own list in (priority desc, first added first)
    order, independently of the ``seq`` stamps the table keeps."""
    shadow.append(rule)
    shadow.sort(key=lambda r: -r.priority)    # stable


def maybe(strategy):
    return st.none() | strategy


matches = st.builds(
    FlowMatch,
    in_port=maybe(st.sampled_from(["ran", "internet"])),
    ip_src=maybe(st.sampled_from(PATTERNS)),
    ip_dst=maybe(st.sampled_from(PATTERNS)),
    ip_proto=maybe(st.sampled_from([6, 17])),
    dscp=maybe(st.sampled_from([0, 46])),
    l4_sport=maybe(st.sampled_from(PORTS)),
    l4_dport=maybe(st.sampled_from(PORTS)),
    tun_id=maybe(st.sampled_from(TEIDS)),
    registers=maybe(st.dictionaries(st.sampled_from(["imsi", "direction"]),
                                    st.sampled_from(REG_VALUES), max_size=2)),
)


@st.composite
def packets(draw):
    pkt = ip_packet(draw(st.sampled_from(IPS)), draw(st.sampled_from(IPS)),
                    proto=draw(st.sampled_from([6, 17])),
                    sport=draw(st.sampled_from(PORTS)),
                    dport=draw(st.sampled_from(PORTS)),
                    dscp=draw(st.sampled_from([0, 46])))
    if draw(st.booleans()):
        gtpu_encap(pkt, draw(st.sampled_from(TEIDS)), "enb", "agw")
    for reg in ("imsi", "direction"):
        if draw(st.booleans()):
            pkt.metadata[reg] = draw(st.sampled_from(REG_VALUES))
    if draw(st.booleans()):
        pkt.metadata["decapped_teid"] = draw(st.sampled_from(TEIDS))
    return pkt


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_classifier_equals_linear_scan(data):
    specs = data.draw(st.lists(st.tuples(st.integers(0, 3), matches),
                               max_size=25))
    rules = [FlowRule(priority, match, [act.Drop()], cookie=index)
             for index, (priority, match) in enumerate(specs)]
    table = FlowTable(0)
    shadow = []
    if data.draw(st.booleans()):
        table.add_batch(rules)
    else:
        for rule in rules:
            table.add(rule)
    for rule in rules:
        shadow_add(shadow, rule)
    pkts = data.draw(st.lists(
        st.tuples(packets(), st.sampled_from([None, "ran", "internet"])),
        min_size=1, max_size=8))

    for pkt, in_port in pkts:
        assert table.lookup(pkt, in_port) is linear_lookup(shadow, pkt, in_port)

    # Exercise both discard paths (cookie delete takes exactly the one
    # rule, strict delete every rule with its match and priority), then
    # incremental re-adds.
    if rules:
        doomed = data.draw(st.lists(
            st.tuples(st.sampled_from(rules), st.booleans()),
            unique_by=lambda pick: pick[0].cookie))
        for rule, strict in doomed:
            if strict:
                gone = [r for r in shadow if r.priority == rule.priority
                        and r.match == rule.match]
                assert table.remove_matching(
                    rule.match, rule.priority) == len(gone)
            else:
                gone = [r for r in shadow if r is rule]
                assert table.remove_by_cookie(rule.cookie) == len(gone)
            shadow = [r for r in shadow if r not in gone]
    extra_specs = data.draw(st.lists(st.tuples(st.integers(0, 3), matches),
                                     max_size=5))
    for priority, match in extra_specs:
        shadow_add(shadow, table.add(FlowRule(priority, match, [act.Drop()])))

    assert len(table) == len(shadow)
    for pkt, in_port in pkts:
        assert table.lookup(pkt, in_port) is linear_lookup(shadow, pkt, in_port)


def test_priority_tie_first_added_wins_across_subtables():
    # Same priority, different masks: the rule added first must win, even
    # though the two rules live in different subtables.
    table = FlowTable(0)
    first = table.add(FlowRule(10, FlowMatch(ip_src="10.0.0.1"),
                               [act.Drop()], cookie="by-src"))
    table.add(FlowRule(10, FlowMatch(ip_dst="8.8.8.8"),
                       [act.Drop()], cookie="by-dst"))
    pkt = ip_packet("10.0.0.1", "8.8.8.8")
    assert table.lookup(pkt) is first
    assert table.lookup(pkt) is linear_lookup(table.rules(), pkt)


def test_priority_tie_residue_vs_subtable():
    # A CIDR (residue) rule added before an exact rule at the same
    # priority must still win for packets both cover.
    table = FlowTable(0)
    cidr = table.add(FlowRule(10, FlowMatch(ip_src="10.0.0.0/24"),
                              [act.Drop()], cookie="cidr"))
    table.add(FlowRule(10, FlowMatch(ip_src="10.0.0.1"),
                       [act.Drop()], cookie="exact"))
    pkt = ip_packet("10.0.0.1", "x")
    assert table.lookup(pkt) is cidr
    # And in the other insertion order the exact rule wins the tie.
    table2 = FlowTable(1)
    exact = table2.add(FlowRule(10, FlowMatch(ip_src="10.0.0.1"),
                                [act.Drop()], cookie="exact"))
    table2.add(FlowRule(10, FlowMatch(ip_src="10.0.0.0/24"),
                        [act.Drop()], cookie="cidr"))
    assert table2.lookup(pkt) is exact


def test_higher_priority_residue_beats_exact_subtable():
    table = FlowTable(0)
    table.add(FlowRule(5, FlowMatch(ip_src="10.0.0.1"), [act.Drop()],
                       cookie="exact"))
    cidr = table.add(FlowRule(50, FlowMatch(ip_src="10.0.0.0/16"),
                              [act.Drop()], cookie="cidr"))
    assert table.lookup(ip_packet("10.0.0.1", "x")) is cidr


def test_unhashable_register_values_still_match():
    # Unhashable expected values force the rule onto the residue list;
    # unhashable packet metadata forces the slow per-subtable fallback.
    table = FlowTable(0)
    residue = table.add(FlowRule(10, FlowMatch(registers={"path": [1, 2]}),
                                 [act.Drop()], cookie="residue"))
    exact = table.add(FlowRule(5, FlowMatch(registers={"imsi": "ue-1"}),
                               [act.Drop()], cookie="exact"))
    pkt = ip_packet("a", "b")
    pkt.metadata["path"] = [1, 2]
    assert table.lookup(pkt) is residue
    pkt2 = ip_packet("a", "b")
    pkt2.metadata["imsi"] = "ue-1"
    pkt2.metadata["junk"] = [3]          # unhashable, but irrelevant field
    assert table.lookup(pkt2) is exact
    assert table.classifier_stats()["residue_rules"] == 1


def _random_match(rng):
    kwargs = {}
    if rng.random() < 0.5:
        kwargs["ip_src"] = rng.choice(PATTERNS)
    if rng.random() < 0.5:
        kwargs["ip_dst"] = rng.choice(PATTERNS)
    if rng.random() < 0.3:
        kwargs["in_port"] = rng.choice(["ran", "internet"])
    if rng.random() < 0.3:
        kwargs["l4_dport"] = rng.choice(PORTS)
    if rng.random() < 0.2:
        kwargs["registers"] = {"direction": rng.choice(["uplink", "downlink"])}
    return FlowMatch(**kwargs)


def _program(switch, specs):
    for table_id, priority, match, actions in specs:
        switch.apply(FlowMod(command=FlowMod.ADD, table_id=table_id,
                             priority=priority, match=match, actions=actions))


def test_switch_cache_equivalence_randomized():
    """Cache on vs. off: identical forwarding for random rules + packets,
    including across a mid-stream rule mutation (invalidation)."""
    rng = random.Random(20230406)
    hits = 0
    for _trial in range(8):
        specs = []
        for _ in range(rng.randint(5, 25)):
            priority = rng.randint(0, 3)
            match = _random_match(rng)
            if rng.random() < 0.3:
                actions = [act.SetRegister("direction",
                                           rng.choice(["uplink", "downlink"])),
                           act.GotoTable(1)]
                specs.append((0, priority, match, actions))
            else:
                table_id = rng.randint(0, 1)
                actions = [rng.choice([act.Drop(), act.Output("internet"),
                                       act.Output("ran")])]
                specs.append((table_id, priority, match, actions))

        flows = []
        for _ in range(5):
            flows.append((rng.choice(IPS), rng.choice(IPS),
                          rng.choice([6, 17]), rng.choice(PORTS),
                          rng.choice(["ran", "internet"])))
        extra = (0, 4, _random_match(rng), [act.Drop()])

        outcomes = []
        for cached in (True, False):
            sw = SoftwareSwitch("eq", num_tables=2)
            sw.microflow_enabled = cached
            delivered = []
            sw.add_port("internet", lambda p: delivered.append(("internet", p.packet_id)))
            sw.add_port("ran", lambda p: delivered.append(("ran", p.packet_id)))
            _program(sw, specs)
            seq = 0
            for _round in range(4):
                for src, dst, proto, dport, in_port in flows:
                    seq += 1
                    pkt = ip_packet(src, dst, proto=proto, dport=dport)
                    pkt.packet_id = seq     # align ids across both switches
                    sw.inject(pkt, in_port)
                if _round == 1:
                    _program(sw, [extra])   # invalidates mid-stream
            outcomes.append((delivered,
                             {k: sw.stats[k] for k in
                              ("rx", "tx", "dropped", "to_controller")}))
            hits += sw.stats["mf_hits"]

        assert outcomes[0] == outcomes[1]
    assert hits > 0  # the cache actually engaged somewhere in the sweep
