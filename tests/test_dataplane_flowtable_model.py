"""Model-based test: FlowTable against a one-list reference table.

``ListTable`` is the table's contract in its most naive form - one Python
list in insertion order, linear scans, a stable sort for the priority
view.  Hypothesis drives both with the same random operation sequence and
compares everything observable after every step.  The match pool is built
around what the bucket-probing strict delete leans on (DESIGN.md §6.8):
matches that share a classifier bucket without being equal, matches that
are equal without being identical, and rules the classifier cannot hash.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane import FlowMatch, FlowRule, FlowTable, gtpu_encap, ip_packet
from repro.dataplane import actions as act


class ListTable:
    """The oracle: every operation is a scan of one list."""

    def __init__(self):
        self.added = []          # insertion order
        self.changes = 0

    def rules(self):
        return sorted(self.added, key=lambda r: -r.priority)    # stable

    def add(self, rule):
        self.added.append(rule)
        self.changes += 1
        return rule

    def add_batch(self, rules):
        rules = list(rules)
        self.added.extend(rules)
        self.changes += bool(rules)
        return len(rules)

    def _remove(self, doomed):
        self.added = [r for r in self.added if r not in doomed]
        self.changes += bool(doomed)
        return len(doomed)

    def remove_matching(self, match, priority):
        return self._remove([r for r in self.added
                             if r.priority == priority and r.match == match])

    def remove_by_cookie(self, cookie):
        return self._remove(self.find_by_cookie(cookie))

    def clear(self):
        self.added = []
        self.changes += 1

    def find_by_cookie(self, cookie):
        return [r for r in self.added if r.cookie == cookie]

    def lookup(self, pkt, in_port=None):
        for rule in self.rules():
            if rule.match.matches(pkt, in_port):
                return rule
        return None


# Keyword sets, not FlowMatch instances: every use builds a fresh object
# (and a fresh registers dict), so equality is never settled by identity.
MATCH_KWARGS = [
    {},
    {"registers": {}},                          # same bucket as {}, unequal
    {"tun_id": 1},
    {"tun_id": True},                           # equal key AND equal match
    {"tun_id": 2},
    {"in_port": "ran", "tun_id": 1},
    {"in_port": "internet", "ip_dst": "10.0.0.1"},
    {"ip_src": "10.0.0.1"},
    {"ip_src": "10.0.0.1", "registers": {}},
    {"ip_src": "10.0.0.0/24"},                  # CIDR: residue
    {"ip_dst": "10.0.0.0/24"},
    {"registers": {"imsi": "ue-1"}},
    {"registers": {"imsi": "ue-1", "direction": "downlink"}},
    {"registers": {"direction": "downlink", "imsi": "ue-1"}},   # same match
    {"registers": {"imsi": "ue-2", "direction": "downlink"}},
    {"registers": {"path": [1, 2]}},            # unhashable: residue
    {"registers": {"path": [1, 3]}},
]
COOKIES = [None, "a", "b", "c"]
PRIORITIES = [0, 5, 10]


def build_match(kwargs):
    return FlowMatch(**copy.deepcopy(kwargs))


def probe_packets():
    plain = ip_packet("10.0.0.1", "8.8.8.8")
    tunnelled = gtpu_encap(ip_packet("10.0.0.1", "8.8.8.8"), 1, "enb", "agw")
    downlink = ip_packet("8.8.8.8", "10.0.0.1")
    tagged = ip_packet("10.0.0.7", "8.8.8.8")
    tagged.metadata.update(imsi="ue-1", direction="downlink")
    odd = ip_packet("10.0.0.9", "10.0.0.1")
    odd.metadata["path"] = [1, 2]               # unhashable packet metadata
    return [(plain, None), (tunnelled, "ran"), (downlink, "internet"),
            (tagged, None), (odd, "ran")]


match_kwargs = st.sampled_from(MATCH_KWARGS)
rule_specs = st.tuples(st.sampled_from(PRIORITIES), match_kwargs,
                       st.sampled_from(COOKIES))
operations = st.one_of(
    st.tuples(st.just("add"), rule_specs),
    st.tuples(st.just("add_batch"), st.lists(rule_specs, max_size=6)),
    st.tuples(st.just("remove_matching"),
              st.tuples(st.none() | match_kwargs,
                        st.sampled_from(PRIORITIES))),
    st.tuples(st.just("remove_by_cookie"), st.sampled_from(COOKIES + ["z"])),
    st.tuples(st.just("clear"), st.none()),
)


def build_rule(spec):
    priority, kwargs, cookie = spec
    return FlowRule(priority, build_match(kwargs), [act.Drop()], cookie)


def same_rules(got, expected):
    return len(got) == len(expected) and all(
        a is b for a, b in zip(got, expected))


@settings(max_examples=300, deadline=None)
@given(st.lists(operations, max_size=30))
def test_flowtable_equals_list_model(ops):
    table, model = FlowTable(0), ListTable()
    fired = []
    table.on_change = lambda: fired.append(1)
    for name, arg in ops:
        if name == "add":
            rule = build_rule(arg)
            assert table.add(rule) is model.add(rule)
        elif name == "add_batch":
            rules = [build_rule(spec) for spec in arg]
            assert table.add_batch(iter(rules)) == model.add_batch(rules)
        elif name == "remove_matching":
            kwargs, priority = arg
            match = None if kwargs is None else build_match(kwargs)
            assert (table.remove_matching(match, priority)
                    == model.remove_matching(match, priority))
        elif name == "remove_by_cookie":
            assert table.remove_by_cookie(arg) == model.remove_by_cookie(arg)
        else:
            table.clear()
            model.clear()

        assert same_rules(table.rules(), model.rules())
        assert len(table) == len(model.added)
        assert table.classifier_stats()["rules"] == len(model.added)
        assert len(fired) == model.changes
        for cookie in COOKIES:
            assert same_rules(table.find_by_cookie(cookie),
                              model.find_by_cookie(cookie))
        for pkt, in_port in probe_packets():
            assert table.lookup(pkt, in_port) is model.lookup(pkt, in_port)
