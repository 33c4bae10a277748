"""Direct unit tests for FlowTable/FlowRule bookkeeping."""

import pytest

from repro.dataplane import FlowMatch, FlowRule, FlowTable, ip_packet
from repro.dataplane import actions as act


def rule(priority, match=None, cookie=None):
    return FlowRule(priority, match or FlowMatch(), [act.Drop()], cookie)


def test_priority_ordering_stable_for_ties():
    table = FlowTable(0)
    first = table.add(rule(10, cookie="first"))
    second = table.add(rule(10, cookie="second"))
    assert table.rules()[0] is first  # insertion order preserved at a tie
    hit = table.lookup(ip_packet("a", "b"))
    assert hit.cookie == "first"


def test_higher_priority_inserted_later_wins():
    table = FlowTable(0)
    table.add(rule(1, cookie="low"))
    table.add(rule(100, cookie="high"))
    assert table.lookup(ip_packet("a", "b")).cookie == "high"
    assert [r.cookie for r in table.rules()] == ["high", "low"]


def test_negative_priority_rejected():
    with pytest.raises(ValueError):
        FlowRule(-1, FlowMatch(), [])


def test_lookup_miss_counts():
    table = FlowTable(0)
    table.add(rule(10, match=FlowMatch(ip_src="10.0.0.1")))
    assert table.lookup(ip_packet("10.0.0.2", "x")) is None
    assert table.lookups == 1
    assert table.matches == 0
    table.lookup(ip_packet("10.0.0.1", "x"))
    assert table.matches == 1


def test_remove_by_cookie_counts():
    table = FlowTable(0)
    table.add(rule(1, cookie="a"))
    table.add(rule(2, cookie="a"))
    table.add(rule(3, cookie="b"))
    assert table.remove_by_cookie("a") == 2
    assert table.remove_by_cookie("a") == 0
    assert len(table) == 1


def test_remove_single_rule_by_strict_delete():
    # Same match at two priorities: the strict delete hits only its own.
    table = FlowTable(0)
    kept = table.add(rule(1, cookie="keep"))
    gone = table.add(rule(2, cookie="gone"))
    assert table.remove_matching(gone.match, gone.priority) == 1
    assert table.remove_matching(gone.match, gone.priority) == 0
    assert table.rules() == [kept]
    assert len(table) == 1


def test_find_by_cookie_and_clear():
    table = FlowTable(0, name="test")
    table.add(rule(1, cookie="x"))
    table.add(rule(2, cookie="x"))
    assert len(table.find_by_cookie("x")) == 2
    table.clear()
    assert len(table) == 0
    assert table.name == "test"


def test_rule_ids_unique():
    a = rule(1)
    b = rule(1)
    assert a.rule_id != b.rule_id


def test_stats_start_zeroed():
    r = rule(1)
    assert r.stats.packets == 0
    assert r.stats.bytes == 0
    assert r.stats.fluid_byte_seconds == 0.0


def test_add_batch_equivalent_to_sequential_adds():
    specs = [(10, "a"), (5, "b"), (10, "c"), (20, "d"), (5, "e")]
    batched = FlowTable(0)
    batched.add(rule(10, cookie="pre"))  # pre-existing rule keeps its place
    sequential = FlowTable(1)
    sequential.add(rule(10, cookie="pre"))
    for priority, cookie in specs:
        sequential.add(rule(priority, cookie=cookie))
    added = batched.add_batch(rule(p, cookie=c) for p, c in specs)
    assert added == len(specs)
    assert ([r.cookie for r in batched.rules()]
            == [r.cookie for r in sequential.rules()])


def test_add_batch_updates_cookie_index():
    table = FlowTable(0)
    table.add_batch([rule(1, cookie="x"), rule(2, cookie="x"),
                     rule(3, cookie="y")])
    assert len(table.find_by_cookie("x")) == 2
    assert table.remove_by_cookie("x") == 2
    assert [r.cookie for r in table.rules()] == ["y"]


def test_remove_matching_purges_cookie_index():
    table = FlowTable(0)
    kept = table.add(rule(1, cookie="x"))
    gone = table.add(rule(2, cookie="x"))
    table.remove_matching(gone.match, gone.priority)
    assert table.find_by_cookie("x") == [kept]
    # Emptying a cookie's bucket drops the cookie itself.
    table.remove_matching(kept.match, kept.priority)
    assert table.find_by_cookie("x") == []
    assert table.remove_by_cookie("x") == 0


def test_remove_matching_deletes_all_in_one_pass():
    table = FlowTable(0)
    match = FlowMatch(ip_dst="10.0.0.1")
    table.add(rule(10, match=match, cookie="a"))
    table.add(rule(10, match=match, cookie="b"))
    table.add(rule(5, match=match, cookie="other-prio"))
    table.add(rule(10, cookie="other-match"))
    assert table.remove_matching(match, 10) == 2
    assert table.remove_matching(match, 10) == 0
    assert {r.cookie for r in table.rules()} == {"other-prio", "other-match"}
    # The cookie index is purged too.
    assert table.find_by_cookie("a") == []
    assert len(table.find_by_cookie("other-prio")) == 1


def test_remove_matching_none_match_is_noop():
    table = FlowTable(0)
    table.add(rule(10, cookie="keep"))
    assert table.remove_matching(None, 10) == 0
    assert len(table) == 1


def test_classifier_stats_decomposition():
    table = FlowTable(0)
    table.add(rule(10, match=FlowMatch(ip_src="10.0.0.1")))
    table.add(rule(10, match=FlowMatch(ip_src="10.0.0.2")))
    table.add(rule(10, match=FlowMatch(ip_dst="8.8.8.8")))
    table.add(rule(10, match=FlowMatch(ip_src="10.0.0.0/24")))
    stats = table.classifier_stats()
    assert stats["rules"] == 4
    assert stats["subtables"] == 2       # {ip_src} and {ip_dst} masks
    assert stats["residue_rules"] == 1   # the CIDR rule


def test_on_change_fires_for_every_mutation():
    events = []
    table = FlowTable(0)
    table.on_change = lambda: events.append(1)
    r = table.add(rule(10, cookie="x"))
    table.add_batch([rule(5, cookie="y")])
    table.remove_matching(r.match, r.priority)
    table.remove_by_cookie("y")
    table.clear()
    assert len(events) == 5
    # Deletes that hit nothing (and an empty batch) are not mutations.
    table.remove_matching(r.match, r.priority)
    table.remove_by_cookie("y")
    table.add_batch([])
    assert len(events) == 5
