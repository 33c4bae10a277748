"""Wire sizing: the recursive sizer against the two walkers it replaced.

``tests/reference_payload_bytes.py`` holds, verbatim, the recursive
rule-per-line ladder the sizer started as and the iterative
stack-of-iterators pass that replaced it; both are oracles here.  Sizes
feed ``tx_bytes`` / ``rx_bytes`` and every wire-bytes canary, so "close"
is not a pass.
"""

import dataclasses
import enum
from collections import OrderedDict, namedtuple
from typing import Any, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_payload_bytes import (iterative_payload_bytes,
                                     reference_payload_bytes)
from repro.core.agw import SubscriberProfile
from repro.core.orchestrator import ConfigStore, StateSync
from repro.core.sync import DigestMirror, ReconcileClient
from repro.net.rpc import payload_bytes
from repro.sim import Simulator


# -- every rule's edge -------------------------------------------------------------


class Rat(enum.IntEnum):
    LTE = 1
    NR = 2


class Tag(str):
    """A ``str`` subclass: sized as a string, not as an opaque object."""


class Opaque:
    pass


Pair = namedtuple("Pair", "left right")


@dataclasses.dataclass(frozen=True)
class Inner:
    name: str
    weight: float = 1.5


@dataclasses.dataclass
class Outer:
    ident: int
    inner: Inner
    tags: tuple = ()
    extra: Any = None


@dataclasses.dataclass(frozen=True)
class Keyed(Inner):
    """A subclass that adds fields (one with a non-ASCII name) to the two
    it inherits: sized from its own per-type plan, not its parent's."""

    key: bytes = b""
    größe: Optional[int] = None


@dataclasses.dataclass
class Empty:
    pass


@dataclasses.dataclass
class Single:
    only: Any = None


EDGE_CASES = [
    None, True, False, 0, 1, -7, 2 ** 127, 0.0, float("inf"),
    Rat.NR, "", "imsi", "café", "中文", "\U0001f4f6", Tag("täg"),
    b"", b"\x00\xff", bytearray(b"abc"),
    [], (), {}, set(), frozenset({1, "a"}),
    {(0, 3): 5, (1,): 2 ** 100},                 # NodePath-keyed digests
    OrderedDict([("b", 1), ("a", [True, None])]),
    Pair(1, "x"),
    Inner("n"), Outer(1, Inner("ü"), ("a", Rat.LTE), {"k": Inner("z")}),
    Keyed("k", 2.0, b"\x00" * 16, 3), [Inner("a"), Keyed("b"), Inner("c")],
    Empty(), Single(), Single(Single([Empty(), b"xyz"])),
    Inner,                                        # a dataclass *type* is opaque
    Opaque(), [Opaque(), {"o": Opaque()}],
    {"gateway_id": "gw-1", "status": {"health": {"checks": {"x": True}}},
     "metrics_backlog": [{"seq": 1, "time": 1.0, "metrics": {"m": 2.0}}]},
    # Keys the inline exact-``str`` arm must leave to the recursive call.
    {7: "i", (0, 3): [1], True: None, None: 2.5, Rat.NR: "n", Tag("t"): 1,
     "plain": b"\x01"},
    # Values the inline scalar arms must leave to the recursive call, in
    # a dict and in a list.
    {"dc": Inner("d"), "od": OrderedDict(a=1), "nt": Pair(None, 2.0),
     "set": {1, 2}, "ba": bytearray(b"xy"), "rat": Rat.LTE, "tag": Tag("v"),
     "empty": Empty(), "single": Single("s")},
    [Inner("d"), OrderedDict(a=1), Pair(None, 2.0), {1, 2}, bytearray(b"xy"),
     Rat.LTE, Tag("v"), Empty(), Single("s"), Opaque()],
]


def test_fast_sizer_matches_reference_on_every_rule_edge():
    for case in EDGE_CASES:
        assert payload_bytes(case) == reference_payload_bytes(case) == \
            iterative_payload_bytes(case), case
    assert payload_bytes(Opaque()) == 16
    assert payload_bytes(True) == 1 and payload_bytes(1) == 8
    assert payload_bytes(Rat.NR) == 8
    assert payload_bytes("café") == 2 + 5
    assert payload_bytes(b"\x00" * 16) == 2 + 16
    assert payload_bytes(Empty()) == 2
    assert payload_bytes(Single()) == 2 + (2 + 4) + 1
    # 2 + field names (name, weight, key, größe: 2 + UTF-8 length each)
    # + a 1-char string, a float, 16 bytes and an int.
    assert payload_bytes(Keyed("k", 2.0, b"\x00" * 16, 3)) == \
        2 + (6 + 8 + 5 + 9) + (3 + 8 + 18 + 8)


def nested_lists(depth: int) -> Any:
    payload: Any = 0
    for _ in range(depth):
        payload = [payload]
    return payload


def test_a_500_deep_list_sizes_like_the_iterative_walker():
    # The ladder spends two frames a level (function + generator), so it
    # cannot reach this depth; the iterative walker has no depth bound.
    deep = nested_lists(500)
    assert payload_bytes(deep) == iterative_payload_bytes(deep) == \
        500 * 2 + 8 == 1008


def test_a_payload_that_contains_itself_raises_recursion_error():
    looped_list: list = [1, "a"]
    looped_list.append(looped_list)
    looped_dict: dict = {"a": 1}
    looped_dict["self"] = looped_dict
    for looped in (looped_list, looped_dict):
        with pytest.raises(RecursionError):
            payload_bytes(looped)


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.sampled_from(list(Rat)), st.text(), st.text().map(Tag),
    st.binary(max_size=16), st.binary(max_size=16).map(bytearray),
    st.builds(Opaque), st.builds(Empty),
    st.builds(Inner, st.text(max_size=8), st.floats(allow_nan=False)),
    st.builds(Keyed, st.text(max_size=4), st.floats(allow_nan=False),
              st.binary(max_size=16), st.none() | st.integers()))

hashables = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8),
    st.sampled_from(list(Rat)),
    st.lists(st.integers(0, 15), max_size=3).map(tuple))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(hashables, max_size=5).map(set),
        st.lists(hashables, max_size=5).map(frozenset),
        st.dictionaries(hashables, children, max_size=5),
        st.dictionaries(st.text(max_size=6), children,
                        max_size=4).map(OrderedDict),
        st.builds(Pair, children, children),
        st.builds(Single, children),
        st.builds(Outer, st.integers(), st.builds(Inner, st.text(max_size=4)),
                  st.lists(children, max_size=3).map(tuple), children))


payloads = st.recursive(scalars, containers, max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_fast_sizer_matches_reference_on_nested_payloads(payload):
    assert payload_bytes(payload) == reference_payload_bytes(payload) == \
        iterative_payload_bytes(payload)


# -- golden sizes of real messages -------------------------------------------------


def profile(index: int) -> SubscriberProfile:
    return SubscriberProfile(imsi=f"00101{index:010d}", k=bytes([index]) * 16,
                             opc=bytes([index + 1]) * 16)


def test_golden_size_of_a_subscriber_profile():
    # 2 + 62 for the eight field names + imsi 17, k and opc 18 each,
    # wifi_secret None 1, policy_id 9, apn 10, two bools.
    assert payload_bytes(profile(1)) == 2 + 62 + 75 == \
        reference_payload_bytes(profile(1))


def test_golden_sizes_of_a_checkin_a_sync_opener_and_a_reconcile_response():
    store = ConfigStore()
    for index in range(1, 9):
        store.put("subscribers", profile(index).imsi, profile(index))
    store.put("policies", "default", {"rate_limit_mbps": 10.0})
    statesync = StateSync(Simulator(), store)
    mirror = DigestMirror()
    for label in ("subscribers", "policies", "ran"):
        mirror.rebuild(label, store.namespace(label))
    applied = store.version
    store.put("subscribers", profile(9).imsi, profile(9))

    request = {
        "gateway_id": "agw-1", "network_id": "default",
        "config_version": applied, "digest_roots": mirror.roots(),
        "status": {"node": "agw-1", "sessions": 3, "crashed": False,
                   "health": {"healthy": True,
                              "checks": {"sessiond": True}}},
        "metrics_backlog": [{"seq": 1, "time": 5.0, "metrics": {
            "cpu_util": 0.25, "attach_accepted": 3.0}}],
    }
    opener = statesync.handle_checkin(request)
    assert opener["config"] is None and opener["sync"]
    client = ReconcileClient(mirror, lambda *delta: None, "default", "agw-1")
    walk_request = client.start(opener)
    replies = []
    while walk_request is not None:
        replies.append(statesync.handle_reconcile(walk_request))
        walk_request = client.feed(replies[-1])
    assert client.result().converged

    sizes = {
        "checkin_request": payload_bytes(request),
        "sync_opener": payload_bytes(opener),
        "reconcile_responses": [payload_bytes(reply) for reply in replies],
        # What the orchestrator accounted: each message as it was sent.
        "rx_bytes": statesync.stats["rx_bytes"],
        "tx_bytes": statesync.stats["tx_bytes"],
    }
    for name, payload in (("checkin_request", request),
                          ("sync_opener", opener)):
        assert sizes[name] == reference_payload_bytes(payload)
    assert sizes["reconcile_responses"] == \
        [reference_payload_bytes(reply) for reply in replies]
    assert sizes == GOLDEN_SIZES


#: Taken from the recursive walker's commit; tx is the three responses
#: sized as sent, ``"config": None`` included: 393 + 549 + 314.
GOLDEN_SIZES = {
    "checkin_request": 328,
    "sync_opener": 393,
    "reconcile_responses": [549, 314],
    "rx_bytes": 522,
    "tx_bytes": 1256,
}
