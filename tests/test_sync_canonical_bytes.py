"""Canonical encoding: the type-compiled encoder against the ladder it
replaced, plus pinned goldens.

``reference_canonical_bytes`` is the recursive ``isinstance``-ladder
encoder that lived in ``repro.core.sync.digest`` until dataclasses got a
per-type plan; it stays here, verbatim, as the oracle.  Every entry
digest, tree root and therefore every wire decision of digest sync hangs
on these bytes, so "equivalent" is not a pass — and the goldens pin the
format itself, which until now only a changed benchmark digest would
have noticed drifting.
"""

import dataclasses
import enum
from collections import OrderedDict, namedtuple
from typing import Any, ClassVar, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agw import SubscriberProfile
from repro.core.policy import PolicyRule
from repro.core.sync import DigestTree, canonical_bytes, entry_digest


def reference_canonical_bytes(obj: Any) -> bytes:
    out = bytearray()
    _reference_into(obj, out)
    return bytes(out)


def _reference_into(obj: Any, out: bytearray) -> None:
    if obj is None:
        out += b"N"
    elif obj is True:
        out += b"T"
    elif obj is False:
        out += b"F"
    elif isinstance(obj, int):
        out += b"i%d;" % obj
    elif isinstance(obj, float):
        out += b"f"
        out += repr(obj).encode("ascii")
        out += b";"
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        out += b"s%d:" % len(data)
        out += data
    elif isinstance(obj, bytes):
        out += b"b%d:" % len(obj)
        out += obj
    elif isinstance(obj, (list, tuple)):
        out += b"l%d:" % len(obj)
        for item in obj:
            _reference_into(item, out)
    elif isinstance(obj, dict):
        out += b"d%d:" % len(obj)
        for key in sorted(obj, key=_reference_sort_key):
            _reference_into(key, out)
            _reference_into(obj[key], out)
    elif isinstance(obj, (set, frozenset)):
        parts = sorted(reference_canonical_bytes(item) for item in obj)
        out += b"e%d:" % len(parts)
        for part in parts:
            out += part
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = dataclasses.fields(obj)
        out += b"D"
        _reference_into(type(obj).__name__, out)
        out += b"%d:" % len(fields)
        for f in fields:
            _reference_into(f.name, out)
            _reference_into(getattr(obj, f.name), out)
    else:
        raise TypeError(
            f"cannot canonicalize {type(obj).__name__!r} for digesting; "
            "config values must be scalars, containers, or dataclasses")


def _reference_sort_key(key: Any) -> Tuple[str, bytes]:
    return (type(key).__name__, reference_canonical_bytes(key))


# -- every rule's edge -------------------------------------------------------------


class Rat(enum.IntEnum):
    LTE = 1
    NR = 2


class Tag(str):
    """A ``str`` subclass: encoded as a string."""


class Ratio(float):
    """A ``float`` subclass with its own ``repr``: the repr is the rule."""

    def __repr__(self):
        return f"{float(self):.2f}"


class Blob(bytes):
    pass


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
    kind: ClassVar[str] = "outer"          # not a field: never encoded


@dataclasses.dataclass(frozen=True)
class Leaf(Inner):
    """Inherits two fields and adds two of its own."""

    depth: int = 0
    blob: Optional[bytes] = None


class PlainLeaf(Leaf):
    """Not itself decorated: its parent's fields under its own name."""


@dataclasses.dataclass
class Empty:
    pass


@dataclasses.dataclass(frozen=True)
class Single:
    only: Any = None


@dataclasses.dataclass
class Labelled(str):
    """A dataclass that extends a built-in is that built-in."""

    note: str = ""


EDGE_CASES = [
    None, True, False, 0, 1, -7, 2 ** 127, 0.0, -0.0, 1e300, float("inf"),
    float("nan"), Rat.NR, Ratio(0.256), "", "imsi", "café", "中文",
    "\U0001f4f6", Tag("täg"), b"", b"\x00\xff", Blob(b"abc"),
    [], (), {}, set(), frozenset(), [[]], [(), {}],
    {1, "a", None}, frozenset({(1, 2), "a", 2.5}),
    {(0, 3): 5, (1,): 2 ** 100},                 # NodePath-keyed digests
    {None: 1, True: 2, 3: 4, "3": 5, 2.5: 6, (): 7, b"k": 8, Rat.NR: 9},
    OrderedDict([("b", 1), ("a", [True, None])]),
    Pair(1, "x"),
    Inner("n"), Outer(1, Inner("ü"), ("a", Rat.LTE), {"k": Inner("z")}),
    Leaf("leaf", 2.0, 3, b"\x01"), PlainLeaf("plain"),
    Empty(), Single(), Single(Single([Empty()])), Labelled("text"),
    [Inner("a"), Inner("b", 0.5), Leaf("c")],
    {"tx_power": {"dbm": 20, "mimo": [2, 2], "boost": None}, "earfcn": 2},
]


def test_encoder_matches_reference_on_every_rule_edge():
    for case in EDGE_CASES:
        assert canonical_bytes(case) == reference_canonical_bytes(case), case


def test_each_rule_by_its_bytes():
    assert canonical_bytes(True) == b"T" and canonical_bytes(1) == b"i1;"
    assert canonical_bytes(False) == b"F" and canonical_bytes(0) == b"i0;"
    assert canonical_bytes(Rat.NR) == b"i2;"
    assert canonical_bytes(Tag("täg")) == canonical_bytes("täg") \
        == b"s4:t\xc3\xa4g"
    assert canonical_bytes(-0.0) == b"f-0.0;" != canonical_bytes(0.0)
    assert canonical_bytes(Ratio(0.256)) == b"f0.26;"
    assert canonical_bytes(b"\x00") == b"b1:\x00" != canonical_bytes("\x00")
    assert canonical_bytes([]) == canonical_bytes(()) == b"l0:"
    assert canonical_bytes({}) == b"d0:"
    assert canonical_bytes(set()) == canonical_bytes(frozenset()) == b"e0:"
    assert canonical_bytes(Pair(1, "x")) == canonical_bytes([1, "x"])
    assert canonical_bytes(Empty()) == b"Ds5:Empty0:"
    assert canonical_bytes(Single(7)) == b"Ds6:Single1:s4:onlyi7;"
    assert canonical_bytes(Labelled("text")) == b"s4:text"
    assert canonical_bytes(PlainLeaf("p")).startswith(b"Ds9:PlainLeaf4:")
    assert b"kind" not in canonical_bytes(Outer(1, Inner("n")))
    # Order-free containers are order-free; sequences are not.
    assert canonical_bytes({"a": 1, "b": 2}) == \
        canonical_bytes({"b": 2, "a": 1})
    assert canonical_bytes({3, 1, 2}) == canonical_bytes({2, 3, 1})
    assert canonical_bytes([1, 2]) != canonical_bytes([2, 1])


@pytest.mark.parametrize("bad", [
    Inner,                      # a dataclass *class object* is not a value
    bytearray(b"abc"), Opaque(), object(), 1 + 2j, range(3),
    [Opaque()], {"k": bytearray()}, Single(Opaque()), {Inner},
])
def test_unsupported_values_still_raise_type_error(bad):
    with pytest.raises(TypeError, match="cannot canonicalize"):
        reference_canonical_bytes(bad)
    with pytest.raises(TypeError, match="cannot canonicalize"):
        canonical_bytes(bad)
    # A failure inside a dataclass does not poison its type's plan.
    assert canonical_bytes(Single(1)) == reference_canonical_bytes(Single(1))


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from(list(Rat)), st.text(), st.text(max_size=8).map(Tag),
    st.binary(max_size=16), st.binary(max_size=8).map(Blob),
    st.just(Empty()),
    st.builds(Inner, st.text(max_size=8), st.floats(allow_nan=False)),
    st.builds(Leaf, st.text(max_size=4), st.floats(allow_nan=False),
              st.integers(), st.none() | st.binary(max_size=8)),
    st.builds(PlainLeaf, st.text(max_size=4)))

hashables = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8),
    st.floats(allow_nan=False), st.binary(max_size=4),
    st.sampled_from(list(Rat)),
    st.lists(st.integers(0, 15), max_size=3).map(tuple),
    st.builds(Inner, st.text(max_size=4)),
    st.frozensets(st.integers() | st.text(max_size=3), max_size=3))


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


values = st.recursive(scalars, containers, max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(values)
def test_encoder_matches_reference_on_nested_values(value):
    assert canonical_bytes(value) == reference_canonical_bytes(value)


# -- goldens: the format itself ----------------------------------------------------

PROFILE = SubscriberProfile(
    imsi="001010000000042", k=bytes(range(16)), opc=bytes(range(16, 32)),
    wifi_secret="pässword", policy_id="gold")
POLICY = PolicyRule(
    policy_id="gold", rate_limit_mbps=25.5, usage_cap_bytes=10 ** 9,
    throttled_rate_mbps=1.0, qci=8, priority=3)
TX_POWER = {"dbm": 20, "mimo": [2, 2], "boost": None}

GOLDEN_PROFILE_BYTES = (
    b"Ds17:SubscriberProfile8:"
    b"s4:imsis15:001010000000042"
    b"s1:kb16:\x00\x01\x02\x03\x04\x05\x06\x07\x08\t\n\x0b\x0c\r\x0e\x0f"
    b"s3:opcb16:\x10\x11\x12\x13\x14\x15\x16\x17"
    b"\x18\x19\x1a\x1b\x1c\x1d\x1e\x1f"
    b"s11:wifi_secrets9:p\xc3\xa4ssword"
    b"s9:policy_ids4:gold"
    b"s3:apns8:internet"
    b"s6:activeT"
    b"s9:federatedF")
GOLDEN_POLICY_BYTES = (
    b"Ds10:PolicyRule8:"
    b"s9:policy_ids4:gold"
    b"s15:rate_limit_mbpsf25.5;"
    b"s15:usage_cap_bytesi1000000000;"
    b"s19:throttled_rate_mbpsf1.0;"
    b"s14:cap_interval_sN"
    b"s3:qcii8;"
    b"s8:chargings4:none"
    b"s8:priorityi3;")
GOLDEN_PROFILE_DIGEST = "76873369bf8f9d5be61e2aa526fe533a"
GOLDEN_POLICY_DIGEST = "e0709cd1dce956c495fc3dd8a173976d"
GOLDEN_TREE_ROOT = "9bd7ce98cb24a1229becfb7afee9a1cf"


def test_golden_bytes_of_a_subscriber_profile_and_a_policy_rule():
    assert canonical_bytes(PROFILE) == GOLDEN_PROFILE_BYTES
    assert canonical_bytes(POLICY) == GOLDEN_POLICY_BYTES
    assert canonical_bytes({**TX_POWER, 3: -0.0, None: (True, b"\x00")}) == \
        b"d5:Nl2:Tb1:\x00i3;f-0.0;s3:dbmi20;s4:mimol2:i2;i2;s5:boostN"


def test_golden_entry_digests_and_tree_root():
    assert f"{entry_digest(PROFILE.imsi, PROFILE):032x}" == \
        GOLDEN_PROFILE_DIGEST
    assert f"{entry_digest(POLICY.policy_id, POLICY):032x}" == \
        GOLDEN_POLICY_DIGEST
    tree = DigestTree(fanout=4, depth=2)
    tree.put(PROFILE.imsi, PROFILE)
    tree.put(POLICY.policy_id, POLICY)
    tree.put("earfcn", 2)
    tree.put("tx_power", TX_POWER)
    tree.put("tags", frozenset({"a", 1, None}))
    assert f"{tree.root():032x}" == GOLDEN_TREE_ROOT
