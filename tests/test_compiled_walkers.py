"""The per-type compiled walkers against the oracles, byte for byte.

Every dataclass type gets a straight-line sizer the first time it is
met, and one whose fields are all declared scalars (or unions of them,
``Optional`` included) a straight-line encoder too (DESIGN.md §6.9).  These properties build such
types with ``make_dataclass`` and then feed instances whose field types
vary after the first one - ``None`` against a value, ``bool`` against
``int``, an ``IntEnum``, ``str`` and ``float`` subclasses, ``-0.0``,
``nan``, ``inf``, non-ASCII text, containers and nested dataclasses -
so both the compiled path and its fall-back to the generic walk run.
The oracles are the ``isinstance`` ladder encoder of
``test_sync_canonical_bytes.py`` and the two reference sizers.
"""

import dataclasses
import enum
from hashlib import blake2b
from typing import Any, Optional, Union

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_payload_bytes import (iterative_payload_bytes,
                                     reference_payload_bytes)
from repro.core.sync import canonical_bytes, entry_digest
from repro.core.sync.digest import _ENCODERS
from repro.net.rpc import _SIZERS, payload_bytes
from test_sync_canonical_bytes import reference_canonical_bytes


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Name(str):
    """A ``str`` subclass: encoded and sized as a string."""


class Ratio(float):
    """A ``float`` subclass with its own ``repr``: the repr is the rule."""

    def __repr__(self):
        return f"{float(self):.2f}"


@dataclasses.dataclass(frozen=True)
class Inner:
    label: str


NONE = type(None)

#: Exact type -> values of exactly that type.
EXACT = {
    str: st.text(max_size=6),
    bytes: st.binary(max_size=6),
    bool: st.booleans(),
    int: st.integers(),
    float: st.floats() | st.sampled_from([-0.0, float("nan"), float("inf")]),
    NONE: st.none(),
}

#: Declaration -> the exact types it admits (None: not compiled).
DECLARATIONS = {
    str: (str,), bytes: (bytes,), bool: (bool,), int: (int,),
    float: (float,), Optional[str]: (str, NONE),
    Optional[bytes]: (bytes, NONE), Optional[bool]: (bool, NONE),
    Optional[int]: (int, NONE), Optional[float]: (float, NONE),
    Union[int, str]: (int, str), Any: None,
}

#: Values a field may hold after the first instance, whatever it declares.
ODD = st.one_of(
    *EXACT.values(), st.sampled_from(list(Level)),
    st.text(max_size=4).map(Name), st.floats().map(Ratio),
    st.lists(st.integers(), max_size=2), st.builds(Inner, st.text(max_size=3)))


def admitted(declaration):
    kinds = DECLARATIONS[declaration]
    return st.one_of(*(EXACT[kind] for kind in kinds)) if kinds else ODD


@st.composite
def types_and_instances(draw):
    declarations = draw(st.lists(st.sampled_from(list(DECLARATIONS)),
                                 max_size=5))
    names = [draw(st.sampled_from(["f", "größe", "x_"])) + str(index)
             for index in range(len(declarations))]
    kind = dataclasses.make_dataclass(
        draw(st.sampled_from(["Record", "Rëcord", "Pct%d", "A%%b"])),
        list(zip(names, declarations)))
    first = kind(*[draw(admitted(d)) for d in declarations])
    later = [kind(*[draw(admitted(d) | ODD) for d in declarations])
             for _ in range(draw(st.integers(1, 4)))]
    return kind, declarations, [first] + later


def admits(declarations, instance):
    """Whether every field value is of an exact type its field declares."""
    return all(DECLARATIONS[d] and type(getattr(instance, f.name))
               in DECLARATIONS[d] for d, f in zip(declarations,
                                                   dataclasses.fields(instance)))


@settings(max_examples=300, deadline=None)
@given(types_and_instances(), st.text(max_size=6))
def test_compiled_encoder_and_sizer_equal_the_oracles(case, key):
    kind, declarations, instances = case
    compiled = all(DECLARATIONS[d] for d in declarations)
    for instance in instances:
        expected = reference_canonical_bytes(instance)
        entry = b"entry:" + key.encode("utf-8") + b"=" + expected
        assert entry_digest(key, instance) == int.from_bytes(
            blake2b(entry, digest_size=16).digest(), "big")
        assert canonical_bytes(instance) == expected
        size = reference_payload_bytes(instance)
        assert payload_bytes(instance) == iterative_payload_bytes(instance) \
            == size
        nested = [instance, {"entry": instance}, (instance,)]
        assert payload_bytes(nested) == reference_payload_bytes(nested)
        # The first instance compiled the type's sizer, and its encoder
        # when every field is declared scalar; the encoder takes its
        # straight line exactly when every value is of a declared type.
        assert _SIZERS[kind](instance) == size
        assert (kind in _ENCODERS) == compiled
        if compiled:
            fast = _ENCODERS[kind](key, instance)
            assert fast == (entry if admits(declarations, instance)
                            else None)


def test_a_class_whose_annotation_does_not_resolve_is_walked_generically():
    for annotation in ("Missing", "typing.Nope", "List[int", "1 + 'a'"):
        kind = dataclasses.make_dataclass(
            "Unresolved", [("x", annotation), ("y", "int")])
        instance = kind(1, "two")
        expected = reference_canonical_bytes(instance)
        assert canonical_bytes(instance) == expected
        assert entry_digest("k", instance) == int.from_bytes(blake2b(
            b"entry:k=" + expected, digest_size=16).digest(), "big")
        assert payload_bytes(instance) == reference_payload_bytes(instance)
        assert kind not in _ENCODERS
