"""Every dataclass in ``repro`` is a record (``repro.record``): one compiled
``__init__`` per class, shared ``__eq__`` / ``__hash__`` / ``__repr__``
and frozen ``__setattr__`` / ``__delattr__``.  Each record class must
behave as the class plain ``dataclasses`` would make of the same fields
and options: the data plane's messages and actions, the access
messages, packet headers, results and configs alike.

The classes are found by walking the package, so a new record is
checked without being listed here.
"""

import ast
import copy
import dataclasses
import importlib
import inspect
import os
import pickle
import pkgutil
import typing

import pytest

import repro
from costs import calls

SOURCE = os.path.dirname(repro.__file__)


def record_classes():
    classes = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        classes += [obj for obj in vars(module).values()
                    if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__]
    return sorted(classes, key=lambda cls: cls.__name__)


RECORDS = record_classes()


def ids(cls):
    return cls.__name__


def twin_of(cls):
    """The class plain ``dataclasses`` makes of the same fields and options."""
    params = cls.__dataclass_params__
    namespace = ({"__post_init__": cls.__post_init__}
                 if hasattr(cls, "__post_init__") else {})
    return dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type, dataclasses.field(
            default=f.default, default_factory=f.default_factory,
            repr=f.repr, compare=f.compare))
         for f in dataclasses.fields(cls)],
        frozen=params.frozen, init=params.init, namespace=namespace)


def sample(hint, n):
    """A value of the declared type that any validator here accepts."""
    if typing.get_origin(hint) is typing.Union:
        hint = next(a for a in typing.get_args(hint) if a is not type(None))
    if hint is bool:
        return n % 2 == 0
    if hint is int:
        return 3 + n
    if hint is float:
        return 1.5 + n
    if hint is bytes:
        return b"%d" % n
    return f"value-{n}"


def variant(value):
    """Another value of the same kind, or None when there is none."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "-b"
    return None


def arguments(cls, n=0):
    """Keyword arguments: a sample for each required field, one factory
    value for each field with a factory (a counter's would differ between
    a record and its twin), the default for the others but one, which
    gets another value."""
    hints = typing.get_type_hints(cls)
    kwargs, changed = {}, False
    for f in dataclasses.fields(cls):
        if f.default_factory is not dataclasses.MISSING:
            kwargs[f.name] = f.default_factory()
        elif f.default is dataclasses.MISSING:
            kwargs[f.name] = sample(hints[f.name], n)
        elif n and not changed and variant(f.default) is not None:
            kwargs[f.name], changed = variant(f.default), True
    return kwargs


def build(kind, kwargs):
    """``(instance, None)`` or ``(None, (exception type, message))``."""
    try:
        return kind(**kwargs), None
    except Exception as error:      # noqa: BLE001 - compared, not hidden
        return None, (type(error), str(error))


def outcome(action):
    try:
        return ("value", action())
    except Exception as error:      # noqa: BLE001 - compared, not hidden
        return ("raises", type(error), str(error))


def test_every_message_and_action_is_a_record():
    names = {cls.__name__ for cls in RECORDS}
    assert {"FlowMatch", "FlowMod", "MeterMod", "FlowBundle", "PushGtpu",
            "SetRegister", "Meter", "Output", "Drop", "FlowStats", "Packet",
            "AttachRequest", "UplinkNasTransport", "RegistrationRequest",
            "AccessRequest", "ChargingDataRecord", "AgwConfig",
            "SessionFlows"} <= names
    for cls in RECORDS:
        assert "__record_key__" in vars(cls), cls
        if cls.__dataclass_params__.init:
            assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


#: Modules whose every record is a message or an action, and so frozen:
#: the twin takes its options from the record, so it cannot see one lost.
FROZEN_MODULES = ("repro.dataplane.actions", "repro.dataplane.matcher",
                  "repro.dataplane.openflow", "repro.lte.nas",
                  "repro.lte.s1ap", "repro.fiveg.nas5g", "repro.fiveg.ngap",
                  "repro.wifi.radius")


@pytest.mark.parametrize("cls", [c for c in RECORDS
                                 if c.__module__ in FROZEN_MODULES], ids=ids)
def test_every_message_and_action_is_frozen(cls):
    assert cls.__dataclass_params__.frozen
    record = cls(**arguments(cls))
    for name in [f.name for f in dataclasses.fields(cls)] + ["extra"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)


def test_the_pinned_modules_hold_the_messages():
    names = {cls.__name__ for cls in RECORDS
             if cls.__module__ in FROZEN_MODULES}
    assert {"FlowMatch", "FlowMod", "FlowBundle", "PushGtpu", "Output",
            "AttachRequest", "UplinkNasTransport", "InitialUeMessage",
            "RegistrationRequest", "InitialUeMessage5g",
            "UplinkNasTransport5g", "AccessRequest"} <= names


@pytest.mark.parametrize("base_frozen", [True, False])
def test_frozen_and_mutable_records_do_not_mix(base_frozen):
    """As ``dataclasses``: a mutable subclass of a frozen record could
    never be built, and a frozen one of a mutable record is not frozen."""
    from repro.record import record
    for make in (record, dataclasses.dataclass):
        base = make(frozen=base_frozen)(
            type("Base", (), {"__annotations__": {"x": int}}))
        with pytest.raises(TypeError):
            make(frozen=not base_frozen)(
                type("Sub", (base,), {"__annotations__": {"y": int}}))
        sub = make(frozen=base_frozen)(
            type("Sub", (base,), {"__annotations__": {"y": int}}))
        assert vars(sub(1, 2)) == {"x": 1, "y": 2}


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_every_field_is_one_a_record_supports(cls):
    """``record`` does not check what it does not support, as
    ``dataclasses`` would: a ``ClassVar`` or ``InitVar`` annotation, a
    ``field(init=False)`` or a mutable default."""
    for spec in dataclasses.fields(cls):
        assert str(spec.type).split("[")[0].rsplit(".")[-1] not in (
            "ClassVar", "InitVar"), spec.name
        assert spec.init, spec.name
        assert spec.default.__class__.__hash__ is not None, spec.name


def test_a_default_out_of_place_is_refused():
    from repro.record import record
    with pytest.raises(SyntaxError):
        @record
        class Misplaced:
            first: int = 0
            second: int


def test_no_module_but_the_record_module_applies_dataclass():
    offenders = []
    for folder, _, files in os.walk(SOURCE):
        for name in files:
            path = os.path.join(folder, name)
            if not name.endswith(".py") or path == os.path.join(
                    SOURCE, "record.py"):
                continue
            with open(path, encoding="utf-8") as f:
                tree = ast.parse(f.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) \
                        and node.module == "dataclasses" \
                        and any(a.name in ("dataclass", "make_dataclass")
                                for a in node.names):
                    offenders.append(f"{path}:{node.lineno}")
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id == "dataclasses" \
                        and node.attr in ("dataclass", "make_dataclass"):
                    offenders.append(f"{path}:{node.lineno}")
    assert offenders == []


@pytest.mark.parametrize("cls", [c for c in RECORDS
                                 if c.__dataclass_params__.init], ids=ids)
def test_init_takes_the_one_field_list(cls):
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    twin = list(inspect.signature(twin_of(cls).__init__).parameters.values())
    fields = dataclasses.fields(cls)
    assert [p.name for p in params] == [f.name for f in fields]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    for param, twin_param, spec in zip(params, twin[1:], fields):
        assert repr(param.default) == repr(twin_param.default), spec.name
        if spec.default is not dataclasses.MISSING:
            assert param.default is spec.default, (cls, spec.name)


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_a_record_is_what_the_generated_init_would_build(cls):
    twin = twin_of(cls)
    assert [(f.name, f.type, f.default, f.default_factory, f.init, f.repr,
             f.compare, f.hash) for f in dataclasses.fields(cls)] == \
        [(f.name, f.type, f.default, f.default_factory, f.init, f.repr,
          f.compare, f.hash) for f in dataclasses.fields(twin)]
    # A field's class attribute is its plain default, or there is none.
    names = [f.name for f in dataclasses.fields(cls)]
    assert [repr(getattr(cls, name, None)) for name in names] == \
        [repr(getattr(twin, name, None)) for name in names]
    # (no __match_args__ before CPython 3.10)
    assert getattr(cls, "__match_args__", None) == \
        getattr(twin, "__match_args__", None)
    kwargs = arguments(cls) if cls.__dataclass_params__.init else {}
    (record, error), (made, twin_error) = build(cls, kwargs), \
        build(twin, kwargs)
    assert error is None and twin_error is None
    assert list(vars(record).items()) == list(vars(made).items())
    assert repr(record) == repr(made)
    # A subclass the decorator never saw still shows its own name.
    sub, twin_sub = (type(kind.__name__ + "Sub", (kind,), {})
                     for kind in (cls, twin))
    assert repr(sub(**kwargs)) == repr(twin_sub(**kwargs))
    assert outcome(lambda: hash(record)) == outcome(lambda: hash(made))
    assert dataclasses.asdict(record) == dataclasses.asdict(made)
    assert dataclasses.astuple(record) == dataclasses.astuple(made)
    same = build(cls, kwargs)[0]
    assert record == same and not record != same
    if cls.__dataclass_params__.init and dataclasses.fields(cls):
        positional = cls(*(getattr(record, f.name)
                           for f in dataclasses.fields(cls)))
        assert list(vars(positional).items()) == list(vars(record).items())
        changed = arguments(cls, 1)
        (other, other_error), (twin_other, twin_other_error) = \
            build(cls, changed), build(twin, changed)
        assert other_error is None and twin_other_error is None
        assert (record == other) == (made == twin_other)
        assert (record != other) == (made != twin_other)
        assert repr(other) == repr(twin_other)
    assert record.__eq__(made) is NotImplemented
    assert record.__eq__(object()) is NotImplemented
    assert (record == made) is False
    replaced = outcome(lambda: vars(dataclasses.replace(record)))
    assert replaced == outcome(lambda: vars(dataclasses.replace(made)))
    if cls.__dataclass_params__.init:
        assert replaced == ("value", vars(record))
    for copied in (copy.copy(record), copy.deepcopy(record),
                   pickle.loads(pickle.dumps(record))):
        assert type(copied) is cls and copied == record
        assert list(vars(copied).items()) == list(vars(record).items())
    for name in [f.name for f in dataclasses.fields(cls)] + ["extra"]:
        assert outcome(lambda: setattr(record, name, 1)) == \
            outcome(lambda: setattr(made, name, 1))
        assert outcome(lambda: delattr(record, name)) == \
            outcome(lambda: delattr(made, name))
    if cls.__dataclass_params__.frozen:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, "extra", 1)


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_a_record_costs_no_more_calls_than_its_twin(cls):
    """The shared methods run in one frame each, as the generated ones
    did (which a ``repr`` wrapped in a recursion guard): ``host_calls``
    cannot grow with records."""
    twin = twin_of(cls)
    kwargs = arguments(cls) if cls.__dataclass_params__.init else {}
    actions = [lambda kind, a, b: kind(**kwargs), lambda kind, a, b: a == b,
               lambda kind, a, b: repr(a)]
    if cls.__dataclass_params__.frozen:
        actions.append(lambda kind, a, b: hash(a))
    pairs = [(kind, kind(**kwargs), kind(**kwargs)) for kind in (cls, twin)]
    for action in actions:
        assert calls(action, *pairs[0]) <= calls(action, *pairs[1])


@pytest.mark.parametrize("cls", [c for c in RECORDS if any(
    f.default_factory is not dataclasses.MISSING
    for f in dataclasses.fields(c))], ids=ids)
def test_a_default_factory_runs_per_instance(cls):
    kwargs = {name: value for name, value in arguments(cls).items()
              if cls.__dataclass_fields__[name].default_factory
              is dataclasses.MISSING}
    first, second = cls(**kwargs), cls(**kwargs)
    for f in dataclasses.fields(cls):
        if f.default_factory is not dataclasses.MISSING:
            assert getattr(first, f.name) is not getattr(second, f.name)
            assert type(getattr(first, f.name)) is type(f.default_factory())


@pytest.mark.parametrize("cls", [c for c in RECORDS
                                 if hasattr(c, "__post_init__")], ids=ids)
def test_post_init_runs_after_the_stores(cls, monkeypatch):
    seen = []
    monkeypatch.setattr(cls, "__post_init__",
                        lambda self: seen.append(dict(vars(self))))
    record = cls(**arguments(cls))
    assert seen == [vars(record)]


def test_a_hidden_field_is_left_out_of_repr_and_equality():
    from repro.core.agw.pipelined import SessionFlows
    flows = SessionFlows("imsi1", "10.0.0.1", 1, None, None, 1, 5.0)
    marked = dataclasses.replace(flows, downlink_match="match")
    assert "downlink_match" not in repr(marked)
    assert repr(marked) == repr(flows) and marked == flows
    assert vars(marked)["downlink_match"] == "match"


def test_only_a_read_mostly_record_stores_as_a_dataclass_does():
    """A subscriber profile is read far more often than built: its
    ``__init__`` stores through ``object.__setattr__`` and never asks for
    the instance dict, which would slow every later read of it."""
    from repro.core.agw.subscriberdb import SubscriberProfile
    from repro.lte.s1ap import UplinkNasTransport
    assert SubscriberProfile.__dataclass_params__.frozen
    assert "__dict__" not in SubscriberProfile.__init__.__code__.co_names
    assert "__dict__" in UplinkNasTransport.__init__.__code__.co_names


def test_a_record_without_init_starts_at_its_class_defaults():
    from repro.dataplane.flowtable import FlowStats
    stats = FlowStats()
    assert vars(stats) == {}
    assert repr(stats) == \
        "FlowStats(packets=0, bytes=0, fluid_byte_seconds=0.0)"
    stats.packets += 1
    assert vars(stats) == {"packets": 1} and stats != FlowStats()
    with pytest.raises(TypeError):
        hash(stats)
