"""The data plane's messages and actions are frozen dataclasses whose
``__init__`` is ``frozen_record``'s, not the generated one: the same
field list, the same frozen instance and generated methods."""

import dataclasses
import inspect

import pytest

from repro.dataplane import actions, matcher, openflow

RECORDS = [obj for module in (actions, matcher, openflow)
           for obj in vars(module).values()
           if isinstance(obj, type) and dataclasses.is_dataclass(obj)
           and obj.__module__ == module.__name__]


def twin_of(cls):
    """The class plain ``@dataclass(frozen=True)`` makes of the fields."""
    return dataclasses.make_dataclass(
        cls.__name__, [(f.name, f.type, dataclasses.field(default=f.default))
                       for f in dataclasses.fields(cls)], frozen=True)


def sample(cls):
    return {f.name: f"{f.name}-value" for f in dataclasses.fields(cls)}


def test_every_message_and_action_is_a_record():
    names = {cls.__name__ for cls in RECORDS}
    assert {"FlowMatch", "FlowMod", "MeterMod", "FlowBundle", "PushGtpu",
            "SetRegister", "Meter", "Output", "Drop"} <= names
    for cls in RECORDS:
        params = cls.__dataclass_params__
        # The generated __init__ was never made; frozen_record's replaced it.
        assert params.frozen and not params.init, cls
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_init_takes_the_one_field_list(cls):
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    fields = dataclasses.fields(cls)
    assert [p.name for p in params] == [f.name for f in fields]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    for param, spec in zip(params, fields):
        expected = (param.empty if spec.default is dataclasses.MISSING
                    else spec.default)
        assert param.default is expected, (cls, spec.name)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_is_what_the_generated_init_would_build(cls):
    values = sample(cls)
    record, twin = cls(**values), twin_of(cls)(**values)
    assert vars(record) == vars(twin)
    assert repr(record) == repr(twin)
    assert record == cls(*values.values())
    assert hash(record) == hash(cls(*values.values()))
    assert dataclasses.replace(record) == record
    for name in values:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, "other")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    required = [f for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING]
    if required:
        with pytest.raises(TypeError):
            cls()
