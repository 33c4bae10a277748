"""One record type for every message, header, action, result and config
class: :func:`record`, a cheaper ``@dataclass``.

``dataclasses.dataclass`` compiles five or six methods per class from
source text (``__init__``, ``__repr__``, ``__eq__``, ``__hash__`` and, when
frozen, ``__setattr__`` and ``__delattr__``) and builds a docstring from
``inspect.signature``; with a hundred message classes that was a third of
the benchmark's import time.  A record compiles only its ``__init__``, and
shares one ``__eq__``, ``__hash__``, ``__repr__`` and frozen
``__setattr__`` / ``__delattr__`` among all classes.  Each reads its
class's field tuple through one C-level ``attrgetter``, so it runs in its
own frame and no other: the calls ``host_calls`` counts for a generated
method, or fewer (``__repr__`` has no recursion guard).

A record is a dataclass to everything else: it fills
``__dataclass_fields__`` and ``__dataclass_params__``, so
``dataclasses.fields``, ``replace``, ``asdict`` and ``is_dataclass`` work,
and its ``repr`` text, equality, hash and field order are what
``dataclasses`` would give.  A frozen record's ``__init__`` writes the
instance ``__dict__`` key by key, where a frozen dataclass calls
``object.__setattr__`` per field; a mutable one stores through its
attributes.  Options: ``frozen`` (a record and the dataclasses it
inherits from are all frozen or all not: a mix is a TypeError, as in
``dataclasses``), ``read_mostly`` (a frozen record read far more often
than built, such as a subscriber profile, stores as a dataclass does, so
its reads stay fast), ``init=False`` (no ``__init__``: every field starts
at its class-level default), and per field (:func:`field`) a plain
default or ``default_factory``, ``repr`` and ``compare``;
``__post_init__`` runs after the stores.  A record's class has no
generated docstring, and no ``ClassVar``, ``InitVar``,
``field(init=False)`` or mutable default is checked for:
``tests/test_dataplane_records.py`` refuses them.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import MISSING, Field, field, replace
from operator import attrgetter
from types import FunctionType
from typing import (Any, Callable, Dict, Optional, Tuple, get_args,
                    get_origin, get_type_hints, Union)

_FIELD = dataclasses._FIELD
_FACTORY = dataclasses._HAS_DEFAULT_FACTORY     # shows as ``<factory>``

#: The exact types :func:`dataclass_fields` reports a field as declaring.
SCALAR_TYPES = (str, bytes, bool, int, float, type(None))


def _eq(self, other):
    return self.__record_key__(self) == self.__record_key__(other) \
        if other.__class__ is self.__class__ else NotImplemented


def _hash(self):
    return hash(self.__record_key__(self)[:-1])


def _repr(self):
    return self.__class__.__qualname__ + \
        self.__record_repr__ % self.__record_shown__(self)[:-1]


def _frozen(self, name, *value):
    """A frozen record's ``__setattr__`` and ``__delattr__``."""
    raise dataclasses.FrozenInstanceError(
        f"cannot {'assign to' if value else 'delete'} field {name!r}")


#: ``dataclasses._DataclassParams``' arguments (ten from CPython 3.12 on,
#: six before), as a record sets them but for ``init`` and ``frozen``.
_PARAMS = dataclasses._DataclassParams.__init__.__code__
_PARAMS = {name: name in ("repr", "eq", "match_args")
           for name in _PARAMS.co_varnames[1:_PARAMS.co_argcount]}


def _compile_init(kind: type, specs: Dict[str, Any], frozen: bool,
                  read_mostly: bool) -> FunctionType:
    """``__init__`` storing each field, compiled with no ``exec``: its
    code is taken from the compiled module's constants, its defaults are
    its ``__defaults__``, and ``=_`` in the source only marks them, so a
    misplaced one is a ``SyntaxError``."""
    namespace = {"__name__": kind.__module__, "_FACTORY": _FACTORY,
                 "__set": object.__setattr__}
    # A dict written through __dict__ is made at once, and reading from it
    # is slower than from the inline values attribute stores leave (about
    # 24 ns a field more on CPython 3.11): a frozen record, which cannot
    # store through its attributes, pays that to skip a call per field,
    # unless it is read far more often than built.
    target = "self.{} = {}" if not frozen else \
        "__set(self, {!r}, {})" if read_mostly else "__d[{!r}] = {}"
    params, defaults = ["self"], []
    stores = ["    __d = self.__dict__\n" if "__d" in target else "    pass\n"]
    for i, (name, spec) in enumerate(specs.items()):
        value, default = name, spec.default
        if spec.default_factory is not MISSING:
            namespace[f"factory{i}"], default = spec.default_factory, _FACTORY
            value = f"factory{i}() if {name} is _FACTORY else {name}"
        params.append(name + "=_" * (default is not MISSING))
        defaults += [default] * (default is not MISSING)
        stores.append(f"    {target.format(name, value)}\n")
    stores += ["    self.__post_init__()\n"] * hasattr(kind, "__post_init__")
    source = f"def __init__({', '.join(params)}):\n" + "".join(stores)
    # Filed under the class's module, so a profile charges it there.
    filename = getattr(sys.modules.get(kind.__module__), "__file__", "")
    code = compile(source, filename, "exec").co_consts[0]   # the def's
    init = FunctionType(code, namespace, "__init__", tuple(defaults) or None)
    init.__qualname__ = f"{kind.__qualname__}.__init__"
    return init


def record(cls: Optional[type] = None, *, frozen: bool = False,
           init: bool = True, read_mostly: bool = False) -> Any:
    """Make ``cls`` a record: ``@record``, ``@record(frozen=True)``,
    ``@record(init=False)``, ``@record(frozen=True, read_mostly=True)``."""
    if cls is None:
        return lambda kind: record(kind, frozen=frozen, init=init,
                                   read_mostly=read_mostly)
    bases = [b for b in cls.__mro__[-1:0:-1] if dataclasses.is_dataclass(b)]
    if any(base.__dataclass_params__.frozen != frozen for base in bases):
        raise TypeError("cannot mix frozen and non-frozen dataclasses")
    specs = {n: s for b in bases for n, s in b.__dataclass_fields__.items()}
    for name, annotation in cls.__dict__.get("__annotations__", {}).items():
        value = getattr(cls, name, MISSING)
        spec = value if isinstance(value, Field) else field(default=value)
        spec.name, spec.type, spec._field_type = name, annotation, _FIELD
        if value is spec:     # a field(): the class keeps its default
            setattr(cls, name, spec.default) if spec.default is not MISSING \
                else delattr(cls, name)
        specs[name] = spec
    shown = tuple(name for name in specs if specs[name].repr)
    # attrgetter hands back a bare value for one name: each getter ends in
    # ``__record_end__``, an empty tuple, which equality passes over and
    # hash and repr drop.
    cls.__record_key__ = attrgetter(
        *(name for name in specs if specs[name].compare), "__record_end__")
    cls.__record_shown__ = attrgetter(*shown, "__record_end__")
    cls.__record_repr__ = f"({', '.join(name + '=%r' for name in shown)})"
    cls.__dataclass_fields__ = specs
    cls.__dataclass_params__ = dataclasses._DataclassParams(
        **dict(_PARAMS, init=init, frozen=frozen))
    methods = {"__eq__": _eq, "__repr__": _repr, "__record_end__": (),
               "__hash__": _hash if frozen else None}
    if sys.version_info >= (3, 10):     # as dataclasses
        methods["__match_args__"] = tuple(specs)
    if frozen:
        methods.update(__setattr__=_frozen, __delattr__=_frozen)
    if init:
        methods["__init__"] = _compile_init(cls, specs, frozen, read_mostly)
    for name, method in methods.items():
        if cls.__dict__.get(name) is None:      # not the class's own
            setattr(cls, name, method)
    return cls


def dataclass_fields(kind: type) -> Optional[Tuple[Tuple[str, ...],
                                                  Callable, Tuple]]:
    """``(field names, values getter, field types)`` of dataclass type
    ``kind``, in definition order, or None when it is not one.  The getter
    maps an instance to the tuple of its field values.

    The one place the wire sizer (``net.rpc``) and the digest encoder
    (``core.sync.digest``) ask about a class's fields: each keeps what it
    derives from them per *type*, so a value costs one C-level
    ``attrgetter`` call instead of a ``dataclasses.fields()`` scan and a
    ``getattr`` per field.  The field types hold, per field, the exact
    types it declares when they are :data:`SCALAR_TYPES` (one, or a
    ``typing.Union``: ``Optional[bytes]`` is ``(bytes, NoneType)``), else
    None.
    """
    if not dataclasses.is_dataclass(kind):
        return None
    names = tuple(f.name for f in dataclasses.fields(kind))
    # attrgetter needs a name and hands back a bare value for just one.
    values_of = attrgetter(*names) if len(names) > 1 else \
        (lambda obj: tuple(getattr(obj, name) for name in names))
    try:
        hints = get_type_hints(kind)
    except (NameError, AttributeError, SyntaxError, TypeError):
        hints = {}      # an annotation that does not resolve: no types
    unions = (get_args(hint) if get_origin(hint) is Union else (hint,)
              for hint in map(hints.get, names))
    return names, values_of, tuple(
        alts if all(t in SCALAR_TYPES for t in alts) else None
        for alts in unions)
