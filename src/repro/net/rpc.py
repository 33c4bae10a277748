"""gRPC-substitute RPC layer.

All Magma-internal communication (RAN-specific frontends to generic AGW
services, AGW to orchestrator, FeG to MNO core) uses gRPC in the real system.
This module provides the equivalent: request/response RPC with

- **deadlines** - every call fails with ``DEADLINE_EXCEEDED`` if no response
  arrives in time;
- **transparent retransmission** - requests and responses are retried within
  the deadline, so calls survive lossy backhaul exactly as gRPC-over-TCP
  does (the paper's §3.1 contrast with raw GTP-C);
- **deadline propagation** - a request carries its call's expiry, as
  gRPC's ``grpc-timeout`` header does: a server drops a request that
  arrives after it (``stats["expired"]``), since its caller has already
  given up;
- **idempotent dispatch** - servers de-duplicate retried requests by id and
  re-send the cached response, which they keep until the call's expiry:
  after it no copy of that request can be served, so the reply is
  evicted then, oldest reply first.

Handlers may be plain callables (request -> response) or generator functions
(request -> generator), which the server runs as simulated processes so they
can consume CPU model time, call other services, etc.
"""

from __future__ import annotations

import itertools
from collections import deque
from types import GeneratorType, MappingProxyType
from typing import Any, Callable, Deque, Dict, Iterable, Optional, Tuple

from ..record import SCALAR_TYPES, dataclass_fields
from ..sim.kernel import Event, Simulator
from .simnet import Datagram, Network

RPC_PORT = 50051
DEFAULT_DEADLINE = 5.0
RETRY_INTERVAL = 0.25


#: The exact types a compiled walker handles in line, each with the
#: source of its test on field ``v{i}`` (:func:`compile_walker`).
SCALARS = {kind: "v{i} is None" if kind is type(None) else
           "type(v{i}) is " + kind.__name__ for kind in SCALAR_TYPES}


def compile_walker(params: str, values_of: Callable, kinds: Tuple,
                   body: str, miss: str, namespace: Dict[str, Any],
                   filename: str) -> Callable:
    """Compile one straight-line walker over a dataclass type's instances,
    once per type, as a record compiles its ``__init__``.

    ``walk(<params>)`` unpacks an instance ``obj``'s field values into
    ``v0 … vn``, checks that each one's exact type is one its field
    declares (``kinds[i]``; a field without is not checked), and returns
    ``body`` if so and ``miss`` if not.  The source text holds field
    indices and type names only: the types, the getter and whatever
    ``body`` names are bound through ``namespace``.  The code is filed
    under its user's ``filename``, so a profile charges it there.
    """
    guard = " and ".join(
        "({})".format(" or ".join(map(SCALARS.get, alts))).format(i=index)
        for index, alts in enumerate(kinds) if alts) or "True"
    unpack = "".join(f"v{index}, " for index in range(len(kinds))) or "_"
    source = (f"def walk({params}):\n    {unpack} = values_of(obj)\n    if "
              f"{guard}:\n        return {body}\n    return {miss}\n")
    namespace.update({t.__name__: t for t in SCALARS}, values_of=values_of)
    exec(compile(source, filename, "exec"), namespace)
    return namespace["walk"]


def choose(index: int, kinds: Tuple[type, ...], code: Callable) -> str:
    """Source of ``code(kind)`` for whichever of ``kinds`` field ``index``
    is.  The guard has checked it is one, so the last goes untested, and
    they are tried last first: ``Optional[X]`` tries ``None`` first, as
    a value is the common case."""
    *tested, last = reversed(kinds)
    return "(" + "".join(f"{code(kind)} if {SCALARS[kind].format(i=index)}"
                         " else " for kind in tested) + f"{code(last)})"


#: Exact scalar type (None: a field not declared scalar) -> the source of
#: field ``v{i}``'s size, but for a string's UTF-8 length, which is taken
#: over all of them at once.
_SIZES = {str: "2", bytes: "2 + len(v{i})", bool: "1", int: "8", float: "8",
          type(None): "1", None: "payload_bytes(v{i})"}

#: Dataclass type -> its compiled sizer (:func:`_compile_sizer`).
#: Filled by :func:`_other_bytes` the first time a type is sized.
_SIZERS: Dict[type, Callable[[Any], int]] = {}


def payload_bytes(obj: Any) -> int:
    """Deterministic wire-size estimate of an RPC payload, in bytes.

    The simulated RPC layer passes Python objects by reference, so
    nothing is actually serialized; this estimator stands in for the
    encoded size a protobuf/JSON codec would produce — close enough in
    shape (per-field tag overhead, length-prefixed strings, fixed-width
    numbers) for *relative* comparisons like full-bundle vs digest sync:
    ``None``/bools 1 byte, numbers 8, strings and bytes 2 + their
    (UTF-8) length, containers and dataclasses 2 + their members (field
    names included), any other object a flat 16.
    It is pure arithmetic over the object graph: no ``id()``, no
    ``repr`` of arbitrary objects, so the same payload always measures
    the same on any run or platform.  ``tests/reference_payload_bytes.py``
    holds the two walkers this replaced as oracles.

    One frame per container: the shapes real messages are made of
    dispatch on their exact type, a dataclass seen before goes to its
    type's compiled sizer (called straight from a container's loop), and
    the strings, numbers, ``None``, bools and bytes in a container are
    sized inside its loop (keys: exact ``str`` only).  Only a nested
    container, a dataclass or an unknown type costs a call; everything
    else (subclasses, sets, a dataclass type's first instance, opaque
    objects) goes through :func:`_other_bytes`.
    Recursion depth is the payload's nesting depth, so a payload nested
    deeper than the interpreter's recursion limit (real messages nest
    about 6 deep), or one that contains itself, raises
    ``RecursionError``.
    """
    kind = type(obj)
    if kind is dict:
        total = 2
        for key in obj:
            if type(key) is str:
                total += 2 + (len(key) if key.isascii()
                              else len(key.encode("utf-8")))
            else:
                total += payload_bytes(key)
        members = obj.values()
    elif kind is list or kind is tuple:
        total = 2
        members = obj
    elif kind in _SIZERS:
        return _SIZERS[kind](obj)
    elif kind is str:
        # UTF-8 length without encoding: ASCII is one byte a char.
        return 2 + (len(obj) if obj.isascii() else len(obj.encode("utf-8")))
    elif kind is float or kind is int:
        return 8
    elif obj is None or kind is bool:
        return 1
    elif kind is bytes:
        return 2 + len(obj)
    else:
        total, members = _other_bytes(obj)
        if members is None:
            return total
    for value in members:
        kind = type(value)
        if kind is str:
            total += 2 + (len(value) if value.isascii()
                          else len(value.encode("utf-8")))
        elif kind is float or kind is int:
            total += 8
        elif value is None or kind is bool:
            total += 1
        elif kind is bytes:
            total += 2 + len(value)
        elif kind in _SIZERS:
            total += _SIZERS[kind](value)
        else:
            total += payload_bytes(value)
    return total


def _other_bytes(obj: Any) -> Tuple[int, Optional[Iterable[Any]]]:
    """``(own bytes, members still to size or None)`` of a node the
    exact-type dispatch does not know.  The ``isinstance`` order is the
    rule set: an ``IntEnum`` is a number, a ``str`` subclass a string, a
    namedtuple a sequence."""
    if isinstance(obj, (int, float)):
        return 8, None
    if isinstance(obj, str):
        return 2 + len(obj.encode("utf-8")), None
    if isinstance(obj, (bytes, bytearray)):
        return 2 + len(obj), None
    if isinstance(obj, dict):
        return 2, itertools.chain.from_iterable(obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 2, obj
    kind = type(obj)
    fields = dataclass_fields(kind)
    if fields is not None:
        _SIZERS[kind] = _compile_sizer(*fields)
        return _SIZERS[kind](obj), None
    # Opaque object: charge a fixed envelope rather than guessing from a
    # repr (which could embed memory addresses and break determinism).
    return 16, None


def _compile_sizer(names: Tuple[str, ...], values_of: Callable,
                   kinds: Tuple) -> Callable:
    """``instance -> size`` for one dataclass type: its own bytes (the
    envelope and the field names) as one constant, a field declared
    scalar by its exact type, the UTF-8 length of every ``str`` field at
    once, over their concatenation, and any other field by a
    :func:`payload_bytes` call.  An instance whose scalar fields hold
    anything else is sized as the tuple of its values, whose envelope is
    the same."""
    own, terms, texts = 2 + sum(map(payload_bytes, names)), ["OWN"], []
    for index, alternatives in enumerate(kinds):
        terms.append(choose(index, alternatives or (None,),
                            lambda kind: _SIZES[kind].format(i=index)))
        if str in (alternatives or ()):
            texts.append(choose(index, alternatives, lambda kind:
                                f"v{index}" if kind is str else "''"))
    if texts:
        terms.append(f"(len(t) if (t := {' + '.join(texts)}).isascii() "
                     "else len(t.encode('utf-8')))")
    return compile_walker("obj", values_of, kinds, " + ".join(terms),
                          "OWN - 2 + payload_bytes(values_of(obj))",
                          {"OWN": own, "payload_bytes": payload_bytes},
                          __file__)


class RpcError(Exception):
    """An RPC failure with a gRPC-style status code."""

    DEADLINE_EXCEEDED = "DEADLINE_EXCEEDED"
    UNAVAILABLE = "UNAVAILABLE"
    NOT_FOUND = "NOT_FOUND"
    FAILED_PRECONDITION = "FAILED_PRECONDITION"
    RESOURCE_EXHAUSTED = "RESOURCE_EXHAUSTED"
    PERMISSION_DENIED = "PERMISSION_DENIED"
    UNAUTHENTICATED = "UNAUTHENTICATED"
    INVALID_ARGUMENT = "INVALID_ARGUMENT"
    INTERNAL = "INTERNAL"

    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail


class RpcServer:
    """Hosts RPC services at a node's well-known RPC port.

    A reply is cached until its call's expiry, for the retransmissions
    that may still arrive; ``_expiries`` queues ``(expiry, request id)``
    in reply order, and each arrival evicts from its front every reply
    whose call has expired.  A reply behind a later expiry waits for it,
    so the cache holds at most the replies of one longest deadline.
    """

    def __init__(self, sim: Simulator, network: Network, node: str):
        self.sim = sim
        self.network = network
        self.node = node
        self._handlers: Dict[Tuple[str, str], Callable] = {}
        # (service, method) -> its span name and process name, built once.
        self._names: Dict[Tuple[str, str], Tuple[str, str]] = {}
        self._response_cache: Dict[Any, Tuple[str, Any]] = {}
        self._expiries: Deque[Tuple[float, Any]] = deque()
        self._in_flight: set = set()
        self.stats = {"requests": 0, "duplicates": 0, "errors": 0,
                      "expired": 0}
        network.bind(node, RPC_PORT, self._handle)

    def register(self, service: str, method: str, handler: Callable) -> None:
        """Register ``handler`` for service/method; see module docstring."""
        key = (service, method)
        if key in self._handlers:
            raise ValueError(f"{service}/{method} already registered on {self.node}")
        self._handlers[key] = handler
        self._names[key] = (f"{service}/{method}", f"rpc:{service}/{method}")

    def intercept(self, service: str, method: str,
                  interceptor: Callable[[Any, Callable], Any]) -> None:
        """Route service/method through ``interceptor(request, handler)``,
        which calls the registered ``handler`` itself: a gRPC-style server
        interceptor, for a host that adds behaviour around a service it
        does not own."""
        handler = self._handlers[(service, method)]
        self._handlers[(service, method)] = \
            lambda request: interceptor(request, handler)

    def close(self) -> None:
        self.network.unbind(self.node, RPC_PORT)

    # -- internals ---------------------------------------------------------------

    def _handle(self, dgram: Datagram) -> None:
        request_id, service, method, payload, reply_node, reply_port, ctx, \
            expiry = dgram.payload
        sim = self.sim
        now = sim.now
        if now > expiry:
            self.stats["expired"] += 1
            return  # its caller has given up: no reply can count
        cache = self._response_cache
        expiries = self._expiries
        while expiries and expiries[0][0] < now:
            del cache[expiries.popleft()[1]]
        if request_id in cache:
            self.stats["duplicates"] += 1
            self._reply(reply_node, reply_port, request_id,
                        *cache[request_id])
            return
        if request_id in self._in_flight:
            self.stats["duplicates"] += 1
            return  # still processing an earlier copy; its reply will cover this
        key = (service, method)
        handlers = self._handlers
        if key not in handlers:
            self._reply(reply_node, reply_port, request_id, "error",
                        RpcError(RpcError.NOT_FOUND, f"{service}/{method}"))
            return
        handler = handlers[key]
        span_name, process_name = self._names[key]
        self.stats["requests"] += 1
        # Restore the caller's trace context for the duration of dispatch so
        # server-side spans (and any processes the handler spawns) nest under
        # the client's rpc span.
        prev_ctx, sim.ctx = sim.ctx, ctx
        tracer = sim.tracer
        span = None
        if tracer is not None:
            span = tracer.child(span_name, component=service, node=self.node)
            if span.recording:
                sim.ctx = span.context
        try:
            try:
                result = handler(payload)
            except RpcError as exc:
                if span is not None:
                    span.end("error")
                self._finish(reply_node, reply_port, request_id, expiry,
                             "error", exc)
                return
            except Exception as exc:  # noqa: BLE001 - surfaced as INTERNAL
                if span is not None:
                    span.end("error")
                self._finish(reply_node, reply_port, request_id, expiry,
                             "error", RpcError(RpcError.INTERNAL, repr(exc)))
                return
            if type(result) is GeneratorType:
                # Only a process outlives this dispatch, so only its
                # request can be in flight when a retransmission arrives.
                self._in_flight.add(request_id)
                proc = sim.spawn(result, name=process_name)
                if span is not None and span.recording:
                    span.end_on(proc)
                proc.add_callback(
                    lambda ev: self._on_process_done(ev, reply_node, reply_port,
                                                     request_id, expiry))
            else:
                if span is not None:
                    span.end()
                # _finish's body for a success, inline: the common reply.
                self._response_cache[request_id] = ("ok", result)
                self._expiries.append((expiry, request_id))
                self.network.send(Datagram(self.node, reply_node, reply_port,
                                           (request_id, "ok", result), 8_000))
        finally:
            sim.ctx = prev_ctx

    def _on_process_done(self, ev, reply_node: str, reply_port: int,
                         request_id: Any, expiry: float) -> None:
        self._in_flight.discard(request_id)
        if ev.ok:
            self._finish(reply_node, reply_port, request_id, expiry, "ok",
                         ev.value)
        else:
            exc = ev.value
            if not isinstance(exc, RpcError):
                exc = RpcError(RpcError.INTERNAL, repr(exc))
            self._finish(reply_node, reply_port, request_id, expiry,
                         "error", exc)

    def _finish(self, reply_node: str, reply_port: int, request_id: Any,
                expiry: float, status: str, value: Any) -> None:
        if status == "error":
            self.stats["errors"] += 1
        self._response_cache[request_id] = (status, value)
        self._expiries.append((expiry, request_id))
        self._reply(reply_node, reply_port, request_id, status, value)

    def _reply(self, reply_node: str, reply_port: int, request_id: Any,
               status: str, value: Any) -> None:
        self.network.send(Datagram(self.node, reply_node, reply_port,
                                   (request_id, status, value), 8_000))


class _PendingCall:
    """Book-keeping for one in-flight call: the completion event, the
    request as sent, its deadline, and the call's one timer.

    ``timer`` is the next retransmission while that lands before
    ``expiry``; from then on it is the deadline itself.  Completion and
    ``close()`` revoke it, so a finished call leaves nothing queued.
    """

    __slots__ = ("event", "payload", "expiry", "timer")

    def __init__(self, event: Event, payload: Any, expiry: float):
        self.event = event
        self.payload = payload
        self.expiry = expiry
        self.timer = None  # ScheduledCall: retransmission, then deadline


class RpcChannel:
    """Client side of the RPC layer; one per (client node, server node) pair."""

    _port_alloc = itertools.count(40_000)

    def __init__(self, sim: Simulator, network: Network, local: str,
                 peer: str):
        self.sim = sim
        self.network = network
        self.local = local
        self.peer = peer
        self.port = next(RpcChannel._port_alloc)
        # Request ids are ``(local, port, n)`` with ``n`` counted here: a
        # port is never handed out twice, so ids are unique.
        self._last_id = 0
        self._pending: Dict[Any, _PendingCall] = {}
        # (service, method) -> "rpc:<service>/<method>", the call's event
        # and span name: one string per method, not one per call.
        self._names: Dict[Tuple[str, str], str] = {}
        # Every client span's tags, shared read-only by all of them (a
        # span copies them only if it is tagged again).
        self._span_tags = MappingProxyType({"peer": peer})
        self.stats = {"calls": 0, "ok": 0, "deadline_exceeded": 0,
                      "errors": 0, "retries": 0}
        network.bind(local, self.port, self._handle)

    def call(self, service: str, method: str, request: Any,
             deadline: float = DEFAULT_DEADLINE) -> Event:
        """Issue a call; the returned event succeeds with the response or
        fails with :class:`RpcError`."""
        self.stats["calls"] += 1
        sim = self.sim
        self._last_id = n = self._last_id + 1
        request_id = (self.local, self.port, n)
        names = self._names
        try:
            name = names[service, method]
        except KeyError:
            name = names[service, method] = f"rpc:{service}/{method}"
        done = Event(sim, name)
        now = sim.now
        expiry = now + deadline
        tracer = sim.tracer
        ctx = sim.ctx
        if tracer is not None:
            span = tracer.child(name, component="rpc", node=self.local,
                                tags=self._span_tags)
            if span.recording:
                span.end_on(done)
                ctx = span.context
        payload = (request_id, service, method, request, self.local, self.port,
                   ctx, expiry)
        record = _PendingCall(done, payload, expiry)
        if now < expiry:  # a zero deadline sends nothing
            self.network.send(Datagram(self.local, self.peer, RPC_PORT,
                                       payload, 8_000))
        # The call's one timer: the first retransmission if it lands
        # before ``expiry``, else the deadline, which lands on ``expiry``
        # itself since that was summed from it.  Registered once armed: a
        # negative deadline fails in the kernel and leaves no record
        # without a timer behind.
        if now + RETRY_INTERVAL < expiry:
            record.timer = sim.schedule(RETRY_INTERVAL, self._retry,
                                        request_id, record)
        else:
            record.timer = sim.schedule(deadline, self._expire, request_id)
        self._pending[request_id] = record
        return done

    def close(self) -> None:
        self.network.unbind(self.local, self.port)
        for record in list(self._pending.values()):
            record.timer.cancel()
            if not record.event.triggered:
                record.event.fail(RpcError(RpcError.UNAVAILABLE, "channel closed"))
        self._pending.clear()

    def pending_calls(self) -> int:
        return len(self._pending)

    # -- internals -----------------------------------------------------------------

    def _retry(self, request_id: Any, record: _PendingCall) -> None:
        """Retransmit, then re-arm the call's one timer as ``call`` does.

        The next retransmission is due at ``now + RETRY_INTERVAL`` exactly
        as the kernel computes it, so it is armed only if it would find
        the call still inside its deadline.  The deadline lands on
        ``expiry`` itself: ``now`` lies within a factor of two of
        ``expiry`` (it is at least one retry interval, and one more
        reaches ``expiry``), so ``expiry - now`` is exact.
        """
        self.stats["retries"] += 1
        self.network.send(Datagram(self.local, self.peer, RPC_PORT,
                                   record.payload, 8_000))
        sim = self.sim
        now = sim.now
        if now + RETRY_INTERVAL < record.expiry:
            record.timer = sim.schedule(RETRY_INTERVAL, self._retry,
                                        request_id, record)
        else:
            record.timer = sim.schedule(record.expiry - now, self._expire,
                                        request_id)

    def _expire(self, request_id: Any) -> None:
        record = self._pending.pop(request_id)
        if not record.event.triggered:
            self.stats["deadline_exceeded"] += 1
            record.event.fail(RpcError(RpcError.DEADLINE_EXCEEDED))

    def _handle(self, dgram: Datagram) -> None:
        request_id, status, value = dgram.payload
        pending = self._pending
        if request_id not in pending:
            return  # a late or duplicate reply
        record = pending[request_id]
        del pending[request_id]
        record.timer.cancel()
        if record.event.triggered:
            return
        if status == "ok":
            self.stats["ok"] += 1
            record.event.succeed(value)
        else:
            self.stats["errors"] += 1
            record.event.fail(value if isinstance(value, RpcError)
                              else RpcError(RpcError.INTERNAL, repr(value)))
