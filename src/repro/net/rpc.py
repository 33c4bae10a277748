"""gRPC-substitute RPC layer.

All Magma-internal communication (RAN-specific frontends to generic AGW
services, AGW to orchestrator, FeG to MNO core) uses gRPC in the real system.
This module provides the equivalent: request/response RPC with

- **deadlines** - every call fails with ``DEADLINE_EXCEEDED`` if no response
  arrives in time;
- **transparent retransmission** - requests and responses are retried within
  the deadline, so calls survive lossy backhaul exactly as gRPC-over-TCP
  does (the paper's §3.1 contrast with raw GTP-C);
- **idempotent dispatch** - servers de-duplicate retried requests by id and
  re-send the cached response.

Handlers may be plain callables (request -> response) or generator functions
(request -> generator), which the server runs as simulated processes so they
can consume CPU model time, call other services, etc.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from ..obs import profiler as _profiler
from ..sim.kernel import Event, Simulator
from .simnet import Datagram, Network

RPC_PORT = 50051
DEFAULT_DEADLINE = 5.0
DEFAULT_RETRY_INTERVAL = 0.25


#: ``instance -> tuple of its field values``, for one dataclass type.
ValuesOf = Callable[[Any], Tuple[Any, ...]]


def dataclass_fields(kind: type) -> \
        Optional[Tuple[Tuple[str, ...], ValuesOf]]:
    """``(field names, values getter)`` of dataclass type ``kind``, in
    definition order, or None when it is not one.

    The one place the wire sizer here and the digest encoder
    (``core.sync.digest``) ask ``dataclasses`` about a class: each keeps
    what it derives from the names per *type*, so a value costs one
    C-level ``attrgetter`` call instead of a ``dataclasses.fields()``
    scan and a ``getattr`` per field.
    """
    if not dataclasses.is_dataclass(kind):
        return None
    names = tuple(f.name for f in dataclasses.fields(kind))
    if len(names) > 1:
        return names, operator.attrgetter(*names)
    # attrgetter needs a name and hands back a bare value for just one.
    return names, lambda obj: tuple(getattr(obj, name) for name in names)


#: Dataclass type -> ``(2 + the size of its field names, values getter)``:
#: the part of an instance's size that is the same for every instance.
#: Filled by :func:`_other_bytes` the first time a type is sized.
_DATACLASS_PLANS: Dict[type, Tuple[int, ValuesOf]] = {}


def _payload_bytes(obj: Any) -> int:
    """One iterative depth-first pass over the object graph (see
    :func:`payload_bytes`).

    ``stack`` holds one iterator per container being walked, so scalars
    are sized where they are met and memory is O(nesting depth) however
    wide the payload.  The shapes real messages are made of dispatch on
    their exact type, a dataclass seen before on its per-type plan (only
    its values are walked); everything else (subclasses, sets, a
    dataclass type's first instance, opaque objects) goes through
    :func:`_other_bytes`.
    """
    total = 0
    stack = [iter((obj,))]
    while stack:
        for node in stack[-1]:
            kind = type(node)
            if kind is str:
                # UTF-8 length without encoding: ASCII is one byte a char.
                total += 2 + (len(node) if node.isascii()
                              else len(node.encode("utf-8")))
            elif kind is float or kind is int:
                total += 8
            elif kind is dict:
                total += 2
                stack.append(itertools.chain(node, node.values()))
                break
            elif kind is list or kind is tuple:
                total += 2
                stack.append(iter(node))
                break
            elif node is None or kind is bool:
                total += 1
            elif kind is bytes:
                total += 2 + len(node)
            elif kind in _DATACLASS_PLANS:
                own, values_of = _DATACLASS_PLANS[kind]
                total += own
                stack.append(iter(values_of(node)))
                break
            else:
                own, members = _other_bytes(node)
                total += own
                if members is not None:
                    stack.append(iter(members))
                    break
        else:
            stack.pop()
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
        names, values_of = fields
        own = 2 + sum(map(_payload_bytes, names))
        _DATACLASS_PLANS[kind] = (own, values_of)
        return own, values_of(obj)
    # Opaque object: charge a fixed envelope rather than guessing from a
    # repr (which could embed memory addresses and break determinism).
    return 16, None


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
    the same on any run or platform.  ``tests/test_rpc_payload_bytes.py``
    holds the recursive rule-per-line walker this replaced as the oracle.

    The wrapper exists for the self-profiler: the walk stays inside
    ``_payload_bytes`` so only the entry point pays the scope cost, and
    the profiled and unprofiled paths compute identical sizes.
    """
    prof = _profiler.ACTIVE
    if prof is None:
        return _payload_bytes(obj)
    prof.push("rpc.serialize")
    try:
        return _payload_bytes(obj)
    finally:
        prof.pop()


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
    """Hosts RPC services at a node's well-known RPC port."""

    def __init__(self, sim: Simulator, network: Network, node: str,
                 port: int = RPC_PORT):
        self.sim = sim
        self.network = network
        self.node = node
        self.port = port
        self._handlers: Dict[Tuple[str, str], Callable] = {}
        self._response_cache: Dict[Any, Tuple[str, Any]] = {}
        self._in_flight: set = set()
        self.stats = {"requests": 0, "duplicates": 0, "errors": 0}
        network.bind(node, port, self._handle)

    def register(self, service: str, method: str, handler: Callable) -> None:
        """Register ``handler`` for service/method; see module docstring."""
        key = (service, method)
        if key in self._handlers:
            raise ValueError(f"{service}/{method} already registered on {self.node}")
        self._handlers[key] = handler

    def unregister_service(self, service: str) -> None:
        for key in [k for k in self._handlers if k[0] == service]:
            del self._handlers[key]

    def close(self) -> None:
        self.network.unbind(self.node, self.port)

    # -- internals ---------------------------------------------------------------

    def _handle(self, dgram: Datagram) -> None:
        prof = _profiler.ACTIVE
        if prof is None:
            self._dispatch(dgram)
            return
        prof.push("rpc.deliver")
        try:
            self._dispatch(dgram)
        finally:
            prof.pop()

    def _dispatch(self, dgram: Datagram) -> None:
        request_id, service, method, payload, reply_node, reply_port, ctx = \
            dgram.payload
        cached = self._response_cache.get(request_id)
        if cached is not None:
            self.stats["duplicates"] += 1
            self._reply(reply_node, reply_port, request_id, *cached)
            return
        if request_id in self._in_flight:
            self.stats["duplicates"] += 1
            return  # still processing an earlier copy; its reply will cover this
        handler = self._handlers.get((service, method))
        if handler is None:
            self._reply(reply_node, reply_port, request_id, "error",
                        RpcError(RpcError.NOT_FOUND, f"{service}/{method}"))
            return
        self.stats["requests"] += 1
        self._in_flight.add(request_id)
        # Restore the caller's trace context for the duration of dispatch so
        # server-side spans (and any processes the handler spawns) nest under
        # the client's rpc span.
        sim = self.sim
        prev_ctx, sim.ctx = sim.ctx, ctx
        tracer = sim.tracer
        span = None
        if tracer is not None:
            span = tracer.child(f"{service}/{method}", component=service,
                                node=self.node)
            if span.recording:
                sim.ctx = span.context
        try:
            try:
                result = handler(payload)
            except RpcError as exc:
                if span is not None:
                    span.end("error")
                self._finish(reply_node, reply_port, request_id, "error", exc)
                return
            except Exception as exc:  # noqa: BLE001 - surfaced as INTERNAL
                if span is not None:
                    span.end("error")
                self._finish(reply_node, reply_port, request_id, "error",
                             RpcError(RpcError.INTERNAL, repr(exc)))
                return
            if _is_generator(result):
                proc = self.sim.spawn(result, name=f"rpc:{service}/{method}")
                if span is not None and span.recording:
                    span.end_on(proc)
                proc.add_callback(
                    lambda ev: self._on_process_done(ev, reply_node, reply_port,
                                                     request_id))
            else:
                if span is not None:
                    span.end()
                self._finish(reply_node, reply_port, request_id, "ok", result)
        finally:
            sim.ctx = prev_ctx

    def _on_process_done(self, ev, reply_node: str, reply_port: int,
                         request_id: Any) -> None:
        if ev.ok:
            self._finish(reply_node, reply_port, request_id, "ok", ev.value)
        else:
            exc = ev.value
            if not isinstance(exc, RpcError):
                exc = RpcError(RpcError.INTERNAL, repr(exc))
            self._finish(reply_node, reply_port, request_id, "error", exc)

    def _finish(self, reply_node: str, reply_port: int, request_id: Any,
                status: str, value: Any) -> None:
        if status == "error":
            self.stats["errors"] += 1
        self._in_flight.discard(request_id)
        self._response_cache[request_id] = (status, value)
        if len(self._response_cache) > 10_000:
            # Bound the cache; drop roughly the older half.
            for key in list(self._response_cache)[:5_000]:
                del self._response_cache[key]
        self._reply(reply_node, reply_port, request_id, status, value)

    def _reply(self, reply_node: str, reply_port: int, request_id: Any,
               status: str, value: Any) -> None:
        self.network.send(Datagram(self.node, reply_node, reply_port,
                                   (request_id, status, value), 8_000))


class _PendingCall:
    """Book-keeping for one in-flight call: the completion event plus the
    cancelable timer handles, so completion revokes the expiry/retry timers
    instead of leaving them to rot in the scheduler until the deadline."""

    __slots__ = ("event", "expire", "attempt")

    def __init__(self, event: Event):
        self.event = event
        self.expire = None   # ScheduledCall for the deadline
        self.attempt = None  # ScheduledCall for the next retransmission

    def cancel_timers(self) -> None:
        # release() (cancel + freelist return) is safe here: the handles
        # live only on this record and both references die right now.
        if self.expire is not None:
            self.expire.release()
            self.expire = None
        if self.attempt is not None:
            self.attempt.release()
            self.attempt = None


class RpcChannel:
    """Client side of the RPC layer; one per (client node, server node) pair.

    Calls where client and server share a node take a loopback fast path:
    the request skips routing/loss/retransmission entirely (in-process
    delivery cannot lose datagrams), leaving only the deadline timer — which,
    like the retry timer on the remote path, is cancelled the moment the
    response lands.
    """

    _port_alloc = itertools.count(40_000)
    _request_ids = itertools.count(1)

    def __init__(self, sim: Simulator, network: Network, local: str, peer: str,
                 peer_port: int = RPC_PORT,
                 retry_interval: float = DEFAULT_RETRY_INTERVAL):
        self.sim = sim
        self.network = network
        self.local = local
        self.peer = peer
        self.peer_port = peer_port
        self.retry_interval = retry_interval
        self.port = next(RpcChannel._port_alloc)
        self._pending: Dict[Any, _PendingCall] = {}
        self.stats = {"calls": 0, "ok": 0, "deadline_exceeded": 0,
                      "errors": 0, "retries": 0, "local_fast_path": 0}
        network.bind(local, self.port, self._handle)

    def call(self, service: str, method: str, request: Any,
             deadline: float = DEFAULT_DEADLINE) -> Event:
        """Issue a call; the returned event succeeds with the response or
        fails with :class:`RpcError`."""
        prof = _profiler.ACTIVE
        if prof is None:
            return self._call(service, method, request, deadline)
        prof.push("rpc.call")
        try:
            return self._call(service, method, request, deadline)
        finally:
            prof.pop()

    def _call(self, service: str, method: str, request: Any,
              deadline: float) -> Event:
        self.stats["calls"] += 1
        request_id = (self.local, self.port, next(RpcChannel._request_ids))
        done = self.sim.event(f"rpc:{service}/{method}")
        record = _PendingCall(done)
        self._pending[request_id] = record
        expiry = self.sim.now + deadline
        tracer = self.sim.tracer
        ctx = self.sim.ctx
        if tracer is not None:
            span = tracer.child(f"rpc:{service}/{method}", component="rpc",
                                node=self.local, tags={"peer": self.peer})
            if span.recording:
                span.end_on(done)
                ctx = span.context
        payload = (request_id, service, method, request, self.local, self.port,
                   ctx)
        if self.peer == self.local:
            # Co-located fast path: lossless loopback, no retransmission
            # chain; only the (cancelable) deadline timer is scheduled.
            self.stats["local_fast_path"] += 1
            self.network.send_local(
                Datagram(self.local, self.peer, self.peer_port, payload, 8_000))
        else:
            self._attempt(request_id, payload, expiry, first=True)
        record.expire = self.sim.schedule(deadline, self._expire, request_id)
        return done

    def close(self) -> None:
        self.network.unbind(self.local, self.port)
        for request_id, record in list(self._pending.items()):
            record.cancel_timers()
            if not record.event.triggered:
                record.event.fail(RpcError(RpcError.UNAVAILABLE, "channel closed"))
        self._pending.clear()

    def pending_calls(self) -> int:
        return len(self._pending)

    # -- internals -----------------------------------------------------------------

    def _attempt(self, request_id: Any, payload: Any, expiry: float,
                 first: bool = False) -> None:
        record = self._pending.get(request_id)
        if record is None or self.sim.now >= expiry:
            return
        if not first:
            self.stats["retries"] += 1
        self.network.send(Datagram(self.local, self.peer, self.peer_port,
                                   payload, 8_000))
        record.attempt = self.sim.schedule(self.retry_interval, self._attempt,
                                           request_id, payload, expiry)

    def _expire(self, request_id: Any) -> None:
        record = self._pending.pop(request_id, None)
        if record is None:
            return
        record.cancel_timers()
        if not record.event.triggered:
            self.stats["deadline_exceeded"] += 1
            record.event.fail(RpcError(RpcError.DEADLINE_EXCEEDED))

    def _handle(self, dgram: Datagram) -> None:
        request_id, status, value = dgram.payload
        record = self._pending.pop(request_id, None)
        if record is None:
            return
        record.cancel_timers()
        if record.event.triggered:
            return
        if status == "ok":
            self.stats["ok"] += 1
            record.event.succeed(value)
        else:
            self.stats["errors"] += 1
            record.event.fail(value if isinstance(value, RpcError)
                              else RpcError(RpcError.INTERNAL, repr(value)))


def _is_generator(obj: Any) -> bool:
    return hasattr(obj, "send") and hasattr(obj, "throw")
