"""Reference RPC layer: the request/reply path before its pass-through
frames were removed, the round-trip oracle.

``repro.net.rpc`` sends a plain handler's reply from the server's
dispatch itself, arms a call's first timer inside ``call`` and numbers
request ids per channel.  These classes are the retired code, kept as it
was: a reply goes ``_finish`` -> ``_reply``, every timer is armed through
``_arm``, and request ids come from one counter for every channel.  They
run on the product's kernel, network, ``Datagram`` and ``RpcError``, so
the two can only differ in what they send and when, which replies they
cache and which calls they complete — which is what
``test_net_rpc_oracle.py`` compares.
"""

import itertools
from collections import deque
from types import GeneratorType, MappingProxyType
from typing import Any, Callable, Deque, Dict, Tuple

from repro.net.rpc import (
    DEFAULT_DEADLINE,
    RETRY_INTERVAL,
    RPC_PORT,
    RpcError,
)
from repro.net.simnet import Datagram, Network
from repro.sim.kernel import Event, Simulator


class ReferenceRpcServer:
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
        handler = self._handlers.get(key)
        if handler is None:
            self._reply(reply_node, reply_port, request_id, "error",
                        RpcError(RpcError.NOT_FOUND, f"{service}/{method}"))
            return
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
                self._finish(reply_node, reply_port, request_id, expiry,
                             "ok", result)
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


class ReferenceRpcChannel:
    """Client side of the RPC layer; one per (client node, server node) pair."""

    _port_alloc = itertools.count(40_000)
    _request_ids = itertools.count(1)

    def __init__(self, sim: Simulator, network: Network, local: str,
                 peer: str):
        self.sim = sim
        self.network = network
        self.local = local
        self.peer = peer
        self.port = next(ReferenceRpcChannel._port_alloc)
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
        request_id = (self.local, self.port, next(ReferenceRpcChannel._request_ids))
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
        # Registered once armed: a negative deadline fails in the kernel
        # and leaves no record without a timer behind.
        self._arm(request_id, record, now, deadline)
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

    def _arm(self, request_id: Any, record: _PendingCall, now: float,
             to_expiry: float) -> None:
        """Arm the call's one timer: the next retransmission if that
        lands before ``expiry``, else the deadline, ``to_expiry`` seconds
        from ``now``.

        The retransmission is due at ``now + RETRY_INTERVAL`` exactly as
        the kernel computes it, so it is armed only if it would find the
        call still inside its deadline.  The deadline lands on ``expiry``
        itself: at call time ``to_expiry`` is the deadline that ``expiry``
        was summed from, and on a retransmission ``now`` lies within a
        factor of two of ``expiry`` (it is at least one retry interval,
        and one more reaches ``expiry``), so ``expiry - now`` is exact.
        """
        if now + RETRY_INTERVAL < record.expiry:
            record.timer = self.sim.schedule(RETRY_INTERVAL, self._retry,
                                             request_id, record)
        else:
            record.timer = self.sim.schedule(to_expiry, self._expire,
                                             request_id)

    def _retry(self, request_id: Any, record: _PendingCall) -> None:
        self.stats["retries"] += 1
        self.network.send(Datagram(self.local, self.peer, RPC_PORT,
                                   record.payload, 8_000))
        now = self.sim.now
        self._arm(request_id, record, now, record.expiry - now)

    def _expire(self, request_id: Any) -> None:
        record = self._pending.pop(request_id)
        if not record.event.triggered:
            self.stats["deadline_exceeded"] += 1
            record.event.fail(RpcError(RpcError.DEADLINE_EXCEEDED))

    def _handle(self, dgram: Datagram) -> None:
        request_id, status, value = dgram.payload
        record = self._pending.pop(request_id, None)
        if record is None:
            return
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
