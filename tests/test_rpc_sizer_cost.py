"""Cost of sizing a many-leaf reconcile exchange: one frame per nested
container, with every string, number, ``None``, bool and ``bytes`` in a
container sized inside that container's loop.

The leaf round of a digest walk is the widest message the sync layer
sizes: the gateway's ``ns_leaves`` request carries every key digest of
every divergent leaf, and the orchestrator's response a ``set`` /
``delete`` delta per leaf.  Both are built here through the real
``ReconcileServer`` and ``ReconcileClient``.  The checks count executed
calls under ``cProfile`` (the benchmark's ``host_calls`` counter), so
they are deterministic.
"""

from repro.core.agw import SubscriberProfile
from repro.core.orchestrator import ConfigStore
from repro.core.sync import (DigestIndex, DigestMirror, ReconcileClient,
                             ReconcileServer)
from repro.net.rpc import payload_bytes

from costs import calls

#: Measured 1,094 and 468.  The iterative walker this replaced
#: (``tests/reference_payload_bytes.py``) spent 1,518 and 637: a chain
#: or iterator per container and a loop re-entry per nested one.  Each
#: string still costs two calls (``isascii`` and ``len``).  The slack is
#: for other interpreters.
RESPONSE_BUDGET = 1200
REQUEST_BUDGET = 520


def profile(index: int, generation: int = 0) -> SubscriberProfile:
    return SubscriberProfile(imsi=f"00101{index:010d}",
                             k=bytes([index % 251]) * 16,
                             opc=bytes([(index + generation) % 241 + 1]) * 16)


def leaf_round():
    """``(ns_leaves request, its response)`` of a walk over 40 adds, 12
    deletes and 6 rewrites on a 600-entry namespace."""
    store = ConfigStore()
    applied = {}
    for index in range(600):
        entry = profile(index)
        store.put("subscribers", entry.imsi, entry)
        applied[entry.imsi] = entry
    digests = DigestIndex(store)
    mirror = DigestMirror()
    mirror.rebuild("subscribers", applied)
    for index in range(600, 640):
        entry = profile(index)
        store.put("subscribers", entry.imsi, entry)
    for index in range(0, 600, 50):
        store.delete("subscribers", profile(index).imsi)
    for index in range(7, 600, 100):
        entry = profile(index, generation=1)
        store.put("subscribers", entry.imsi, entry)
    server = ReconcileServer(digests, store,
                             lambda namespace, network_id: namespace)
    client = ReconcileClient(mirror, lambda *delta: None, "default", "gw-1")
    request = client.start({"sync": server.sync_info("default",
                                                     mirror.roots())})
    while "ns_leaves" not in request or not request["ns_leaves"]:
        request = client.feed(server.handle(request))
    return request, server.handle(request)


def test_a_many_leaf_exchange_stays_inside_its_call_budget():
    request, response = leaf_round()
    leaves = request["ns_leaves"]["subscribers"]
    deltas = response["deltas"]["subscribers"]
    assert len(leaves) == len(deltas) > 40
    payload_bytes(profile(0))       # the first profile compiles its plan
    assert calls(payload_bytes, response) <= RESPONSE_BUDGET
    assert calls(payload_bytes, request) <= REQUEST_BUDGET
