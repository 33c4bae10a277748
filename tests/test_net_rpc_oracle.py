"""The RPC layer completes every call as the retired request/reply path did.

``reference_rpc`` holds the server and channel as they were before the
reply, the first timer and the request id lost their pass-through
frames.  Random call streams run against it and against the product side
by side, each on its own simulator and an equally seeded RNG registry:
one or two clients reach the server over a random chain of lossy,
jittery, bandwidth-limited hops; calls go out at random instants with
random deadlines (zero included) to plain, generator, raising and
``RpcError``-raising handlers and to a method nobody registered; and the
server's node crashes and recovers between them.  Both sides must
complete every call with the same outcome at the same instant, keep the
same channel, server and network ``stats``, and number the same kernel
entries - an extra or a missing send, timer or trigger shows there.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from costs import entries_scheduled
from reference_rpc import ReferenceRpcChannel, ReferenceRpcServer
from repro.net import Link, Network, RpcChannel, RpcError, RpcServer
from repro.sim import RngRegistry, Simulator

METHODS = ("plain", "gen", "raise", "rpc_error", "gen_error", "missing")

links = st.builds(
    Link,
    latency=st.sampled_from([0.001, 0.01, 0.1, 0.3]),
    loss=st.sampled_from([0.0, 0.0, 0.2, 0.5]),
    jitter=st.sampled_from([0.0, 0.0, 0.02]),
    bandwidth_mbps=st.sampled_from([None, None, 1.0]))
#: ``(at, client, method, deadline, handler delay)``.
calls = st.lists(st.tuples(
    st.sampled_from([0.0, 0.0, 0.05, 0.5, 1.0, 3.0]),
    st.sampled_from([0, 0, 1]),
    st.sampled_from(METHODS),
    st.sampled_from([0.0, 0.1, 0.25, 0.3, 1.0, 2.5, 5.0]),
    st.sampled_from([0.0, 0.2, 1.5])), min_size=1, max_size=12)
#: ``(at, up)`` for the server's node.
faults = st.lists(st.tuples(st.sampled_from([0.02, 0.4, 1.2, 2.0, 4.0]),
                            st.booleans()), max_size=4)


def replay(server_kind, channel_kind, seed, hops, side_link, stream,
           crashes):
    """Run ``stream`` on a fresh simulator; each call's outcome, every
    ``stats`` and the kernel's entry count."""
    sim = Simulator()
    net = Network(sim, RngRegistry(seed))
    chain = ["client"] + [f"hop{i}" for i in range(1, len(hops))] \
        + ["server"]
    for a, b, link in zip(chain, chain[1:], hops):
        net.connect(a, b, link)
    # The second client hangs off the node next to the first.
    net.connect("client2", chain[1], side_link)
    server = server_kind(sim, net, "server")

    def gen(request):
        yield sim.timeout(request[1])
        return ("done", request[0])

    def gen_error(request):
        yield sim.timeout(request[1])
        if request[1] > 1.0:
            raise ValueError(f"late {request[0]}")
        raise RpcError(RpcError.UNAVAILABLE, f"busy {request[0]}")

    def raising(request):
        raise ValueError(f"bad {request[0]}")

    def rpc_error(request):
        raise RpcError(RpcError.FAILED_PRECONDITION, f"no {request[0]}")

    server.register("svc", "plain", lambda request: ("echo", request[0]))
    server.register("svc", "gen", gen)
    server.register("svc", "raise", raising)
    server.register("svc", "rpc_error", rpc_error)
    server.register("svc", "gen_error", gen_error)
    channels = [channel_kind(sim, net, "client", "server"),
                channel_kind(sim, net, "client2", "server")]
    outcomes = {}

    def issue(index, client, method, deadline, delay):
        done = channels[client].call("svc", method, (index, delay), deadline)

        def record(event):
            value = event.value
            if isinstance(value, RpcError):
                value = ("RpcError", value.code, value.detail)
            outcomes[index] = (sim.now, event.ok, value)
        done.add_callback(record)

    for index, (at, client, method, deadline, delay) in enumerate(stream):
        sim.schedule(at, issue, index, client, method, deadline, delay)
    for at, up in crashes:
        sim.schedule(at, net.set_node_up, "server", up)
    sim.run()
    return (outcomes, [dict(channel.stats) for channel in channels],
            [channel.pending_calls() for channel in channels],
            dict(server.stats), dict(net.stats), entries_scheduled(sim))


#: A lossy two-hop route whose retransmissions reach the server as
#: duplicates, and a server that crashes with a generator call in flight
#: and recovers before that caller's deadline.
CRASH_MID_CALL = dict(
    seed=7,
    hops=[Link(0.05, loss=0.5), Link(0.01)],
    side_link=Link(0.02),
    stream=[(0.0, 0, "gen", 5.0, 1.5), (0.0, 1, "plain", 2.5, 0.0),
            (0.5, 0, "gen_error", 1.0, 0.2), (1.0, 1, "missing", 0.3, 0.0),
            (3.0, 0, "rpc_error", 0.0, 0.0), (3.0, 1, "raise", 1.0, 0.0)],
    crashes=[(0.4, False), (1.2, True)])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       hops=st.lists(links, min_size=1, max_size=3), side_link=links,
       stream=calls, crashes=faults)
@example(**CRASH_MID_CALL)
def test_every_call_completes_as_the_retired_rpc_path_did(
        seed, hops, side_link, stream, crashes):
    def run(server_kind, channel_kind):
        # Each side gets its own copy of every Link (a Link is mutable).
        copies = [Link(link.latency, link.loss, link.jitter,
                       link.bandwidth_mbps) for link in hops + [side_link]]
        return replay(server_kind, channel_kind, seed, copies[:-1],
                      copies[-1], stream, crashes)

    product = run(RpcServer, RpcChannel)
    reference = run(ReferenceRpcServer, ReferenceRpcChannel)
    assert product[0] == reference[0]
    assert len(product[0]) == len(stream)
    assert product[1:] == reference[1:]
