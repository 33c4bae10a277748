"""End-to-end digest sync over real AGWs, plus the rootless golden.

The first half drives a real ``AccessGateway`` against an orchestrator
and asserts the digest path ships leaf deltas (not bundles) for
incremental changes.  The second half pins the reply to a gateway that
sends no digest roots: it is the retired full-bundle protocol, byte for
byte, against a wire log taken from that protocol before it was deleted.
"""

import hashlib

from invariants import wire_byte_violations
from repro.core.agw import AgwConfig, SubscriberProfile
from repro.core.policy import PolicyRule
from repro.core.sync import canonical_bytes
from repro.deploy import build, subscriber_keys
from repro.lte import make_imsi


def logged(send_roots=True, num_subscribers=3, num_enbs=0):
    """One real AGW checking in every 5s, with a wire/event recorder.

    ``log`` captures, in order, every check-in and reconcile the
    orchestrator served: ``(time, kind, canonical response bytes)``.
    Comparing two runs' logs compares both event order *and* bytes.
    """
    d = build(num_enbs=num_enbs, num_ues=num_subscribers, backhaul="fiber",
              config=AgwConfig(checkin_interval=5.0))
    sim, orc, agw = d.sim, d.orc, d.agw
    if not send_roots:
        # A pre-digest client: same check-in cadence, no digest roots
        # (the server treats None exactly like the field being absent).
        agw.magmad.mirror.roots = lambda: None
    log = []
    statesync = orc.shards[0].statesync
    real_checkin = statesync.handle_checkin
    real_reconcile = statesync.handle_reconcile

    def spy_checkin(request):
        response = real_checkin(request)
        log.append((sim.now, "checkin", canonical_bytes(response)))
        return response

    def spy_reconcile(request):
        response = real_reconcile(request)
        log.append((sim.now, "reconcile", canonical_bytes(response)))
        return response

    statesync.handle_checkin = spy_checkin
    statesync.handle_reconcile = spy_reconcile
    return sim, orc, agw, log, d.monitor


# -- the digest path over a real gateway --------------------------------------------


def test_incremental_change_ships_leaf_delta_not_bundle():
    sim, orc, agw, log, monitor = logged(num_subscribers=200)
    sim.run(until=7.0)                       # first check-in: full bundle
    ss = orc.shards[0].statesync
    assert ss.stats["config_pushes"] == 1    # version 0 -> full bundle
    assert len(agw.subscriberdb) == 200
    bundle_tx = ss.stats["tx_bytes"]

    k, opc = subscriber_keys(999)
    orc.add_subscriber(SubscriberProfile(imsi=make_imsi(999), k=k, opc=opc))
    sim.run(until=13.0)                      # second check-in: digest walk
    assert ss.stats["config_pushes"] == 1    # no second bundle
    assert ss.stats["digest_syncs"] == 1
    assert agw.magmad.stats["reconciles"] == 1
    assert agw.magmad.stats["delta_upserts"] == 1
    assert agw.magmad.stats["delta_tombstones"] == 0
    assert agw.subscriberdb.get(make_imsi(999)) is not None
    assert agw.subscriberdb.version == orc.store.version
    # The walk converged: the gateway's mirror now matches the store.
    assert agw.magmad.mirror.roots() == ss.reconciler.roots("default")
    # ... and it was cheap: the whole digest exchange (opener + walk +
    # delta) cost a small fraction of re-shipping the 200-entry bundle.
    delta_tx = ss.stats["tx_bytes"] - bundle_tx
    assert delta_tx < bundle_tx / 10
    # Wire sizes are counters: the walk's reconcile replies are in them.
    assert ss.stats["reconcile_requests"] >= 1
    assert delta_tx > 0
    assert agw.magmad.stats["checkin_rx_bytes"] > 0


def test_both_ends_of_every_exchange_count_the_same_bytes():
    d = build(num_ues=2, backhaul="fiber")
    d.sim.run(until=200.0)
    k, opc = subscriber_keys(999)
    d.orc.add_subscriber(SubscriberProfile(imsi=make_imsi(999), k=k, opc=opc))
    d.sim.run(until=400.0)
    ss = d.orc.shards[0].statesync
    assert (ss.stats["checkins"], ss.stats["reconcile_requests"]) == (6, 2)
    assert wire_byte_violations(d.orc, [d.agw]) == []
    assert ss.stats["tx_bytes"] == d.agw.magmad.stats["checkin_rx_bytes"]
    # A reply counted 8 B short on the sending side is caught.
    ss.stats["tx_bytes"] -= 8
    received = d.agw.magmad.stats["checkin_rx_bytes"]
    assert wire_byte_violations(d.orc, [d.agw]) == [
        f"orc-s0 counts tx_bytes={received - 8}, its gateways "
        f"checkin_rx_bytes={received}"]


def test_deletion_propagates_as_tombstone():
    sim, orc, agw, log, monitor = logged()
    sim.run(until=7.0)
    orc.delete_subscriber(make_imsi(2))
    sim.run(until=13.0)
    assert agw.magmad.stats["delta_tombstones"] == 1
    assert agw.subscriberdb.get(make_imsi(2)) is None
    assert len(agw.subscriberdb) == 2
    assert agw.magmad.mirror.roots() == \
        orc.shards[0].statesync.reconciler.roots("default")


def test_malformed_leaf_path_is_an_error_reply_and_applies_nothing():
    """A reconcile request naming ``(0, 17)`` - digits that used to alias
    bucket ``(1, 1)`` - is refused by the orchestrator's real RPC server;
    the gateway abandons the walk with its stores untouched (it used to
    receive a tombstone for every key it had listed) and converges on the
    next check-in."""
    sim, orc, agw, log, monitor = logged(num_subscribers=200)
    sim.run(until=7.0)
    before = set(agw.subscriberdb.all_imsis())
    assert len(before) == 200
    k, opc = subscriber_keys(999)
    orc.add_subscriber(SubscriberProfile(imsi=make_imsi(999), k=k, opc=opc))
    channel = agw.magmad._orc_channel
    real_call, corrupted = channel.call, []

    def corrupting_call(service, method, request, **kwargs):
        leaves = request.get("ns_leaves", {}).get("subscribers") \
            if method == "reconcile" and not corrupted else None
        if leaves:
            corrupted.append(dict(leaves))
            entries = leaves.pop(next(iter(leaves)))
            assert entries                   # keys the gateway holds
            leaves[(0, 17)] = entries
        return real_call(service, method, request, **kwargs)

    channel.call = corrupting_call
    errors = orc.server.stats["errors"]
    sim.run(until=13.0)                      # second check-in: refused walk
    assert corrupted
    assert orc.server.stats["errors"] == errors + 1
    assert agw.magmad.stats["reconciles_aborted"] == 1
    assert agw.magmad.stats["delta_tombstones"] == 0
    assert set(agw.subscriberdb.all_imsis()) == before
    sim.run(until=19.0)                      # third check-in: a clean walk
    assert agw.magmad.stats["reconciles"] == 1
    assert set(agw.subscriberdb.all_imsis()) == before | {make_imsi(999)}
    assert agw.magmad.mirror.roots() == \
        orc.shards[0].statesync.reconciler.roots("default")


def test_ran_config_and_policy_tombstone_reach_the_enodeb_device():
    """Desired RAN config (plain dict / scalar values, not dataclasses)
    and a policy deletion converge through one digest walk whose deltas
    span several leaf buckets — all the way to the eNodeB device record
    that enodebd pushes to."""
    sim, orc, agw, log, monitor = logged(num_enbs=1)
    orc.set_ran_config("pci", 7)
    orc.upsert_policy(PolicyRule(policy_id="gold", rate_limit_mbps=50.0))
    sim.run(until=7.0)                       # first check-in: full bundle
    device = agw.enodebd.device("enb-1")
    assert device.config == {"pci": 7}
    assert agw.policydb.has("gold")

    tx_power = {"dbm": 20, "mimo": [2, 2], "boost": None}
    tree = agw.magmad.mirror.trees["ran"]
    assert len({tree.path_for_key(key)
                for key in ("earfcn", "tx_power", "pci")}) == 3
    orc.set_ran_config("earfcn", 2)
    orc.set_ran_config("tx_power", tx_power)
    orc.store.delete("ran", "pci")
    orc.delete_policy("gold")
    sim.run(until=13.0)                      # second check-in: digest walk
    assert orc.shards[0].statesync.stats["config_pushes"] == 1    # no second bundle
    assert agw.magmad.stats["reconciles"] == 1
    assert agw.magmad.stats["delta_upserts"] == 2
    assert agw.magmad.stats["delta_tombstones"] == 2
    assert agw.enodebd.desired_config == {"earfcn": 2, "tx_power": tx_power}
    assert device.config == agw.enodebd.desired_config
    assert device.config_version == orc.store.version
    assert not agw.policydb.has("gold")
    assert agw.magmad.config_version == orc.store.version
    assert agw.magmad.mirror.roots() == \
        orc.shards[0].statesync.reconciler.roots("default")


def test_identical_rewrite_fast_forwards_without_transfer():
    sim, orc, agw, log, monitor = logged()
    sim.run(until=7.0)
    # Rewriting the same profile bumps the store version but leaves the
    # content digest unchanged: the gateway fast-forwards, no reconcile.
    k, opc = subscriber_keys(1)
    orc.add_subscriber(SubscriberProfile(imsi=make_imsi(1), k=k, opc=opc))
    assert orc.store.version > agw.magmad.config_version
    sim.run(until=13.0)
    assert orc.shards[0].statesync.stats["digest_elisions"] == 1
    assert agw.magmad.stats["digest_fast_forwards"] == 1
    assert agw.magmad.stats["reconciles"] == 0
    assert agw.magmad.config_version == orc.store.version


def test_in_sync_gateway_gets_no_config_and_no_walk():
    sim, orc, agw, log, monitor = logged()
    sim.run(until=23.0)                      # several idle check-ins
    ss = orc.shards[0].statesync
    assert agw.magmad.stats["checkins_ok"] >= 4
    assert ss.stats["config_pushes"] == 1    # only the first sync
    assert ss.stats["digest_syncs"] == 0
    assert ss.stats["digest_elisions"] == 0  # version matched; no walk


# -- rootless check-ins: the retired bundle protocol, pinned ----------------------

#: BLAKE2b (16 bytes) over every served exchange's ``repr(time)``, kind and
#: canonical response bytes, and those responses' sizes, for
#: ``run_churn(send_roots=False)``.  Taken from the bundle-only protocol
#: (``StateSync`` before digest sync became its only mode) on a rootless
#: client; the digest server must reproduce it exactly.  The digest was
#: re-taken, sizes unchanged, when the tests' subscriber keys moved to the
#: operator OP of ``repro.deploy.subscriber_keys`` (the K/OPc bytes ship),
#: and again, bytes unchanged, when the gateway's metrics bundle dropped
#: its shared-registry keys and every later exchange moved in time.
ROOTLESS_WIRE_DIGEST = "8b311fb31b795db955b8e9d3262ac6e3"
ROOTLESS_WIRE_SIZES = [686, 52, 883, 52, 686, 52, 52]


def run_churn(send_roots):
    """A scenario with every kind of config churn, returning the wire log."""
    sim, orc, agw, log, monitor = logged(send_roots=send_roots)
    k, opc = subscriber_keys(50)

    def churn():
        orc.add_subscriber(SubscriberProfile(imsi=make_imsi(50),
                                             k=k, opc=opc))

    sim.schedule_at(12.0, churn)
    sim.schedule_at(22.0, lambda: orc.delete_subscriber(make_imsi(1)))
    sim.run(until=40.0)
    assert agw.magmad.stats["checkins_failed"] == 0
    assert agw.magmad.config_version == orc.store.version
    assert len(agw.subscriberdb) == 3        # 3 seeded + 1 added - 1 deleted
    return log


def wire_digest(log):
    h = hashlib.blake2b(digest_size=16)
    for time, kind, body in log:
        h.update(repr(time).encode())
        h.update(kind.encode())
        h.update(body)
    return h.hexdigest()


def test_rootless_checkins_replay_the_retired_bundle_protocol():
    """A gateway that sends no digest roots gets exactly what the deleted
    bundle-only protocol served: same exchanges at the same times with
    byte-identical responses — a bundle re-push per change, no walk."""
    log = run_churn(send_roots=False)
    assert [len(body) for _, _, body in log] == ROOTLESS_WIRE_SIZES
    assert wire_digest(log) == ROOTLESS_WIRE_DIGEST
    assert {kind for _, kind, _ in log} == {"checkin"}


def test_rootless_and_digest_checkins_converge_alike():
    """Both are desired-state sync: they land every replica on identical
    content (``run_churn`` asserts it), differing only in bytes shipped."""
    digest_log = run_churn(send_roots=True)
    rootless_log = run_churn(send_roots=False)
    kinds = [kind for _, kind, _ in digest_log]
    assert kinds.count("reconcile") >= 2     # one walk per churn event
    # Same number of check-ins on both paths (the reconcile round trips
    # shift later check-ins by milliseconds, so times aren't compared).
    assert kinds.count("checkin") == len(rootless_log)
