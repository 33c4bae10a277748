"""End-to-end digest sync over real AGWs, plus the escape hatch.

The first half drives a real ``AccessGateway`` against an orchestrator
and asserts the digest path ships leaf deltas (not bundles) for
incremental changes.  The second half is an equivalence test: with
``digest_sync=False`` the control plane must replay the legacy
full-bundle protocol byte-for-byte, and the new client-side fields must
be inert under it.
"""

from repro.core.agw import AccessGateway, AgwConfig, SubscriberProfile
from repro.core.orchestrator import Orchestrator
from repro.core.policy import PolicyRule
from repro.core.sync import canonical_bytes
from repro.lte import Enodeb, make_imsi
from repro.net import Network, backhaul
from repro.sim import Monitor, RngRegistry, Simulator

from helpers import subscriber_keys


def build(digest_sync=True, send_roots=True, num_subscribers=3, seed=1):
    """One real AGW checking in every 5s, with a wire/event recorder.

    ``log`` captures, in order, every check-in and reconcile the
    orchestrator served: ``(time, kind, canonical response bytes)``.
    Comparing two runs' logs compares both event order *and* bytes.
    """
    sim = Simulator()
    rng = RngRegistry(seed)
    network = Network(sim, rng)
    monitor = Monitor()
    orc = Orchestrator(sim, network, "orc", monitor=monitor,
                       digest_sync=digest_sync)
    network.connect("agw-1", "orc", backhaul.by_name("fiber"))
    agw = AccessGateway(sim, network, "agw-1",
                        config=AgwConfig(checkin_interval=5.0),
                        orchestrator_node="orc", monitor=monitor, rng=rng)
    for i in range(num_subscribers):
        k, opc = subscriber_keys(i + 1)
        orc.add_subscriber(SubscriberProfile(imsi=make_imsi(i + 1),
                                             k=k, opc=opc))
    if not send_roots:
        # A pre-digest client: same check-in cadence, no digest roots
        # (the server treats None exactly like the field being absent).
        agw.magmad.mirror.roots = lambda: None
    log = []
    statesync = orc.statesync
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
    agw.start()
    return sim, orc, agw, log, monitor


# -- the digest path over a real gateway --------------------------------------------


def test_incremental_change_ships_leaf_delta_not_bundle():
    sim, orc, agw, log, monitor = build(num_subscribers=200)
    sim.run(until=7.0)                       # first check-in: full bundle
    ss = orc.statesync
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
    # Wire sizes are observable as monitor series.
    assert len(monitor.series("sync.checkin.tx_bytes")) >= 2
    assert len(monitor.series("sync.reconcile.tx_bytes")) >= 1
    assert agw.magmad.stats["checkin_rx_bytes"] > 0


def test_deletion_propagates_as_tombstone():
    sim, orc, agw, log, monitor = build()
    sim.run(until=7.0)
    orc.delete_subscriber(make_imsi(2))
    sim.run(until=13.0)
    assert agw.magmad.stats["delta_tombstones"] == 1
    assert agw.subscriberdb.get(make_imsi(2)) is None
    assert len(agw.subscriberdb) == 2
    assert agw.magmad.mirror.roots() == \
        orc.statesync.reconciler.roots("default")


def test_malformed_leaf_path_is_an_error_reply_and_applies_nothing():
    """A reconcile request naming ``(0, 17)`` - digits that used to alias
    bucket ``(1, 1)`` - is refused by the orchestrator's real RPC server;
    the gateway abandons the walk with its stores untouched (it used to
    receive a tombstone for every key it had listed) and converges on the
    next check-in."""
    sim, orc, agw, log, monitor = build(num_subscribers=200)
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
        orc.statesync.reconciler.roots("default")


def test_ran_config_and_policy_tombstone_reach_the_enodeb_device():
    """Desired RAN config (plain dict / scalar values, not dataclasses)
    and a policy deletion converge through one digest walk whose deltas
    span several leaf buckets — all the way to the eNodeB device record
    that enodebd pushes to."""
    sim, orc, agw, log, monitor = build()
    network = agw.context.network
    network.connect("enb-1", "agw-1", backhaul.lan("lan-enb-1"))
    enb = Enodeb(sim, network, "enb-1", "agw-1")
    enb.s1_setup()
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
    assert orc.statesync.stats["config_pushes"] == 1    # no second bundle
    assert agw.magmad.stats["reconciles"] == 1
    assert agw.magmad.stats["delta_upserts"] == 2
    assert agw.magmad.stats["delta_tombstones"] == 2
    assert agw.enodebd.desired_config == {"earfcn": 2, "tx_power": tx_power}
    assert device.config == agw.enodebd.desired_config
    assert device.config_version == orc.store.version
    assert not agw.policydb.has("gold")
    assert agw.magmad.config_version == orc.store.version
    assert agw.magmad.mirror.roots() == \
        orc.statesync.reconciler.roots("default")


def test_identical_rewrite_fast_forwards_without_transfer():
    sim, orc, agw, log, monitor = build()
    sim.run(until=7.0)
    # Rewriting the same profile bumps the store version but leaves the
    # content digest unchanged: the gateway fast-forwards, no reconcile.
    k, opc = subscriber_keys(1)
    orc.add_subscriber(SubscriberProfile(imsi=make_imsi(1), k=k, opc=opc))
    assert orc.store.version > agw.magmad.config_version
    sim.run(until=13.0)
    assert orc.statesync.stats["digest_elisions"] == 1
    assert agw.magmad.stats["digest_fast_forwards"] == 1
    assert agw.magmad.stats["reconciles"] == 0
    assert agw.magmad.config_version == orc.store.version


def test_in_sync_gateway_gets_no_config_and_no_walk():
    sim, orc, agw, log, monitor = build()
    sim.run(until=23.0)                      # several idle check-ins
    ss = orc.statesync
    assert agw.magmad.stats["checkins_ok"] >= 4
    assert ss.stats["config_pushes"] == 1    # only the first sync
    assert ss.stats["digest_syncs"] == 0
    assert ss.stats["digest_elisions"] == 0  # version matched; no walk


# -- the escape hatch: digest_sync=False replays the legacy protocol ----------------


def run_churn(digest_sync, send_roots):
    """A scenario with every kind of config churn, returning the wire log."""
    sim, orc, agw, log, monitor = build(digest_sync=digest_sync,
                                        send_roots=send_roots)
    k, opc = subscriber_keys(50)

    def churn():
        orc.add_subscriber(SubscriberProfile(imsi=make_imsi(50),
                                             k=k, opc=opc))

    sim.call_later(12.0, churn)
    sim.call_later(22.0, lambda: orc.delete_subscriber(make_imsi(1)))
    sim.run(until=40.0)
    assert agw.magmad.stats["checkins_failed"] == 0
    assert agw.magmad.config_version == orc.store.version
    assert len(agw.subscriberdb) == 3        # 3 seeded + 1 added - 1 deleted
    return log


def test_escape_hatch_is_byte_identical_to_legacy_protocol():
    """``digest_sync=False`` must reproduce the pre-digest control plane
    exactly — same events at the same times with byte-identical
    responses — whether or not the client sends digest roots."""
    legacy = run_churn(digest_sync=False, send_roots=False)
    hatch_new_client = run_churn(digest_sync=False, send_roots=True)
    old_client_new_server = run_churn(digest_sync=True, send_roots=False)
    assert legacy == hatch_new_client
    assert legacy == old_client_new_server
    # The scenario exercised real churn: a bundle re-push per change.
    kinds = [kind for _, kind, _ in legacy]
    assert kinds.count("checkin") >= 7
    assert "reconcile" not in kinds


def test_escape_hatch_converges_to_same_state_as_digest_path():
    """Both paths are desired-state sync: they must land every replica on
    identical content, differing only in bytes shipped."""
    digest_log = run_churn(digest_sync=True, send_roots=True)
    legacy_log = run_churn(digest_sync=False, send_roots=False)
    kinds = [kind for _, kind, _ in digest_log]
    assert kinds.count("reconcile") >= 2     # one walk per churn event
    # Same number of check-ins on both paths (the reconcile round trips
    # shift later check-ins by milliseconds, so times aren't compared).
    assert kinds.count("checkin") == \
        sum(1 for _, kind, _ in legacy_log if kind == "checkin")
