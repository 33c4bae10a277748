"""Grand end-to-end system test: a day in the life of a Magma network.

One scenario exercising nearly every subsystem together: provisioning
through the orchestrator, multi-technology attach, traffic with policy
enforcement and charging, intra-AGW handover, idle/paging, AGW crash and
checkpoint recovery, headless operation, and final accounting - with
invariants checked at each stage.
"""

import pytest

from repro.core.agw import AgwConfig, SubscriberProfile, magmad
from repro.core.policy import MB, capped, prepaid
from repro.core.policy.ocs import OnlineChargingSystem
from repro.deploy import build
from repro.lte import UeState
from repro.workloads.traffic import TrafficEngine


def test_day_in_the_life(monkeypatch):
    monkeypatch.setattr(magmad, "CHECKPOINT_INTERVAL", 5.0)
    ocs = OnlineChargingSystem(quota_bytes=2 * MB, clock=lambda: sim.now)

    # --- Morning: the operator stands up the network. ---------------------
    d = build(num_enbs=2, num_ues=6, backhaul="microwave", seed=2026,
              config=AgwConfig(checkin_interval=10.0),
              ocs=ocs)
    sim, network, monitor, orc, agw = d.sim, d.network, d.monitor, d.orc, d.agw
    enbs, subscribers = d.enbs, d.ues
    orc.upsert_policy(capped("family", mbps=8.0, cap_bytes=20 * MB,
                             throttled_mbps=1.0))
    orc.upsert_policy(prepaid("payg", mbps=6.0))
    for i, ue in enumerate(subscribers):
        policy = "payg" if i % 3 == 0 else "family"
        orc.add_subscriber(SubscriberProfile(imsi=ue.imsi, k=ue.k, opc=ue.opc,
                                             policy_id=policy))
        ocs.provision(ue.imsi, balance_bytes=100 * MB)
    sim.run(until=15.0)  # bring-up + first config sync
    assert len(agw.subscriberdb) == 6

    # --- Everyone attaches and browses. ------------------------------------
    for ue in subscribers:
        done = ue.attach()
        outcome = sim.run_until_triggered(done, limit=sim.now + 120.0)
        assert outcome.success, outcome.cause
        ue.set_offered_rate(4.0)
    engine = TrafficEngine(sim, agw, enbs, monitor=monitor)
    engine.start()
    sim.run(until=sim.now + 20.0)
    assert agw.sessiond.session_count() == 6
    assert engine.last_achieved_mbps == pytest.approx(24.0, rel=0.1)

    # --- A user walks across the site: intra-AGW handover. -----------------
    walker = subscribers[1]
    target = enbs[1] if walker.enb is enbs[0] else enbs[0]
    walker_ip = walker.ip_address
    done = walker.handover_to(target)
    assert sim.run_until_triggered(done, limit=sim.now + 30.0)
    assert walker.ip_address == walker_ip  # session anchored

    # --- Another pockets their phone: idle, later paged back. --------------
    napper = subscribers[2]
    napper.go_idle()
    sim.run(until=sim.now + 5.0)
    assert not agw.sessiond.session(napper.imsi).connected
    assert agw.page(napper.imsi)
    sim.run(until=sim.now + 10.0)
    assert napper.state == UeState.REGISTERED

    # --- Afternoon mishap: the AGW loses power mid-operation. --------------
    sim.run(until=sim.now + 6.0)  # ensure a fresh checkpoint
    sessions_before = agw.sessiond.session_count()
    agw.crash()
    sim.run(until=sim.now + 10.0)
    restored = agw.recover()
    assert restored == sessions_before
    for ue in subscribers:
        session = agw.sessiond.session(ue.imsi)
        assert session is not None
        assert agw.pipelined.has_session(ue.imsi)
    sim.run(until=sim.now + 20.0)

    # --- Evening: backhaul flaps; the site keeps serving (headless). -------
    network.set_node_up("orc", False)
    newcomer = subscribers[3]
    newcomer.detach()
    sim.run(until=sim.now + 2.0)
    done = newcomer.attach()
    outcome = sim.run_until_triggered(done, limit=sim.now + 120.0)
    assert outcome.success  # cached subscriber, headless AGW
    network.set_node_up("orc", True)
    sim.run(until=sim.now + 30.0)

    # --- Night: everyone detaches; the books must balance. -----------------
    engine.stop()
    for ue in subscribers:
        if ue.state == UeState.REGISTERED:
            ue.detach()
    sim.run(until=sim.now + 5.0)
    assert agw.sessiond.session_count() == 0
    assert agw.pipelined.session_count() == 0
    # Every subscriber has at least one CDR; usage totals are positive.
    usage = {}
    for record in agw.accounting.records():
        usage[record.imsi] = usage.get(record.imsi, 0) + record.total_bytes
    for ue in subscribers:
        assert usage.get(ue.imsi, 0) > 0
    # Prepaid users were charged at the OCS.  The mid-day crash may have
    # orphaned at most one open grant per user (the paper's double-spend
    # bound); after the reservation TTL, the next quota request reclaims
    # it, leaving only that request's own grant reserved.
    for i, ue in enumerate(subscribers):
        if i % 3 == 0:
            account = ocs.account(ue.imsi)
            assert account.charged_bytes > 0
            assert account.reserved_bytes <= ocs.quota_bytes  # the bound
    sim.run(until=sim.now + ocs.reservation_ttl + 1.0)
    prepaid_ues = subscribers[::3]
    grant = ocs.request_quota(prepaid_ues[0].imsi, "agw-1")
    assert [ocs.account(ue.imsi).reserved_bytes for ue in prepaid_ues] == \
        [grant.granted_bytes] + [0] * (len(prepaid_ues) - 1)
    # The orchestrator saw the whole day through metrics and check-ins.
    assert orc.statesync.gateway("agw-1").checkins > 5
    assert orc.metricsd.latest("attach_accepted",
                               {"gateway_id": "agw-1"}).value >= 6
