"""Ablation: headless operation during an orchestrator partition (§3.2).

During a partition, an AGW keeps establishing sessions from cached
subscriber profiles (local runtime operations proceed), while network-wide
actions - provisioning a brand-new subscriber - queue at the orchestrator
and take effect only after the partition heals, within one check-in.
"""

from __future__ import annotations

from typing import List

from ..core.agw import AgwConfig, SubscriberProfile
from ..deploy import build, subscriber_keys
from ..lte import Ue, make_imsi
from ..record import record
from .common import format_table


@record
class HeadlessResult:
    partition_seconds: float
    attaches_during_partition: int
    attach_successes_during_partition: int
    new_subscriber_rejected_during_partition: bool
    provisioning_latency_after_heal: float
    checkin_interval: float

    def rows(self) -> List[List[object]]:
        return [
            ["cached-subscriber attaches during partition",
             f"{self.attach_successes_during_partition}"
             f"/{self.attaches_during_partition}"],
            ["new subscriber usable during partition",
             "no" if self.new_subscriber_rejected_during_partition
             else "yes"],
            ["provisioning latency after heal",
             f"{self.provisioning_latency_after_heal:.1f}s "
             f"(check-in interval {self.checkin_interval:.0f}s)"],
        ]

    def render(self) -> str:
        return (f"Headless-operation ablation "
                f"({self.partition_seconds:.0f}s partition)\n"
                + format_table(["behaviour", "result"], self.rows()))


def run_headless_ablation(partition_seconds: float = 120.0,
                          num_cached_ues: int = 5,
                          checkin_interval: float = 10.0,
                          seed: int = 0) -> HeadlessResult:
    d = build(num_ues=num_cached_ues, backhaul="microwave", seed=seed,
              config=AgwConfig(checkin_interval=checkin_interval))
    sim, network, orc, agw, enb = d.sim, d.network, d.orc, d.agw, d.enbs[0]
    # Sync the cache, then partition.
    sim.run(until=2 * checkin_interval + 5.0)
    if len(agw.subscriberdb) != num_cached_ues:
        raise RuntimeError("initial config sync failed")
    network.set_node_up("orc", False)
    partition_start = sim.now

    successes = 0
    for ue in d.ues:
        if d.run_attach(ue, limit=60.0).success:
            successes += 1
    # Provision a new subscriber mid-partition.
    new_imsi = make_imsi(500)
    k, opc = subscriber_keys(500)
    orc.add_subscriber(SubscriberProfile(imsi=new_imsi, k=k, opc=opc))
    new_ue = Ue(sim, new_imsi, k, opc, enb)
    new_rejected = not d.run_attach(new_ue, limit=60.0).success
    # Heal after the configured partition length.
    sim.run(until=partition_start + partition_seconds)
    network.set_node_up("orc", True)
    heal_time = sim.now
    # Wait until the new subscriber syncs, then measure the latency.
    while agw.subscriberdb.get(new_imsi) is None:
        if sim.now - heal_time > 10 * checkin_interval:
            raise RuntimeError("config never converged after heal")
        sim.run(until=sim.now + 1.0)
    provisioning_latency = sim.now - heal_time
    if not d.run_attach(new_ue, limit=60.0).success:
        raise RuntimeError("post-heal attach failed")
    return HeadlessResult(
        partition_seconds=partition_seconds,
        attaches_during_partition=num_cached_ues,
        attach_successes_during_partition=successes,
        new_subscriber_rejected_during_partition=new_rejected,
        provisioning_latency_after_heal=provisioning_latency,
        checkin_interval=checkin_interval)
