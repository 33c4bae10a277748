"""One way to build a deployment: this reproduction's Spirent Landslide.

The paper's evaluation (§4.1) runs every experiment on one emulated
testbed: emulated UEs and base stations against an AGW whose SIMs were
"pre-provisioned into the orchestrator and AGW in advance of all
experiments".  :func:`build` stands that testbed up in two shapes:

- a cell site: one AGW with ``num_enbs`` eNodeBs on LAN links, plus a gNB
  and/or a WiFi AP when ``rats`` names them, its subscribers provisioned
  straight into the AGW;
- the same site behind an orchestrator over a ``backhaul`` profile, its
  subscribers provisioned northbound and synced at the first check-in.

The only observer the builder takes is the sanitizer, which must exist
before the :class:`Simulator` does.  The tracer, flight recorder and
profiler are kernel hooks the caller attaches to ``d.sim`` afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .core.agw import (
    AccessGateway,
    AgwConfig,
    CheckpointStore,
    SubscriberProfile,
)
from .core.orchestrator import Orchestrator
from .core.policy import PolicyRule
from .fiveg import Gnb, Ue5g
from .lte import CellConfig, Enodeb, Ue, auth, make_imsi
from .lte.ue import UeBase
from .net import Network, backhaul as links
from .sim import Monitor, RngRegistry, Simulator
from .wifi import WifiAp

OPERATOR_OP = b"repro-operator-op"


def subscriber_keys(index: int) -> Tuple[bytes, bytes]:
    """Deterministic per-subscriber K/OPc (test-network credentials)."""
    k = index.to_bytes(4, "big") * 4
    return k, auth.derive_opc(k, OPERATOR_OP)


@dataclass
class Deployment:
    """Handles on everything :func:`build` stood up, in creation order."""

    sim: Simulator
    network: Network
    rng: RngRegistry
    monitor: Monitor
    checkpoint_store: CheckpointStore
    orc: Optional[Orchestrator]
    agw: AccessGateway
    enbs: List[Enodeb]
    gnbs: List[Gnb]
    aps: List[WifiAp]
    ues: List[UeBase]
    imsis: List[str]

    def run_attach(self, ue: UeBase, limit: float = 120.0):
        """Drive one attach to completion; returns the AttachOutcome."""
        done = ue.attach()
        return self.sim.run_until_triggered(done, limit=self.sim.now + limit)

    def run_until_synced(self) -> None:
        """On a site built with a ``backhaul``: run until the AGW has
        applied the orchestrator's newest config (on a fresh site, its
        first successful check-in), in one-second steps and for at most
        ten check-in intervals."""
        deadline = self.sim.now + 10 * self.agw.context.config.checkin_interval
        while self.agw.magmad.config_version != self.orc.store.version:
            if self.sim.now >= deadline:
                raise RuntimeError("the AGW never synced its config")
            self.sim.run(until=self.sim.now + 1.0)


def build(num_enbs: int = 1, num_ues: int = 1, *,
          rats: Sequence[str] = (),
          backhaul: Optional[str] = None,
          seed: int = 1,
          config: Optional[AgwConfig] = None,
          cell_config: Optional[CellConfig] = None,
          policy: Optional[PolicyRule] = None,
          ocs=None,
          sanitizer=None) -> Deployment:
    """Stand up a deployment and bring every RAN node's S1/NG link up.

    The AGW gets ``num_enbs`` eNodeBs, a gNB if ``rats`` names ``"5g"``
    and an AP if it names ``"wifi"``, and ``num_ues`` subscribers, each
    with a UE camped on the eNodeBs in turn (on the gNB when there are
    none; ``ues`` is empty when the site has neither).  ``policy`` is the
    one rule every subscriber is provisioned with.

    Without ``backhaul`` the subscribers, each with a WiFi secret, go
    straight into the AGW.  ``backhaul`` names a
    :mod:`repro.net.backhaul` profile: given one, an orchestrator ``orc``
    is built, the AGW checks in to it over that profile, and subscribers
    (K/OPc only) and ``policy`` are provisioned northbound.  Either way
    the AGW checkpoints to ``checkpoint_store``.
    """
    sim = Simulator(sanitizer=sanitizer)
    rng = RngRegistry(seed)
    if sanitizer is not None:
        sanitizer.watch_rng(rng)
    monitor = Monitor()
    network = Network(sim, rng)
    store = CheckpointStore()
    orc = None
    if backhaul is not None:
        orc = Orchestrator(sim, network, "orc", monitor=monitor)
        if policy is not None:
            orc.upsert_policy(policy)
        network.connect("agw-1", "orc", links.by_name(backhaul))
    agw = AccessGateway(sim, network, "agw-1", config=config,
                        orchestrator_node=None if orc is None else "orc",
                        ocs=ocs,
                        checkpoint_store=store, monitor=monitor, rng=rng)
    if orc is None and policy is not None:
        agw.policydb.upsert(policy)
    d = Deployment(sim=sim, network=network, rng=rng, monitor=monitor,
                   checkpoint_store=store, orc=orc, agw=agw,
                   enbs=[], gnbs=[], aps=[], ues=[], imsis=[])

    def ran_node(cls, nodes, kind, **kwargs):
        ran_id = f"{kind}-{len(nodes) + 1}"
        network.connect(ran_id, "agw-1", links.lan(f"lan-{ran_id}"))
        nodes.append(cls(sim, network, ran_id, "agw-1", **kwargs))
        return nodes[-1]

    for _ in range(num_enbs):
        ran_node(Enodeb, d.enbs, "enb", cell_config=cell_config)
    if "5g" in rats:
        ran_node(Gnb, d.gnbs, "gnb", cell_config=cell_config)
    if "wifi" in rats:
        ran_node(WifiAp, d.aps, "ap")
    policy_id = policy.policy_id if policy is not None else "default"
    for i in range(num_ues):
        imsi = make_imsi(i + 1)
        k, opc = subscriber_keys(i + 1)
        profile = SubscriberProfile(
            imsi=imsi, k=k, opc=opc, policy_id=policy_id,
            wifi_secret=f"wifi-{imsi}" if orc is None else None)
        if orc is not None:
            orc.add_subscriber(profile)
        else:
            agw.subscriberdb.upsert(profile)
        d.imsis.append(imsi)
        if d.enbs:
            d.ues.append(Ue(sim, imsi, k, opc, d.enbs[i % num_enbs]))
        elif d.gnbs:
            d.ues.append(Ue5g(sim, imsi, k, opc, d.gnbs[0]))
    agw.start()
    for enb in d.enbs:
        enb.s1_setup()
    for gnb in d.gnbs:
        gnb.ng_setup()
    sim.run(until=1.0)
    for ran in (*d.enbs, *d.gnbs):
        if not ran.ready:
            raise RuntimeError(f"RAN setup failed for {ran.node_id}")
    return d
