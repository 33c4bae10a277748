"""One way to build a deployment: this reproduction's Spirent Landslide.

The paper's evaluation (§4.1) runs every experiment on one emulated
testbed: emulated UEs and base stations against an AGW whose SIMs were
"pre-provisioned into the orchestrator and AGW in advance of all
experiments".  :func:`build` stands that testbed up as ``num_agws`` cell
sites, each one AGW (one §3.3 fault domain) with ``num_enbs`` eNodeBs on
LAN links, plus a gNB and/or a WiFi AP when ``rats`` names them, and
``num_ues`` subscribers.  Without a ``backhaul`` each site's subscribers
are provisioned straight into its AGW.  With one, the sites check in to
an orchestrator of ``num_shards`` shards over that profile, and every
subscriber is provisioned northbound and synced at the first check-in.

The only observer the builder takes is the sanitizer, which must exist
before the :class:`Simulator` does.  The tracer, flight recorder and
profiler are kernel hooks the caller attaches to ``d.sim`` afterwards.
"""

from __future__ import annotations

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
from .record import record
from .sim import Monitor, RngRegistry, Simulator
from .wifi import WifiAp

OPERATOR_OP = b"repro-operator-op"

#: The radio access technologies :func:`build` adds beside LTE.
RATS = ("5g", "wifi")


def subscriber_keys(index: int) -> Tuple[bytes, bytes]:
    """Deterministic per-subscriber K/OPc (test-network credentials)."""
    k = index.to_bytes(4, "big") * 4
    return k, auth.derive_opc(k, OPERATOR_OP)


@record
class Deployment:
    """Handles on everything :func:`build` stood up, in creation order."""

    sim: Simulator
    network: Network
    rng: RngRegistry
    monitor: Monitor
    checkpoint_store: CheckpointStore
    orc: Optional[Orchestrator]
    agws: List[AccessGateway]
    enbs: List[Enodeb]
    gnbs: List[Gnb]
    aps: List[WifiAp]
    ues: List[UeBase]
    imsis: List[str]

    @property
    def agw(self) -> AccessGateway:
        """The first AGW, ``agw-1``: a single-AGW site's only one."""
        return self.agws[0]

    def run_attach(self, ue: UeBase, limit: float = 120.0):
        """Drive one attach to completion; returns the AttachOutcome."""
        done = ue.attach()
        return self.sim.run_until_triggered(done, limit=self.sim.now + limit)

    def run_until_synced(self) -> None:
        """On a site built with a ``backhaul``: run until every AGW has
        applied the orchestrator's newest config (on a fresh site, its
        first successful check-in), in one-second steps and for at most
        ten check-in intervals."""
        deadline = self.sim.now + 10 * self.agw.context.config.checkin_interval
        while any(agw.magmad.config_version != self.orc.store.version
                  for agw in self.agws):
            if self.sim.now >= deadline:
                raise RuntimeError("an AGW never synced its config")
            self.sim.run(until=self.sim.now + 1.0)


def build(num_enbs: int = 1, num_ues: int = 1, *,
          num_agws: int = 1,
          num_shards: int = 1,
          rats: Sequence[str] = (),
          backhaul: Optional[str] = None,
          seed: int = 1,
          config: Optional[AgwConfig] = None,
          cell_config: Optional[CellConfig] = None,
          policy: Optional[PolicyRule] = None,
          ocs=None,
          sanitizer=None) -> Deployment:
    """Stand up a deployment and bring every RAN node's S1/NG link up.

    Each of ``agw-1`` … ``agw-<num_agws>`` gets ``num_enbs`` eNodeBs, a
    gNB if ``rats`` names ``"5g"`` and an AP if it names ``"wifi"``, and
    ``num_ues`` subscribers, each with a UE camped on its AGW's eNodeBs in
    turn (on its gNB when there are none; ``ues`` is empty when the site
    has neither).  RAN-node names and IMSIs number on across the AGWs.
    ``policy`` is the one rule every subscriber is provisioned with.

    Without ``backhaul`` each AGW's subscribers, each with a WiFi secret,
    go straight into that AGW.  ``backhaul`` names a
    :mod:`repro.net.backhaul` profile: given one, an orchestrator ``orc``
    of ``num_shards`` shards is built, every AGW checks in to it over that
    profile, and subscribers (K/OPc only) and ``policy`` are provisioned
    northbound.  With one shard the AGWs check in to the front door
    ``"orc"``; with more, each to its owner shard's node.  Either way the
    AGWs checkpoint to ``checkpoint_store``.
    """
    if num_shards > 1 and backhaul is None:
        raise ValueError("num_shards needs a backhaul to an orchestrator")
    if num_agws < 1:
        raise ValueError(f"num_agws must be at least 1, not {num_agws}")
    unknown = [rat for rat in rats if rat not in RATS]
    if unknown:
        raise ValueError(f"unknown RAT(s) {unknown}; rats may name "
                         f"{', '.join(map(repr, RATS))}")
    sim = Simulator(sanitizer=sanitizer)
    rng = RngRegistry(seed)
    if sanitizer is not None:
        sanitizer.watch_rng(rng)
    monitor = Monitor()
    network = Network(sim, rng)
    store = CheckpointStore()
    orc = None
    if backhaul is not None:
        orc = Orchestrator(sim, network, "orc", monitor=monitor,
                           num_shards=num_shards)
        if policy is not None:
            orc.upsert_policy(policy)
    d = Deployment(sim=sim, network=network, rng=rng, monitor=monitor,
                   checkpoint_store=store, orc=orc, agws=[],
                   enbs=[], gnbs=[], aps=[], ues=[], imsis=[])

    def ran_node(cls, nodes, kind, agw_node, **kwargs):
        ran_id = f"{kind}-{len(nodes) + 1}"
        network.connect(ran_id, agw_node, links.lan(f"lan-{ran_id}"))
        nodes.append(cls(sim, network, ran_id, agw_node, **kwargs))
        return nodes[-1]

    policy_id = policy.policy_id if policy is not None else "default"
    for a in range(num_agws):
        node = f"agw-{a + 1}"
        target = None
        if orc is not None:
            target = "orc" if num_shards == 1 else orc.shard_node_for(node)
            network.connect(node, target, links.by_name(backhaul))
        agw = AccessGateway(sim, network, node, config=config,
                            orchestrator_node=target, ocs=ocs,
                            checkpoint_store=store, monitor=monitor, rng=rng)
        if orc is None and policy is not None:
            agw.policydb.upsert(policy)
        d.agws.append(agw)
        enbs = [ran_node(Enodeb, d.enbs, "enb", node, cell_config=cell_config)
                for _ in range(num_enbs)]
        gnbs = []
        if "5g" in rats:
            gnbs.append(ran_node(Gnb, d.gnbs, "gnb", node,
                                 cell_config=cell_config))
        if "wifi" in rats:
            ran_node(WifiAp, d.aps, "ap", node)
        for i in range(num_ues):
            index = a * num_ues + i + 1
            imsi = make_imsi(index)
            k, opc = subscriber_keys(index)
            profile = SubscriberProfile(
                imsi=imsi, k=k, opc=opc, policy_id=policy_id,
                wifi_secret=f"wifi-{imsi}" if orc is None else None)
            if orc is not None:
                orc.add_subscriber(profile)
            else:
                agw.subscriberdb.upsert(profile)
            d.imsis.append(imsi)
            if enbs:
                d.ues.append(Ue(sim, imsi, k, opc, enbs[i % num_enbs]))
            elif gnbs:
                d.ues.append(Ue5g(sim, imsi, k, opc, gnbs[0]))
        agw.start()
        for ran in enbs:
            ran.s1_setup()
        for ran in gnbs:
            ran.ng_setup()
    sim.run(until=1.0)
    for ran in (*d.enbs, *d.gnbs):
        if not ran.ready:
            raise RuntimeError(f"RAN setup failed for {ran.node_id}")
    return d
