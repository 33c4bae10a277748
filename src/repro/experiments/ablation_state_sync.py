"""Ablation: Magma's desired-state sync vs CRUD deltas (§3.4).

The paper's worked example, measured.  One stream of subscriber changes
is applied two ways, each in its own simulator over its own 50 ms link
with the same loss:

- **CRUD** (:mod:`repro.baseline.crud_sync`, the negative control): each
  change is one datagram to a replica, and a lost one is never re-sent.
- **Desired state** (Magma as deployed, a :func:`repro.deploy.build`
  site): each change is a northbound ``add_subscriber`` or
  ``delete_subscriber`` on the orchestrator, and the AGW's periodic
  check-in reconciles its ``subscriberdb`` with the store's
  ``subscribers`` namespace by digest walk.

Divergence is the number of keys that differ between intent and replica
once the stream has settled.  Then each replica restarts, and settles
again.  The CRUD replica is volatile: it comes back empty and nothing
repairs it.  The AGW restarts through its real ``crash()`` /
``recover()``: its config survives, as Magma's does, and its check-ins
resume.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..baseline.crud_sync import (
    CrudReplica,
    CrudSynchronizer,
    divergent_keys,
)
from ..core.agw import AgwConfig, SubscriberProfile
from ..core.orchestrator import NS_SUBSCRIBERS
from ..deploy import build, subscriber_keys
from ..lte import make_imsi
from ..net.simnet import Link, Network
from ..record import record
from ..sim import RngRegistry, Simulator
from .common import format_table

#: Seconds between the AGW's check-ins: the desired arm's sync period.
CHECKIN_INTERVAL = 5.0
#: Check-in intervals each arm settles for, after the stream and after
#: the restart.
SETTLE_INTERVALS = 3
#: Seconds between two operations of the stream.
OP_SPACING = 0.5
#: Distinct subscribers the stream touches.
KEYS = 50

#: One operation: the IMSI and its new profile, or None to delete it.
Op = Tuple[str, Optional[SubscriberProfile]]


@record
class StateSyncPoint:
    loss: float
    crud_divergence: int
    crud_divergence_after_restart: int
    desired_divergence: int
    desired_divergence_after_restart: int


@record
class StateSyncResult:
    points: List[StateSyncPoint]
    num_operations: int

    def rows(self) -> List[List[object]]:
        return [[f"{p.loss * 100:.0f}%", p.crud_divergence,
                 p.crud_divergence_after_restart, p.desired_divergence,
                 p.desired_divergence_after_restart]
                for p in self.points]

    def render(self) -> str:
        header = (f"State-sync ablation ({self.num_operations} config ops "
                  f"over a lossy link; divergent keys, lower is better)\n")
        return header + format_table(
            ["link_loss", "crud", "crud_after_restart", "desired",
             "desired_after_restart"], self.rows())


def _ops(num_operations: int, seed: int) -> List[Op]:
    """The stream both arms apply: 80% writes (a create or an update)
    and 20% deletes, each of one of ``KEYS`` subscribers."""
    rng = RngRegistry(seed).stream("ops")
    ops: List[Op] = []
    for i in range(num_operations):
        index = i % KEYS + 1
        imsi = make_imsi(index)
        if rng.random() < 0.8:
            k, opc = subscriber_keys(index)
            ops.append((imsi, SubscriberProfile(imsi=imsi, k=k, opc=opc,
                                                apn=f"apn-{i}")))
        else:
            ops.append((imsi, None))
    return ops


def _play(sim: Simulator, ops: List[Op], apply: Callable) -> None:
    """Apply ``ops`` one every ``OP_SPACING``, then settle."""
    for op in ops:
        apply(*op)
        sim.run(until=sim.now + OP_SPACING)
    _settle(sim)


def _settle(sim: Simulator) -> None:
    sim.run(until=sim.now + SETTLE_INTERVALS * CHECKIN_INTERVAL)


def _crud(loss: float, ops: List[Op], seed: int) -> Tuple[int, int]:
    """Divergence of the CRUD replica, before and after its restart."""
    sim = Simulator()
    network = Network(sim, RngRegistry(seed))
    network.connect("sender", "replica", Link(latency=0.05, loss=loss))
    replica = CrudReplica(network, "replica")
    crud = CrudSynchronizer(network, "sender", "replica")

    def apply(imsi, profile):
        if profile is None:
            crud.delete(imsi)
        else:
            crud.put(imsi, profile)

    _play(sim, ops, apply)
    before = divergent_keys(crud.intended, replica.state)
    replica.restart()
    _settle(sim)
    return before, divergent_keys(crud.intended, replica.state)


def _desired(loss: float, ops: List[Op], seed: int) -> Tuple[int, int]:
    """Divergence of the AGW's ``subscriberdb`` from the orchestrator's
    ``subscribers`` namespace, before and after the AGW restarts."""
    d = build(num_enbs=0, num_ues=0, backhaul="fiber", seed=seed,
              config=AgwConfig(checkin_interval=CHECKIN_INTERVAL))
    d.network.connect("agw-1", "orc", Link(latency=0.05, loss=loss))
    orc, agw = d.orc, d.agw

    def apply(imsi, profile):
        if profile is not None:
            orc.add_subscriber(profile)
        elif orc.store.get(NS_SUBSCRIBERS, imsi) is not None:
            orc.delete_subscriber(imsi)

    def divergence() -> int:
        db = agw.subscriberdb
        return divergent_keys(orc.store.namespace(NS_SUBSCRIBERS),
                              {imsi: db.get(imsi) for imsi in db.all_imsis()})

    _play(d.sim, ops, apply)
    before = divergence()
    agw.crash()
    agw.recover()
    _settle(d.sim)
    return before, divergence()


def run_state_sync_point(loss: float, num_operations: int = 200,
                         seed: int = 0) -> StateSyncPoint:
    ops = _ops(num_operations, seed)
    crud, crud_after_restart = _crud(loss, ops, seed)
    desired, desired_after_restart = _desired(loss, ops, seed)
    return StateSyncPoint(
        loss=loss, crud_divergence=crud,
        crud_divergence_after_restart=crud_after_restart,
        desired_divergence=desired,
        desired_divergence_after_restart=desired_after_restart)


def run_state_sync(losses=(0.0, 0.01, 0.05, 0.20),
                   num_operations: int = 200,
                   seed: int = 0) -> StateSyncResult:
    points = [run_state_sync_point(loss, num_operations, seed=seed)
              for loss in losses]
    return StateSyncResult(points=points, num_operations=num_operations)
