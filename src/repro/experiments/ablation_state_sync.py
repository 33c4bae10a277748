"""Ablation: desired-state vs CRUD synchronization (§3.4).

The paper's worked example, measured: push the same stream of
configuration changes to a replica over a lossy link using (a) CRUD deltas
and (b) periodic full-desired-state pushes, then also restart the replica
mid-stream.  CRUD silently diverges and never heals; desired-state
re-converges on the next successful push.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..baseline.crud_sync import (
    CrudReplica,
    CrudSynchronizer,
    DesiredStateSynchronizer,
)
from ..net.simnet import Link, Network
from ..sim import RngRegistry, Simulator
from .common import format_table


@dataclass
class StateSyncPoint:
    loss: float
    crud_divergence: int
    crud_divergence_after_restart: int
    desired_divergence: int
    desired_divergence_after_restart: int


@dataclass
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


def run_state_sync_point(loss: float, num_operations: int = 200,
                         push_interval: float = 5.0,
                         seed: int = 0) -> StateSyncPoint:
    sim = Simulator()
    rng = RngRegistry(seed)
    network = Network(sim, rng)
    network.connect("sender", "crud-replica", Link(latency=0.05, loss=loss))
    network.connect("sender", "ds-replica", Link(latency=0.05, loss=loss))
    crud_replica = CrudReplica(network, "crud-replica")
    desired_replica = CrudReplica(network, "ds-replica")
    crud = CrudSynchronizer(sim, network, "sender", "crud-replica")
    desired = DesiredStateSynchronizer(sim, network, "sender", "ds-replica",
                                       interval=push_interval)
    desired.start()

    def apply_ops():
        op_rng = rng.stream("ops")
        for i in range(num_operations):
            key = f"session-{i % 50}"
            kind = op_rng.random()
            for synchronizer in (crud, desired):
                if kind < 0.6:
                    synchronizer.create(key, {"version": i})
                elif kind < 0.8:
                    synchronizer.update(key, {"version": i})
                else:
                    synchronizer.delete(key)
            yield sim.timeout(0.5)

    proc = sim.spawn(apply_ops(), name="ops")
    sim.run_until_triggered(proc, limit=10_000.0)
    sim.run(until=sim.now + 3 * push_interval)  # settle
    point = StateSyncPoint(
        loss=loss,
        crud_divergence=crud.divergence(crud_replica),
        crud_divergence_after_restart=0,
        desired_divergence=desired.divergence(desired_replica),
        desired_divergence_after_restart=0)
    # Now restart both replicas (process crash: in-memory state lost).
    crud_replica.restart()
    desired_replica.restart()
    sim.run(until=sim.now + 3 * push_interval)
    point.crud_divergence_after_restart = crud.divergence(crud_replica)
    point.desired_divergence_after_restart = \
        desired.divergence(desired_replica)
    desired.stop()
    return point


def run_state_sync(losses=(0.0, 0.01, 0.05, 0.20),
                   num_operations: int = 200,
                   seed: int = 0) -> StateSyncResult:
    points = [run_state_sync_point(loss, num_operations, seed=seed)
              for loss in losses]
    return StateSyncResult(points=points, num_operations=num_operations)
