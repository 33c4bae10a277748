"""AGW configuration and shared runtime context.

Hardware profiles are calibrated to the paper's reported operating points
(DESIGN.md §5):

- ``BARE_METAL`` (Intel J3160, 4 cores): pure attach capacity 4/s; under a
  saturating user plane, max-min scheduling leaves the control plane 2 of 4
  cores => the Fig. 6 knee at 2 attach/s ("above 2 UE/s the bare-metal AGW
  is unable to service all connection attempts").  Forwarding 432 Mbps
  costs ~1.7 cores, leaving headroom (Fig. 5's "RAN is the bottleneck").
- ``VIRTUAL`` (Xeon 6126 vCPUs): 16 attaches/s on 4 vCPUs (§4.2) and
  ~500 Mbps of user plane per core, saturating the paper's 2.5 Gbps traffic
  generator at 5 cores (Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from ...net.simnet import Network
from ...obs.tracing import tracer_of
from ...sim.cpu import CpuModel
from ...sim.kernel import Simulator
from ...sim.monitor import Monitor
from ...sim.rng import RngRegistry

CPU_CLASS_CONTROL = "cp"
CPU_CLASS_USER = "up"


@dataclass(frozen=True)
class AgwHardwareProfile:
    """Calibrated CPU characteristics of an AGW platform."""

    name: str
    cores: int
    attach_cpu_cost: float          # total core-seconds per attach
    nas_message_cpu_cost: float     # per non-attach NAS message
    up_cost_per_mbps: float         # core-seconds per second per Mbps forwarded

    def attach_capacity_per_sec(self, cores_available: Optional[float] = None) -> float:
        """Theoretical attach saturation rate on the given cores."""
        cores = self.cores if cores_available is None else cores_available
        return cores / self.attach_cpu_cost

    def up_capacity_mbps(self, cores_available: Optional[float] = None) -> float:
        cores = self.cores if cores_available is None else cores_available
        return cores / self.up_cost_per_mbps


BARE_METAL = AgwHardwareProfile(
    name="bare-metal-j3160",
    cores=4,
    attach_cpu_cost=1.0,
    nas_message_cpu_cost=0.002,
    up_cost_per_mbps=0.004,
)

VIRTUAL_4VCPU = AgwHardwareProfile(
    name="virtual-xeon6126-4vcpu",
    cores=4,
    attach_cpu_cost=0.25,
    nas_message_cpu_cost=0.0005,
    up_cost_per_mbps=0.002,
)

VIRTUAL_8VCPU = AgwHardwareProfile(
    name="virtual-xeon6126-8vcpu",
    cores=8,
    attach_cpu_cost=0.25,
    nas_message_cpu_cost=0.0005,
    up_cost_per_mbps=0.002,
)


def virtual_profile(vcpus: int) -> AgwHardwareProfile:
    """A virtual AGW with an arbitrary vCPU count (Figs. 7-8 sweeps)."""
    if vcpus < 1:
        raise ValueError("need at least one vCPU")
    return replace(VIRTUAL_4VCPU, name=f"virtual-xeon6126-{vcpus}vcpu",
                   cores=vcpus)


@dataclass
class AgwConfig:
    """Per-AGW deployment configuration."""

    hardware: AgwHardwareProfile = BARE_METAL
    # Static CPU partition {"cp": n, "up": m}; None = flexible scheduling.
    cpu_partition: Optional[Dict[str, float]] = None
    ip_block: str = "10.128.0.0/16"
    checkpoint_interval: float = 10.0
    checkin_interval: float = 60.0
    quota_request_bytes: Optional[int] = None  # None = OCS default
    sgi_port: str = "internet"
    ran_port: str = "ran"
    gtpa_port: str = "gtpa"
    rpc_deadline: float = 5.0
    # MME overload protection: reject new attaches outright when this much
    # control-plane work is already queued, instead of letting doomed
    # attempts consume CPU past their guard timers (congestion collapse).
    mme_max_pending: int = 25
    # Federation (§3.6): mode + where the Federation Gateway lives.
    deployment_mode: str = "standalone"
    feg_node: Optional[str] = None
    # Multi-network (tenant) membership: which logical network's config
    # this gateway pulls from the orchestrator.
    network_id: str = "default"
    # Telemetry buffering during headless operation (§3.4): how many
    # check-in-interval snapshots to retain while the orchestrator is
    # unreachable, and how many to back-fill per check-in on reconnect.
    metrics_buffer_max: int = 240
    metrics_max_backfill: int = 20


class AgwContext:
    """Shared handles every AGW service needs."""

    def __init__(self, sim: Simulator, network: Network, node: str,
                 config: Optional[AgwConfig] = None,
                 monitor: Optional[Monitor] = None,
                 rng: Optional[RngRegistry] = None):
        self.sim = sim
        self.network = network
        self.node = node
        self.config = config or AgwConfig()
        self.monitor = monitor or Monitor()
        self.rng = rng or RngRegistry(0)
        hardware = self.config.hardware
        self.cpu = CpuModel(sim, cores=hardware.cores,
                            partition=self.config.cpu_partition, name=node)
        network.add_node(node)

    @property
    def tracer(self):
        """The installed :class:`repro.obs.tracing.Tracer`, or a no-op."""
        return tracer_of(self.sim)
