"""AGW health service: local service checks feeding telemetry northbound.

Table 1 lists telemetry as a Magma responsibility with no 3GPP
equivalent.  The health service aggregates what an operator needs to see
for a gateway without logging into it (§3.1): per-service liveness, RAN
device staleness, resource pressure, and session-plane sanity - shipped to
the orchestrator with each check-in.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ...record import record

#: A RAN device silent this long (seconds) is stale.
ENB_STALE_AFTER = 300.0
#: Queued control-plane work (core-seconds) that marks a backlog.
CP_BACKLOG_WARN = 30.0


@record
class HealthCheck:
    name: str
    healthy: bool
    detail: str = ""


class HealthService:
    """Evaluates gateway-local health checks on demand."""

    def __init__(self, gateway: "AccessGateway"):
        self.gateway = gateway

    def evaluate(self) -> List[HealthCheck]:
        gateway = self.gateway
        checks: List[HealthCheck] = []
        checks.append(HealthCheck(
            name="process", healthy=not gateway.crashed,
            detail="crashed" if gateway.crashed else "running"))
        stale = gateway.enodebd.stale_devices(ENB_STALE_AFTER)
        checks.append(HealthCheck(
            name="ran-devices", healthy=not stale,
            detail=f"stale: {stale}" if stale else
            f"{gateway.enodebd.count()} device(s) healthy"))
        backlog = gateway.context.cpu.queued_work("cp")
        checks.append(HealthCheck(
            name="control-plane-backlog",
            healthy=backlog < CP_BACKLOG_WARN,
            detail=f"{backlog:.1f} core-seconds queued"))
        sessions = gateway.sessiond.session_count()
        installed = gateway.pipelined.session_count()
        checks.append(HealthCheck(
            name="session-dataplane-consistency",
            healthy=sessions == installed,
            detail=f"{sessions} sessions / {installed} installed"))
        rejected = gateway.mme.stats["attach_rejected"]
        accepted = gateway.mme.stats["attach_accepted"]
        total = rejected + accepted
        reject_fraction = rejected / total if total else 0.0
        checks.append(HealthCheck(
            name="attach-rejects",
            healthy=reject_fraction < 0.5 or total < 10,
            detail=f"{rejected}/{total} rejected"))
        return checks

    def summary(self) -> Dict[str, Any]:
        """Compact form shipped with magmad check-ins."""
        checks = self.evaluate()
        return {
            "healthy": all(c.healthy for c in checks),
            "failing": [c.name for c in checks if not c.healthy],
        }
