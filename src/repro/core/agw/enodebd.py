"""enodebd: RAN device management.

The paper calls out device management as a first-class Magma responsibility
with *no 3GPP equivalent* (Table 1): rather than logging into each eNodeB,
operators manage RAN devices centrally through the orchestrator, and the
AGW's enodebd applies that configuration to locally connected equipment and
reports device health upstream (§3.1, §4.3.1's operational-cost reduction).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ...record import field, record


@record
class RanDevice:
    device_id: str
    kind: str = "enodeb"           # enodeb | gnb | wifi-ap
    registered_at: float = 0.0
    last_seen: float = 0.0
    config_version: int = 0
    config: Dict[str, Any] = field(default_factory=dict)
    healthy: bool = True


class Enodebd:
    """Registry + configuration pusher for RAN devices behind this AGW."""

    def __init__(self, clock=None):
        self._clock = clock or (lambda: 0.0)
        self._devices: Dict[str, RanDevice] = {}
        self.desired_config: Dict[str, Any] = {}
        self.desired_version = 0
        self.stats = {"registrations": 0, "config_pushes": 0}

    def register(self, device_id: str, kind: str = "enodeb") -> RanDevice:
        now = self._clock()
        device = self._devices.get(device_id)
        if device is None:
            device = RanDevice(device_id=device_id, kind=kind,
                               registered_at=now, last_seen=now)
            self._devices[device_id] = device
            self.stats["registrations"] += 1
        device.last_seen = now
        self._push_if_behind(device)
        return device

    def heartbeat(self, device_id: str) -> None:
        device = self._devices.get(device_id)
        if device is not None:
            device.last_seen = self._clock()

    def apply_desired_config(self, config: Dict[str, Any], version: int) -> None:
        """New RAN config from the orchestrator; push to all devices."""
        self.desired_config = dict(config)
        self.desired_version = version
        for device in self._devices.values():
            self._push_if_behind(device)

    def apply_desired_delta(self, upserts: Dict[str, Any],
                            deletes: List[str], version: int) -> None:
        """Apply a digest-reconciled delta to the desired RAN config.

        A digest walk delivers one delta per divergent leaf bucket, all
        at the *same* version, so the version cannot say whether a
        device already holds this delta: every delta is pushed.
        """
        for key in deletes:
            self.desired_config.pop(key, None)
        self.desired_config.update(upserts)
        self.desired_version = version
        for device in self._devices.values():
            self._push_config(device)

    def _push_if_behind(self, device: RanDevice) -> None:
        if device.config_version < self.desired_version:
            self._push_config(device)

    def _push_config(self, device: RanDevice) -> None:
        device.config = dict(self.desired_config)
        device.config_version = self.desired_version
        self.stats["config_pushes"] += 1

    def devices(self) -> List[RanDevice]:
        return list(self._devices.values())

    def device(self, device_id: str) -> Optional[RanDevice]:
        return self._devices.get(device_id)

    def count(self) -> int:
        return len(self._devices)

    def stale_devices(self, max_age: float) -> List[str]:
        """Devices not heard from within ``max_age`` seconds (telemetry)."""
        now = self._clock()
        return [d.device_id for d in self._devices.values()
                if now - d.last_seen > max_age]
