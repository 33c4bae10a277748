"""Subscriber database (the AGW-local, cached half).

Table 1 of the paper: Magma's *subscriber management* abstraction plays the
role of the HSS (LTE), UDM/AUSF (5G), and RADIUS AAA (WiFi).  The
authoritative store lives in the orchestrator; each AGW holds a cached copy
synchronized with the desired-state model, which is what lets an AGW keep
authenticating UEs while disconnected from the orchestrator ("headless"
operation, §3.2).

The profile schema is deliberately the *union* of capabilities across radio
technologies (§3.1): LTE/5G entries carry K/OPc for AKA, WiFi entries may
carry a password-equivalent instead; unused fields are simply None.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ...lte import auth
from ...record import record
from ...wifi import eap


@record(frozen=True, read_mostly=True)
class SubscriberProfile:
    """One subscriber, across all access technologies."""

    imsi: str
    k: Optional[bytes] = None            # LTE/5G secret key
    opc: Optional[bytes] = None          # LTE/5G operator-derived constant
    wifi_secret: Optional[str] = None    # WiFi password-equivalent
    policy_id: str = "default"
    apn: str = "internet"
    active: bool = True
    federated: bool = False   # roaming-cached profile from a partner MNO


class SubscriberDb:
    """AGW-local subscriber store with network-side SQN tracking."""

    def __init__(self):
        self._profiles: Dict[str, SubscriberProfile] = {}
        self._sqn: Dict[str, int] = {}
        self.version = 0  # config version last applied (desired-state sync)

    def __len__(self) -> int:
        return len(self._profiles)

    def get(self, imsi: str) -> Optional[SubscriberProfile]:
        profile = self._profiles.get(imsi)
        if profile is not None and not profile.active:
            return None
        return profile

    def upsert(self, profile: SubscriberProfile) -> None:
        self._profiles[profile.imsi] = profile

    def delete(self, imsi: str) -> bool:
        return self._profiles.pop(imsi, None) is not None

    def all_imsis(self):
        return list(self._profiles)

    def apply_desired_state(self, profiles: Dict[str, SubscriberProfile],
                            version: int) -> None:
        """Replace the entire subscriber set (the desired-state model, §3.4).

        Unlike CRUD deltas, this is idempotent and self-healing: whatever
        updates were lost, one successful sync converges the replica.
        """
        self._profiles = dict(profiles)
        self.version = version

    def apply_desired_delta(self, upserts: Dict[str, SubscriberProfile],
                            deletes: List[str], version: int) -> None:
        """Apply a digest-reconciled delta (``repro.core.sync``).

        Still the desired-state model, at leaf-bucket granularity: the
        delta is computed against a digest of *this* replica's applied
        state, so applying it converges the replica exactly - deletes
        are tombstones for keys the orchestrator no longer has, and the
        digest walk re-ships anything a lost delta left divergent.
        """
        for imsi in deletes:
            self._profiles.pop(imsi, None)
        self._profiles.update(upserts)
        self.version = version

    # -- authentication support ----------------------------------------------------

    def next_sqn(self, imsi: str) -> int:
        """Advance and return the network-side SQN for ``imsi``."""
        sqn = self._sqn.get(imsi, 0) + 1
        self._sqn[imsi] = sqn
        return sqn

    def resync_sqn(self, imsi: str, usim_sqn: int) -> None:
        """SQN resynchronization (3GPP AUTS): adopt the USIM's view so the
        next vector is acceptable.  Used when a UE arrives at an AGW whose
        SQN state lags (e.g. after moving between gateways)."""
        if usim_sqn < 0:
            raise ValueError("SQN must be >= 0")
        self._sqn[imsi] = max(self._sqn.get(imsi, 0), usim_sqn)

    def generate_auth_vector(self, imsi: str, rand: bytes) -> auth.AuthVector:
        """Generate an EPS-AKA vector for a known, active subscriber."""
        profile = self.get(imsi)
        if profile is None:
            raise KeyError(f"unknown or inactive subscriber {imsi}")
        if profile.k is None or profile.opc is None:
            raise KeyError(f"subscriber {imsi} has no AKA credentials")
        return auth.generate_vector(profile.k, profile.opc,
                                    self.next_sqn(imsi), rand)

    def eap_proof(self, imsi: str, nonce: bytes) -> Optional[bytes]:
        """The EAP proof a WiFi subscriber must answer ``nonce`` with, or
        None for an unknown subscriber or one without a WiFi secret."""
        profile = self.get(imsi)
        if profile is None or profile.wifi_secret is None:
            return None
        return eap.compute_proof(profile.wifi_secret, nonce)
