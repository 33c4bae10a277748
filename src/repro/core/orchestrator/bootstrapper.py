"""Gateway bootstrapping: challenge/response registration.

New AGWs prove possession of their hardware key before the orchestrator
will talk to them; the orchestrator then issues a session certificate with
an expiry (Magma's bootstrapper + certifier, simplified to HMAC).  This is
how 5,370 ad-hoc AGWs in the FreedomFi deployment (§4.3.2) can self-enroll
without an operator touching each box.
"""

from __future__ import annotations

import hashlib
import hmac
import itertools
from dataclasses import dataclass
from typing import Dict

CERT_LIFETIME = 30 * 24 * 3600.0


class BootstrapError(Exception):
    """Registration failure (unknown gateway, bad signature, expired cert)."""


@dataclass(frozen=True)
class Challenge:
    gateway_id: str
    nonce: bytes


@dataclass(frozen=True)
class Certificate:
    gateway_id: str
    serial: int
    issued_at: float
    expires_at: float
    token: bytes


def sign_challenge(hw_key: bytes, nonce: bytes) -> bytes:
    """Gateway-side: prove possession of the hardware key."""
    return hmac.new(hw_key, b"bootstrap:" + nonce, hashlib.sha256).digest()


class Bootstrapper:
    """Orchestrator-side enrollment service."""

    def __init__(self, clock=None, cert_lifetime: float = CERT_LIFETIME):
        self._clock = clock or (lambda: 0.0)
        self.cert_lifetime = cert_lifetime
        self._hw_keys: Dict[str, bytes] = {}
        self._challenges: Dict[str, Challenge] = {}
        self._certs: Dict[str, Certificate] = {}
        self._serials = itertools.count(1)
        self._nonce_counter = itertools.count(1)
        self.stats = {"challenges": 0, "certs_issued": 0, "rejected": 0}

    def preregister(self, gateway_id: str, hw_key: bytes) -> None:
        """Operator records the gateway's hardware key (out of band)."""
        self._hw_keys[gateway_id] = hw_key

    def request_challenge(self, gateway_id: str) -> Challenge:
        if gateway_id not in self._hw_keys:
            self.stats["rejected"] += 1
            raise BootstrapError(f"unknown gateway {gateway_id!r}")
        nonce = hashlib.sha256(
            f"{gateway_id}:{next(self._nonce_counter)}".encode()).digest()
        challenge = Challenge(gateway_id=gateway_id, nonce=nonce)
        self._challenges[gateway_id] = challenge
        self.stats["challenges"] += 1
        return challenge

    def complete(self, gateway_id: str, signature: bytes) -> Certificate:
        challenge = self._challenges.pop(gateway_id, None)
        if challenge is None:
            self.stats["rejected"] += 1
            raise BootstrapError("no outstanding challenge")
        expected = sign_challenge(self._hw_keys[gateway_id], challenge.nonce)
        if not hmac.compare_digest(signature, expected):
            self.stats["rejected"] += 1
            raise BootstrapError("bad signature")
        now = self._clock()
        cert = Certificate(
            gateway_id=gateway_id, serial=next(self._serials),
            issued_at=now, expires_at=now + self.cert_lifetime,
            token=hmac.new(self._hw_keys[gateway_id],
                           f"cert:{gateway_id}:{now}".encode(),
                           hashlib.sha256).digest())
        self._certs[gateway_id] = cert
        self.stats["certs_issued"] += 1
        return cert

    def validate(self, gateway_id: str, token: bytes) -> bool:
        cert = self._certs.get(gateway_id)
        if cert is None or cert.token != token:
            return False
        return self._clock() <= cert.expires_at

    def is_enrolled(self, gateway_id: str) -> bool:
        return gateway_id in self._certs
