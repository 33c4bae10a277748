"""EAP-style challenge/response authentication for WiFi.

Instead of shipping the password over the air, the AP runs an EAP-like
exchange: the authenticator (backed by the AGW's RADIUS frontend) issues a
challenge; the supplicant proves possession of the shared secret with an
HMAC response.  This mirrors how enterprise WiFi (802.1X) actually
authenticates and keeps WiFi on par with the LTE/5G substrates, where
authentication is also challenge/response (EPS-AKA).
"""

from __future__ import annotations

import hashlib
import hmac


def compute_proof(secret: str, nonce: bytes) -> bytes:
    """Supplicant side: HMAC(secret, nonce)."""
    return hmac.digest(secret.encode(), b"eap:" + nonce, "sha256")


def make_nonce(identity: str, counter: int) -> bytes:
    """Deterministic per-exchange nonce (replicable simulations)."""
    return hashlib.sha256(f"eap-nonce:{identity}:{counter}".encode()).digest()
