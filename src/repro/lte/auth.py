"""EPS-AKA authentication (milenage stand-in).

Real LTE uses the MILENAGE algorithm set (AES-based) to derive an
authentication vector from the subscriber's secret key K and the operator
constant OP/OPc.  We substitute HMAC-SHA256 derivations with the same
*protocol shape*:

- The network side (HSS / Magma subscriberdb) computes an
  :class:`AuthVector` ``(rand, xres, autn, kasme)`` from ``(k, opc, sqn)``.
- The USIM computes ``res`` (and checks ``autn``) from ``(k, opc, rand)``.
- Authentication succeeds iff ``res == xres``; a wrong K fails, a replayed
  or out-of-range SQN fails the AUTN check (synchronisation failure).

This preserves everything the paper's evaluation depends on: per-attach
cryptographic work on the control plane, mutual authentication semantics,
and failure modes for unknown/mis-keyed subscribers.
"""

from __future__ import annotations

import hmac

from ..record import record

KEY_BYTES = 16
SQN_WINDOW = 32  # how far ahead of the USIM's SQN the network may be


class AuthenticationFailure(Exception):
    """RES mismatch or AUTN verification failure."""


@record(frozen=True)
class AuthVector:
    """One EPS authentication vector."""

    rand: bytes
    xres: bytes
    autn: bytes
    kasme: bytes
    sqn: int


def _prf(key: bytes, *parts: bytes) -> bytes:
    # One-shot HMAC over the concatenation: the same bytes as feeding the
    # parts one by one, without an HMAC object or a call per part.
    return hmac.digest(key, b"".join(parts), "sha256")


def derive_opc(k: bytes, op: bytes) -> bytes:
    """Derive the per-subscriber OPc from K and the operator constant OP."""
    return _prf(k, b"opc", op)[:KEY_BYTES]


def generate_vector(k: bytes, opc: bytes, sqn: int, rand: bytes) -> AuthVector:
    """Network-side vector generation (HSS / subscriberdb)."""
    if len(k) != KEY_BYTES:
        raise ValueError(f"K must be {KEY_BYTES} bytes")
    if len(rand) != KEY_BYTES:
        raise ValueError(f"RAND must be {KEY_BYTES} bytes")
    if sqn < 0:
        raise ValueError("SQN must be >= 0")
    sqn_bytes = sqn.to_bytes(6, "big")
    xres = _prf(k, b"res", opc, rand)[:8]
    mac_a = _prf(k, b"mac_a", opc, rand, sqn_bytes)[:8]
    autn = sqn_bytes + mac_a
    kasme = _prf(k, b"kasme", opc, rand, sqn_bytes)
    return AuthVector(rand=rand, xres=xres, autn=autn, kasme=kasme, sqn=sqn)


def usim_compute_res(k: bytes, opc: bytes, rand: bytes) -> bytes:
    """USIM-side response to a challenge."""
    return _prf(k, b"res", opc, rand)[:8]


def usim_verify_autn(k: bytes, opc: bytes, rand: bytes, autn: bytes,
                     usim_sqn: int) -> int:
    """USIM-side AUTN check.

    Returns the network SQN on success (the USIM advances to it).  Raises
    :class:`AuthenticationFailure` on MAC mismatch or SQN replay/skew.
    """
    if len(autn) != 14:
        raise AuthenticationFailure("malformed AUTN")
    sqn_bytes, mac_a = autn[:6], autn[6:]
    expected = _prf(k, b"mac_a", opc, rand, sqn_bytes)[:8]
    if not hmac.compare_digest(mac_a, expected):
        raise AuthenticationFailure("AUTN MAC failure (wrong network key?)")
    network_sqn = int.from_bytes(sqn_bytes, "big")
    if network_sqn <= usim_sqn:
        raise AuthenticationFailure(
            f"SQN replay: network {network_sqn} <= usim {usim_sqn}")
    if network_sqn > usim_sqn + SQN_WINDOW:
        raise AuthenticationFailure(
            f"SQN out of range: network {network_sqn} vs usim {usim_sqn}")
    return network_sqn
