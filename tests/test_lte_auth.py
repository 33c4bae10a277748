"""Unit tests for the EPS-AKA stand-in."""

import pytest

from repro.lte import auth

K = bytes(range(16))
OP = b"operator-secret!"
OPC = auth.derive_opc(K, OP)
RAND = b"\xaa" * 16


def test_vector_is_deterministic():
    v1 = auth.generate_vector(K, OPC, sqn=1, rand=RAND)
    v2 = auth.generate_vector(K, OPC, sqn=1, rand=RAND)
    assert v1 == v2


def test_a_vector_is_pinned_byte_for_byte():
    """Golden OPc, RES, AUTN and KASME: a change to how the PRF feeds
    HMAC-SHA256 must keep every byte."""
    vector = auth.generate_vector(K, OPC, sqn=5, rand=RAND)
    assert OPC.hex() == "2326c2ee4bed2429be057b44e17456e0"
    assert vector.xres.hex() == "796b66324c58ff2c"
    assert vector.autn.hex() == "000000000005a203f2cc2bd98e8b"
    assert vector.kasme.hex() == ("831a77d94029478023e38e410a9ed426"
                                  "6d39803893853d46487c50efe69c44dc")


def test_usim_res_matches_xres():
    vector = auth.generate_vector(K, OPC, sqn=1, rand=RAND)
    res = auth.usim_compute_res(K, OPC, RAND)
    assert res == vector.xres


def test_wrong_key_res_mismatch():
    vector = auth.generate_vector(K, OPC, sqn=1, rand=RAND)
    wrong_k = bytes(16)
    assert auth.usim_compute_res(wrong_k, OPC, RAND) != vector.xres


def test_autn_verification_succeeds_and_advances_sqn():
    vector = auth.generate_vector(K, OPC, sqn=5, rand=RAND)
    new_sqn = auth.usim_verify_autn(K, OPC, RAND, vector.autn, usim_sqn=3)
    assert new_sqn == 5


def test_autn_mac_failure_with_wrong_key():
    vector = auth.generate_vector(K, OPC, sqn=5, rand=RAND)
    with pytest.raises(auth.AuthenticationFailure, match="MAC"):
        auth.usim_verify_autn(bytes(16), OPC, RAND, vector.autn, usim_sqn=3)


def test_autn_replay_detected():
    vector = auth.generate_vector(K, OPC, sqn=5, rand=RAND)
    with pytest.raises(auth.AuthenticationFailure, match="replay"):
        auth.usim_verify_autn(K, OPC, RAND, vector.autn, usim_sqn=5)


def test_autn_sqn_too_far_ahead():
    vector = auth.generate_vector(K, OPC, sqn=1000, rand=RAND)
    with pytest.raises(auth.AuthenticationFailure, match="out of range"):
        auth.usim_verify_autn(K, OPC, RAND, vector.autn, usim_sqn=0)


def test_malformed_autn():
    with pytest.raises(auth.AuthenticationFailure, match="malformed"):
        auth.usim_verify_autn(K, OPC, RAND, b"short", usim_sqn=0)


def test_different_rand_different_vector():
    v1 = auth.generate_vector(K, OPC, sqn=1, rand=b"\x01" * 16)
    v2 = auth.generate_vector(K, OPC, sqn=1, rand=b"\x02" * 16)
    assert v1.xres != v2.xres
    assert v1.kasme != v2.kasme


def test_input_validation():
    with pytest.raises(ValueError):
        auth.generate_vector(b"short", OPC, 1, RAND)
    with pytest.raises(ValueError):
        auth.generate_vector(K, OPC, 1, b"short")
    with pytest.raises(ValueError):
        auth.generate_vector(K, OPC, -1, RAND)


def test_derive_opc_depends_on_both_inputs():
    assert auth.derive_opc(K, OP) != auth.derive_opc(K, b"other-operator!!")
    assert auth.derive_opc(K, OP) != auth.derive_opc(bytes(16), OP)
    assert len(auth.derive_opc(K, OP)) == auth.KEY_BYTES
