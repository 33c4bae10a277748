"""Unit tests for identifiers and the GTP-C endpoint."""

import pytest

from repro.lte import TeidAllocator, make_imsi
from repro.lte.gtp import (N3, EchoRequest, EchoResponse, GtpcEndpoint,
                            GtpTimeout)
from repro.net import Link, Network
from repro.sim import RngRegistry, Simulator


def test_make_imsi_format():
    imsi = make_imsi(1)
    assert imsi == "001010000000001"
    assert len(imsi) == 15
    assert imsi.isdigit()


def test_make_imsi_validation():
    with pytest.raises(ValueError):
        make_imsi(-1)
    with pytest.raises(ValueError, match="PLMN too long"):
        make_imsi(1, plmn="0" * 15)


def test_teid_allocator_unique_and_reuse():
    alloc = TeidAllocator()
    a = alloc.allocate()
    b = alloc.allocate()
    assert a != b
    alloc.release(a)
    assert alloc.allocate() == a


def build_gtp(loss=0.0, seed=1):
    sim = Simulator()
    net = Network(sim, RngRegistry(seed))
    net.connect("mme", "pgw", Link(latency=0.02, loss=loss))
    mme = GtpcEndpoint(sim, net, "mme")
    pgw = GtpcEndpoint(sim, net, "pgw")
    return sim, net, mme, pgw


def test_gtpc_request_response():
    sim, net, mme, pgw = build_gtp()
    results = []

    def proc(sim):
        resp = yield mme.send_request("pgw", EchoRequest())
        results.append(resp)

    sim.spawn(proc(sim))
    sim.run()
    assert results == [EchoResponse(seq=1)]   # echoes the request's seq
    assert mme.stats["responses"] == 1


def test_gtpc_times_out_after_n3_retries():
    """The paper's §3.1 claim: GTP-C has a fixed retry budget and gives up."""
    sim, net, mme, pgw = build_gtp()
    net.set_node_up("pgw", False)
    failures = []

    def proc(sim):
        try:
            yield mme.send_request("pgw", EchoRequest())
        except GtpTimeout as exc:
            failures.append(str(exc))

    sim.spawn(proc(sim))
    sim.run()
    assert len(failures) == 1
    assert mme.stats["timeouts"] == 1
    assert mme.stats["retransmits"] == N3


def test_gtpc_survives_light_loss_but_not_heavy():
    # Light loss: retransmissions cover it.
    sim, net, mme, pgw = build_gtp(loss=0.2, seed=3)
    outcomes = {"ok": 0, "timeout": 0}

    def proc(sim):
        try:
            yield mme.send_request("pgw", EchoRequest())
            outcomes["ok"] += 1
        except GtpTimeout:
            outcomes["timeout"] += 1

    for _ in range(30):
        sim.spawn(proc(sim))
    sim.run()
    assert outcomes["ok"] > 25  # mostly fine at 20% loss

    # Heavy loss: with only N3 retries, many requests fail outright.
    sim2, net2, mme2, pgw2 = build_gtp(loss=0.7, seed=4)
    outcomes2 = {"ok": 0, "timeout": 0}

    def proc2(sim):
        try:
            yield mme2.send_request("pgw", EchoRequest())
            outcomes2["ok"] += 1
        except GtpTimeout:
            outcomes2["timeout"] += 1

    for _ in range(30):
        sim2.spawn(proc2(sim2))
    sim2.run()
    assert outcomes2["timeout"] > 5


def test_echo_monitor_declares_path_failure():
    sim, net, mme, pgw = build_gtp()
    failed_paths = []
    mme.set_path_failure_callback(failed_paths.append)
    mme.start_path_monitor("pgw", interval=1.0)
    sim.run(until=3.0)
    assert failed_paths == []  # path healthy
    net.set_node_up("pgw", False)
    sim.run(until=20.0)
    assert failed_paths == ["pgw"]
    assert mme.stats["path_failures"] == 1


def test_echo_monitor_stop():
    """Closing the endpoint stops its path monitors."""
    sim, net, mme, pgw = build_gtp()
    failed_paths = []
    mme.set_path_failure_callback(failed_paths.append)
    mme.start_path_monitor("pgw", interval=1.0)
    sim.run(until=2.5)
    mme.close()
    net.set_node_up("pgw", False)
    sim.run(until=30.0)
    assert failed_paths == []


def test_unknown_request_type_ignored():
    sim, net, mme, pgw = build_gtp()
    errors = []

    def proc(sim):
        try:
            yield mme.send_request("pgw", ("create-session", "x" * 15))
        except GtpTimeout as exc:
            errors.append(exc)

    sim.spawn(proc(sim))
    sim.run()
    assert len(errors) == 1  # not an echo => silence => timeout


def test_teid_reserve_seeds_restore_state():
    """Restore-time seeding: reserved ids are never minted again."""
    alloc = TeidAllocator(start=0x1000)
    alloc.reserve(0x1000)          # a restored session holds the first id
    alloc.reserve(0x1002)
    assert alloc.allocate() == 0x1001
    assert alloc.allocate() == 0x1003
    assert alloc.is_in_use(0x1000)
    assert alloc.in_use_count() == 4


def test_teid_reserve_purges_free_list_lazily():
    alloc = TeidAllocator(start=1)
    a = alloc.allocate()
    alloc.release(a)
    alloc.reserve(a)               # a comes back via a checkpoint restore
    assert alloc.allocate() != a   # the stale free-list entry is skipped


def test_teid_reserve_all_bulk():
    alloc = TeidAllocator(start=1)
    alloc.reserve_all([1, 2, 3])
    assert alloc.allocate() == 4


def test_teid_double_release_never_mints_duplicates():
    alloc = TeidAllocator(start=1)
    a = alloc.allocate()
    alloc.release(a)
    alloc.release(a)
    assert alloc.allocate() == a
    assert alloc.allocate() != a
