"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.orchestrator import ConfigStore
from repro.core.policy.ocs import OnlineChargingSystem
from repro.core.policy.enforcer import EnforcementState
from repro.core.policy.rules import PolicyRule
from repro.dataplane import TokenBucketMeter
from repro.lte import TeidAllocator, auth, make_imsi
from repro.sim import Simulator, median, percentile
from repro.sim.fairshare import max_min_share
from repro.core.agw import Mobilityd


# -- max-min fair sharing ---------------------------------------------------------

demands = st.dictionaries(
    st.text(alphabet="abcdefgh", min_size=1, max_size=4),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    min_size=0, max_size=8)


@given(demands, st.floats(min_value=0.0, max_value=1e5, allow_nan=False))
def test_fairshare_never_exceeds_capacity(offered, capacity):
    allocation = max_min_share(offered, capacity)
    assert sum(allocation.values()) <= capacity + 1e-6


@given(demands, st.floats(min_value=0.0, max_value=1e5, allow_nan=False))
def test_fairshare_never_exceeds_demand(offered, capacity):
    allocation = max_min_share(offered, capacity)
    for user, granted in allocation.items():
        assert granted <= offered[user] + 1e-6


@given(demands, st.floats(min_value=0.0, max_value=1e5, allow_nan=False))
def test_fairshare_work_conserving(offered, capacity):
    """Either all demand is met or (almost) all capacity is used."""
    allocation = max_min_share(offered, capacity)
    total_demand = sum(offered.values())
    total_granted = sum(allocation.values())
    if total_demand <= capacity:
        assert total_granted == pytest_approx(total_demand)
    else:
        assert total_granted == pytest_approx(capacity)


@given(demands, st.floats(min_value=0.1, max_value=1e5, allow_nan=False),
       st.floats(min_value=0.1, max_value=1e4, allow_nan=False))
def test_fairshare_respects_per_user_cap(offered, capacity, cap):
    allocation = max_min_share(offered, capacity, per_user_cap=cap)
    for granted in allocation.values():
        assert granted <= cap + 1e-6


@given(demands, st.floats(min_value=0.0, max_value=1e5, allow_nan=False))
def test_fairshare_light_users_satisfied_first(offered, capacity):
    """If any user is unsatisfied, every user with larger demand gets no
    more than that user (max-min property)."""
    allocation = max_min_share(offered, capacity)
    for u, granted in allocation.items():
        if granted < offered[u] - 1e-6:     # unsatisfied
            for v, other in allocation.items():
                if offered[v] >= offered[u]:
                    assert other <= granted + 1e-6


def pytest_approx(value, tolerance=1e-6):
    import pytest
    return pytest.approx(value, abs=max(tolerance, abs(value) * 1e-9))


# -- percentile ----------------------------------------------------------------------

values = st.lists(st.floats(min_value=-1e6, max_value=1e6,
                            allow_nan=False), min_size=1, max_size=50)


@given(values, st.floats(min_value=0, max_value=100))
def test_percentile_within_bounds(data, q):
    result = percentile(data, q)
    assert min(data) - 1e-9 <= result <= max(data) + 1e-9


@given(values)
def test_percentile_monotone_in_q(data):
    points = [percentile(data, q) for q in (0, 25, 50, 75, 100)]
    assert all(a <= b + 1e-9 for a, b in zip(points, points[1:]))


@given(values)
def test_median_is_50th_percentile(data):
    assert median(data) == percentile(data, 50)


# -- token bucket -----------------------------------------------------------------------

@given(st.floats(min_value=0.1, max_value=100.0),
       st.integers(min_value=100, max_value=100_000),
       st.lists(st.tuples(st.floats(min_value=0.001, max_value=2.0),
                          st.integers(min_value=1, max_value=2_000)),
                min_size=1, max_size=50))
def test_token_bucket_long_run_rate_bound(rate_mbps, burst, arrivals):
    """Admitted bytes can never exceed burst + rate x elapsed."""
    meter = TokenBucketMeter(1, rate_mbps=rate_mbps, burst_bytes=burst)
    now = 0.0
    admitted = 0
    for gap, size in arrivals:
        now += gap
        if meter.allow(size, now):
            admitted += size
    bound = burst + meter.rate_bytes_per_sec * now
    assert admitted <= bound + 1e-6


@given(st.floats(min_value=0.1, max_value=1000.0),
       st.floats(min_value=0.0, max_value=10_000.0))
def test_token_bucket_shape_is_min(rate, offered):
    meter = TokenBucketMeter(1, rate_mbps=rate)
    assert meter.shape(offered) == min(offered, rate)


# -- config store WAL ----------------------------------------------------------------------

ops = st.lists(
    st.tuples(st.sampled_from(["put", "delete"]),
              st.sampled_from(["a", "b", "c", "d"]),
              st.integers(min_value=0, max_value=100)),
    max_size=40)


@given(ops)
def test_config_store_wal_recovery_equals_state(operations):
    store = ConfigStore()
    for op, key, value in operations:
        if op == "put":
            store.put("ns", key, value)
        else:
            try:
                store.delete("ns", key)
            except KeyError:
                pass
    recovered = store.recover()
    assert recovered.namespace("ns") == store.namespace("ns")
    assert recovered.version == store.version


@given(ops)
def test_config_store_version_strictly_increases(operations):
    store = ConfigStore()
    last = store.version
    for op, key, value in operations:
        try:
            if op == "put":
                version = store.put("ns", key, value)
            else:
                version = store.delete("ns", key)
        except KeyError:
            continue
        assert version == last + 1
        last = version


# -- mobilityd IP allocation ------------------------------------------------------------------

@given(st.lists(st.tuples(st.sampled_from(["alloc", "release"]),
                          st.integers(min_value=0, max_value=9)),
                max_size=60))
def test_mobilityd_no_duplicate_assignments(actions):
    mobilityd = Mobilityd("10.1.0.0/24")
    for action, index in actions:
        imsi = make_imsi(index)
        if action == "alloc":
            mobilityd.allocate(imsi)
        else:
            mobilityd.release(imsi)
        # Invariant: assigned IPs are unique and reverse-mapped correctly.
        assigned = {}
        for j in range(10):
            other = make_imsi(j)
            ip = mobilityd.lookup_ip(other)
            if ip is not None:
                assert ip not in assigned
                assigned[ip] = other
                assert mobilityd.lookup_imsi(ip) == other


@given(st.integers(min_value=0, max_value=9))
def test_mobilityd_allocation_is_sticky(index):
    mobilityd = Mobilityd("10.1.0.0/24")
    imsi = make_imsi(index)
    first = mobilityd.allocate(imsi)
    assert mobilityd.allocate(imsi) == first


# -- TEID allocator ------------------------------------------------------------------------------

@given(st.lists(st.booleans(), max_size=80))
def test_teid_allocator_never_doubly_assigns(choices):
    allocator = TeidAllocator()
    live = set()
    for allocate in choices:
        if allocate or not live:
            teid = allocator.allocate()
            assert teid not in live
            live.add(teid)
        else:
            teid = live.pop()
            allocator.release(teid)


# -- EPS-AKA ------------------------------------------------------------------------------------

keys_strategy = st.binary(min_size=16, max_size=16)


@given(keys_strategy, keys_strategy, st.integers(min_value=1, max_value=2**40),
       keys_strategy)
def test_aka_roundtrip_always_verifies(k, op, sqn, rand):
    opc = auth.derive_opc(k, op)
    vector = auth.generate_vector(k, opc, sqn, rand)
    assert auth.usim_compute_res(k, opc, rand) == vector.xres
    new_sqn = auth.usim_verify_autn(k, opc, rand, vector.autn, sqn - 1)
    assert new_sqn == sqn


@given(keys_strategy, keys_strategy, keys_strategy)
def test_aka_wrong_key_never_verifies(k, wrong_k, rand):
    assume(k != wrong_k)
    op = b"property-test-op"
    opc = auth.derive_opc(k, op)
    vector = auth.generate_vector(k, opc, 5, rand)
    assert auth.usim_compute_res(wrong_k, opc, rand) != vector.xres


# -- IMSI ------------------------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=10**10 - 1))
def test_imsi_roundtrip(index):
    imsi = make_imsi(index)
    assert len(imsi) == 15 and imsi.isdigit()
    assert int(imsi[5:]) == index


# -- OCS accounting invariants ----------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=10),
       st.lists(st.tuples(st.integers(min_value=0, max_value=2_000_000),
                          st.booleans()), max_size=10))
def test_ocs_charges_never_exceed_grants(balance_mb, usage_reports):
    ocs = OnlineChargingSystem(quota_bytes=1_000_000)
    imsi = make_imsi(1)
    ocs.provision(imsi, balance_bytes=balance_mb * 1_000_000)
    grants = []
    for used, final in usage_reports:
        grant = ocs.request_quota(imsi, "agw-x")
        if grant is None:
            break
        grants.append(grant)
        try:
            ocs.report_usage(grant.grant_id, used, final=final)
        except Exception:
            pass
        account = ocs.account(imsi)
        # Invariants after every step:
        assert account.reserved_bytes >= 0
        assert account.charged_bytes >= 0
        granted_total = sum(g.granted_bytes for g in grants)
        assert account.charged_bytes <= granted_total
        assert account.available_bytes >= 0


# -- enforcement state --------------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=10_000_000), max_size=20),
       st.integers(min_value=1, max_value=20_000_000))
def test_enforcer_rate_never_negative_and_cap_latches(usages, cap):
    policy = PolicyRule(policy_id="p", rate_limit_mbps=10.0,
                        usage_cap_bytes=cap, throttled_rate_mbps=1.0)
    state = EnforcementState(policy)
    now = 0.0
    total = 0
    for used in usages:
        state.record_usage(used, now)
        total += used
        decision = state.decide(now)
        assert decision.allowed_mbps >= 0
        if total >= cap:
            assert decision.throttled
            assert decision.allowed_mbps == 1.0
        else:
            assert decision.allowed_mbps == 10.0
        now += 1.0


# -- simulator event ordering ---------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False), max_size=30))
def test_simulator_executes_in_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append((sim.now, d)))
    sim.run()
    times = [t for t, _d in fired]
    assert times == sorted(times)
    for t, d in fired:
        assert t == d
