"""Second round of property-based tests: radio, diurnal, CSR bins, matcher."""

from hypothesis import given
from hypothesis import strategies as st

from repro.lte import CellConfig, CellModel
from repro.dataplane import FlowMatch, ip_packet
from repro.sim.monitor import Series
from repro.workloads.diurnal import DiurnalConfig, diurnal_factor, generate_trace


# -- cell model ----------------------------------------------------------------------

rates = st.lists(st.floats(min_value=0.0, max_value=100.0,
                           allow_nan=False), min_size=1, max_size=20)


@given(rates, st.floats(min_value=1.0, max_value=500.0))
def test_cell_allocation_bounded_by_capacity_and_demand(offered, capacity):
    cell = CellModel(CellConfig(max_active_ues=50, capacity_mbps=capacity,
                                per_ue_peak_mbps=1000.0))
    for i, rate in enumerate(offered):
        cell.admit(f"u{i}")
        cell.set_offered_rate(f"u{i}", rate)
    allocation = cell.allocate()
    assert sum(allocation.values()) <= capacity + 1e-6
    for i, rate in enumerate(offered):
        assert allocation[f"u{i}"] <= rate + 1e-9
    assert sum(allocation.values()) <= min(capacity, sum(offered)) + 1e-6


@given(st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=40))
def test_cell_admission_never_exceeds_limit(limit, arrivals):
    cell = CellModel(CellConfig(max_active_ues=limit))
    admitted = 0
    for i in range(arrivals):
        try:
            cell.admit(f"u{i}")
            admitted += 1
        except Exception:
            pass
    assert len(cell.allocate()) == min(limit, arrivals)
    assert admitted == min(limit, arrivals)


# -- diurnal generator -----------------------------------------------------------------

@given(st.integers(min_value=0, max_value=23),
       st.integers(min_value=0, max_value=23),
       st.floats(min_value=0.01, max_value=1.0))
def test_diurnal_factor_bounded(hour, peak, trough):
    value = diurnal_factor(hour, peak, trough)
    assert trough - 1e-9 <= value <= 1.0 + 1e-9


@given(st.integers(min_value=1, max_value=10),
       st.integers(min_value=0, max_value=100))
def test_diurnal_trace_nonnegative_and_sized(days, seed):
    trace = generate_trace(DiurnalConfig(days=days), seed=seed)
    assert len(trace) == days * 24
    for sample in trace:
        assert sample.active_subscribers >= 0
        assert sample.throughput_mbps >= 0
        assert 0 <= sample.hour_of_day < 24
        assert sample.hour_index == sample.day * 24 + sample.hour_of_day


# -- monitor series binning ----------------------------------------------------------------

@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=99.0,
                                    allow_nan=False),
                          st.floats(min_value=-10, max_value=10,
                                    allow_nan=False)),
                max_size=40),
       st.floats(min_value=0.5, max_value=20.0))
def test_binned_count_conserves_samples(points, width):
    series = Series("x")
    for t, v in sorted(points, key=lambda p: p[0]):
        series.record(t, v)
    bins = series.binned(width, t0=0.0, t1=100.0, agg="count")
    in_range = sum(1 for t, _v in points if 0.0 <= t < 100.0)
    assert sum(count for _start, count in bins) == in_range


@given(st.lists(st.floats(min_value=0.0, max_value=9.9, allow_nan=False),
                min_size=1, max_size=30))
def test_binned_sum_matches_total(times):
    series = Series("x")
    for t in sorted(times):
        series.record(t, 2.0)
    bins = series.binned(1.0, t0=0.0, t1=10.0, agg="sum")
    assert sum(v for _t, v in bins) == 2.0 * len(times)


# -- flow matcher -------------------------------------------------------------------------

octet = st.integers(min_value=0, max_value=255)
addresses = st.tuples(octet, octet, octet, octet).map(
    lambda o: ".".join(map(str, o)))


@given(addresses, addresses)
def test_exact_ip_match_iff_equal(ip_a, ip_b):
    match = FlowMatch(ip_src=ip_a)
    packet = ip_packet(ip_b, "1.1.1.1")
    assert match.matches(packet, None) == (ip_a == ip_b)


@given(addresses, st.integers(min_value=0, max_value=32))
def test_prefix_always_matches_own_address(address, prefix_len):
    match = FlowMatch(ip_dst=f"{address}/{prefix_len}")
    packet = ip_packet("9.9.9.9", address)
    assert match.matches(packet, None)


@given(addresses)
def test_wildcard_matches_any(address):
    assert FlowMatch().matches(ip_packet(address, address), "anyport")
