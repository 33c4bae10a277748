"""Cost of metricsd ingest, as call counts.

A check-in storm is thousands of gateways each shipping the same metric
names with one capture time and one label set, so what one bundle costs
*is* the orchestrator's metrics load.  Like ``test_sync_walk_cost.py``
the checks count executed calls under ``cProfile`` - the benchmark's
``host_calls`` counter - so they are deterministic.  The per-series store
this replaced paid about six calls per sample: 151 for a 24-name bundle,
583 for 96, 12 for one sample on its own.
"""

from repro.core.orchestrator import Metricsd

from costs import calls, profiled

LABELS = {"gateway_id": "gw-1"}


def names(width):
    return [f"metric-{index}" for index in range(width)]


def bundle(keys, time):
    return {key: time / 10 for key in keys}


def stable_bundle_calls(width):
    store = Metricsd()
    for time in range(5):
        store.ingest_bundle(bundle(names(width), time), float(time), LABELS)
    return calls(store.ingest_bundle, bundle(names(width), 9), 9.0, LABELS)


def test_a_stable_bundle_costs_the_same_at_any_width():
    # 10 as measured: the label freeze, one block lookup, one row append.
    narrow, wide = stable_bundle_calls(24), stable_bundle_calls(96)
    assert narrow <= 16
    assert narrow == wide


def test_a_split_bundle_pays_less_per_sample_than_a_series_store():
    # The key set grows by three names mid-stream, as a fleet gateway's
    # does once: the first 21 series split into width-1 blocks and every
    # later bundle lands name by name.  56 as measured (151 before).
    store = Metricsd()
    keys = names(24)
    for time in range(3):
        store.ingest_bundle(bundle(keys[:-3], time), float(time), LABELS)
    for time in range(3, 6):
        store.ingest_bundle(bundle(keys, time), float(time), LABELS)
    assert calls(store.ingest_bundle, bundle(keys, 9), 9.0, LABELS) \
        <= 3 * len(keys)


def test_a_single_sample_costs_no_more_than_before():
    store = Metricsd()
    for time in range(5):
        store.ingest("attach.latency.agw-1", 0.1, float(time), LABELS, 7)
    # 9 as measured (12 before).
    assert calls(store.ingest, "attach.latency.agw-1", 0.2, 9.0, LABELS,
                 8) <= 12


def metricsd_calls(entries):
    """Calls per function name of ``metricsd.py`` among profiled entries."""
    return {entry.code.co_name: entry.callcount for entry in entries
            if not isinstance(entry.code, str)
            and entry.code.co_filename.endswith("metricsd.py")}


def test_a_gateway_bundle_lands_in_one_block_however_its_load_moves():
    # An orchestrated one-AGW site whose fleet load starts after the
    # first check-in: the bundle keeps its key set, so every check-in
    # lands as one row and no block ever splits.
    from repro.core.agw import AgwConfig
    from repro.deploy import build

    site = build(backhaul="fiber", config=AgwConfig(checkin_interval=5.0))
    sim = site.sim
    sim.run(until=6.0)                       # past the first check-in
    site.agw.pipelined.set_fleet_load(5.0)
    _, entries = profiled(sim.run, until=60.0)
    counts = metricsd_calls(entries)
    assert counts["ingest_bundle"] >= 10
    assert counts.get("_split", 0) == 0
    # One row per bundle; a lone sample (the convergence lag of the
    # first config push) lands on its own.
    assert counts["_land"] == counts["ingest_bundle"] + counts.get("ingest", 0)
