"""Block-storage metricsd reads exactly what the per-series store read.

``reference_metricsd`` holds the retired ``Metricsd``: one deque of
``Sample`` per series.  Random ingest streams run against it and against
the product side by side, alone and as two shards behind a
``MergedMetricsView``, and after every ingest every read must be equal:
``query`` and ``latest`` of every series, ``label_sets``, ``series_names``,
``sum_latest`` (as floats, exactly — the values mix magnitudes so the
order of addition shows) and ``stats``.

The streams cover stable bundle signatures, a key set that grows
mid-stream, reordered keys, names that are bundled and also ingested one
at a time, empty bundles, ``None`` and empty labels, back-fill inside and
past retention, caps 0, 1 and 3, and exemplar trace ids.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_metricsd import ReferenceMetricsd
from repro.core.orchestrator import Metricsd, metricsd
from repro.core.sync import MergedMetricsView

NAMES = ("cpu", "mem", "disk", "rx", "lat")
LABELS = (None, {}, {"gateway_id": "a"}, {"gateway_id": "b"},
          {"gateway_id": "a", "site": "x"})
#: Key tuples a gateway might send: a stable set, the set grown by one,
#: the same set reordered, a subset, one name, nothing.
SIGNATURES = (("cpu", "mem", "disk"), ("cpu", "mem", "disk", "rx"),
              ("mem", "cpu", "disk"), ("cpu", "mem"), ("rx",), ())

values = st.one_of(st.floats(0.0, 1.0), st.sampled_from([1e16, -1e16, 3.0]))
times = st.integers(0, 60).map(float)
bundle = st.tuples(
    st.just("bundle"), st.sampled_from(SIGNATURES),
    st.lists(values, min_size=4, max_size=4), times,
    st.sampled_from(range(len(LABELS))))
single = st.tuples(
    st.just("single"), st.sampled_from(NAMES), values, times,
    st.sampled_from(range(len(LABELS))),
    st.one_of(st.none(), st.integers(0, 2 ** 48)))
streams = st.lists(st.one_of(bundle, bundle, single), max_size=40)
limits = st.tuples(st.sampled_from([5.0, 20.0, 1e9]),
                   st.sampled_from([0, 1, 3, 100_000]))


def apply(store, op):
    if op[0] == "bundle":
        _, names, vals, time, labels = op
        store.ingest_bundle(dict(zip(names, vals)), time, LABELS[labels])
    else:
        _, name, value, time, labels, trace_id = op
        store.ingest(name, value, time, LABELS[labels], trace_id)


def reads(store):
    """Everything a caller can read back, in one fixed order."""
    return (
        [(store.query(name, labels), store.latest(name, labels))
         for name in NAMES for labels in LABELS],
        [store.label_sets(name) for name in NAMES],
        store.series_names(),
        [repr(store.sum_latest(name)) for name in NAMES])


@contextmanager
def patched(retention, cap):
    """metricsd's retention and per-series cap, patched for one example
    (hypothesis examples cannot share the ``monkeypatch`` fixture)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metricsd, "RETENTION", retention)
        patch.setattr(metricsd, "MAX_SAMPLES_PER_SERIES", cap)
        yield


def shard_of(op):
    labels = LABELS[op[4]]
    return 1 if labels and labels["gateway_id"] == "b" else 0


@settings(max_examples=300, deadline=None)
@given(streams, limits)
def test_every_read_matches_the_per_series_store(ops, limit):
    retention, cap = limit
    store = Metricsd()
    model = ReferenceMetricsd(retention, cap)
    with patched(retention, cap):
        for op in ops:
            apply(store, op)
            apply(model, op)
            assert reads(store) == reads(model), op
            assert store.stats == model.stats


@settings(max_examples=150, deadline=None)
@given(streams, limits)
def test_two_shards_merge_to_the_per_series_view(ops, limit):
    retention, cap = limit
    shards = [Metricsd() for _ in range(2)]
    models = [ReferenceMetricsd(retention, cap) for _ in range(2)]
    view, model_view = MergedMetricsView(shards), MergedMetricsView(models)
    with patched(retention, cap):
        for op in ops:
            apply(shards[shard_of(op)], op)
            apply(models[shard_of(op)], op)
            assert reads(view) == reads(model_view), op
            assert [s.stats for s in shards] == [m.stats for m in models]


def test_a_grown_key_set_keeps_every_series_history():
    """A gateway's bundle gains a name: the 17 → 20 step every fleet AGW
    takes once, in miniature."""
    labels = {"gateway_id": "a"}
    store, model = Metricsd(), ReferenceMetricsd()
    for time, names in ((1.0, ("cpu", "mem")), (2.0, ("cpu", "mem")),
                        (3.0, ("cpu", "mem", "disk")), (2.5, ("mem",))):
        for target in (store, model):
            target.ingest_bundle({name: time for name in names}, time,
                                 labels)
    assert reads(store) == reads(model)
    assert [s.time for s in store.query("mem", labels)] == \
        [1.0, 2.0, 3.0, 2.5]
    assert store.latest("mem", labels).time == 3.0
