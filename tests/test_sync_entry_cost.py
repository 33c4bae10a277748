"""Cost of hashing and sizing one desired-state entry: one pass, flat in
how many entries of its type came before.

The sync write path digests every entry a gateway applies and sizes
every entry a response ships, so the per-entry cost of
``entry_digest`` and ``payload_bytes`` is the workload (DESIGN.md §6.9).
The checks count executed calls under ``cProfile`` - the same counter as
the benchmark's ``host_calls`` - rather than time, so they are
deterministic.
"""

import cProfile
import dataclasses

from repro.core.agw import SubscriberProfile
from repro.core.sync import entry_digest
from repro.net.rpc import payload_bytes


def profile(index):
    return SubscriberProfile(imsi=f"00101{index:010d}",
                             k=bytes([index % 251]) * 16,
                             opc=bytes([index % 241 + 1]) * 16)


def calls_by_function(fn, *args):
    """``{(file, function): calls}`` for Python + C calls inside ``fn``."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn(*args)
    finally:
        profiler.disable()
    calls = {}
    for entry in profiler.getstats():
        code = entry.code
        name = (code.co_filename, code.co_name) \
            if hasattr(code, "co_name") else ("<builtin>", code)
        if "_lsprof.Profiler" not in name[1]:       # the disable() above
            calls[name] = calls.get(name, 0) + entry.callcount
    return calls


def asks_dataclasses_for_fields(calls):
    return any(function == "fields" and path.endswith("dataclasses.py")
               for path, function in calls)


def test_one_subscriber_profile_costs_a_few_dozen_calls():
    warm = profile(0)
    entry_digest(warm.imsi, warm)
    payload_bytes(warm)
    entry = profile(1)
    digest_calls = calls_by_function(entry_digest, entry.imsi, entry)
    size_calls = calls_by_function(payload_bytes, entry)
    # 15 and 15 as measured; the isinstance ladders cost 130 and 70 (a
    # dozen calls per field).  The slack is for other interpreters.
    assert sum(digest_calls.values()) <= 45
    assert sum(size_calls.values()) <= 35
    assert not asks_dataclasses_for_fields(digest_calls)
    assert not asks_dataclasses_for_fields(size_calls)


def test_cost_is_the_same_for_the_first_and_the_thousandth_entry():
    costs = {}
    for index in range(1001):       # entry 0 may compile the type's plan
        entry = profile(index)
        if index in (1, 1000):
            costs[index] = (
                sum(calls_by_function(
                    entry_digest, entry.imsi, entry).values()),
                sum(calls_by_function(payload_bytes, entry).values()))
        else:
            entry_digest(entry.imsi, entry)
            payload_bytes(entry)
    assert costs[1] == costs[1000]


def test_a_type_is_asked_for_its_fields_once_per_walker():
    record = dataclasses.make_dataclass(
        "Record", [("name", str), ("secret", bytes), ("limit", float)])
    first, second = record("a", b"k", 1.0), record("b", b"kk", 2.0)
    assert asks_dataclasses_for_fields(
        calls_by_function(entry_digest, "a", first))
    assert asks_dataclasses_for_fields(calls_by_function(payload_bytes, first))
    assert not asks_dataclasses_for_fields(
        calls_by_function(entry_digest, "b", second))
    assert not asks_dataclasses_for_fields(
        calls_by_function(payload_bytes, second))
