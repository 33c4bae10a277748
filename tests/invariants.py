"""Global invariants over a running orchestrator, as plain functions.

Each takes live objects, reads only their public surface and returns the
violations it found as strings (an empty list when the invariant holds),
so any test - or a fuzzer checking at quiescent points - can call it.
"""

from typing import List


def shard_ownership_violations(orc) -> List[str]:
    """Every gateway lives on its owner shard only.

    The precondition the health engine scores under: a gateway is
    registered only in its owner shard's ``statesync``, and every
    ``gateway_id``-labelled series lives only in that shard's
    ``metricsd``.  Owners come from ``orc.shard_for``.
    """
    violations: List[str] = []
    for shard in orc.shards:
        for state in shard.statesync.gateways():
            owner = orc.shard_for(state.gateway_id).shard_id
            if owner != shard.shard_id:
                violations.append(
                    f"gateway {state.gateway_id} registered on "
                    f"{shard.shard_id}, owner {owner}")
        metricsd = shard.metricsd
        for name in metricsd.series_names():
            for labels in metricsd.label_sets(name):
                gateway_id = labels.get("gateway_id")
                if gateway_id is None:
                    continue
                owner = orc.shard_for(gateway_id).shard_id
                if owner != shard.shard_id:
                    violations.append(
                        f"series {name}{labels} stored on "
                        f"{shard.shard_id}, owner {owner}")
    return violations
