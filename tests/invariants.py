"""Global invariants over a running orchestrator, as plain functions.

Each takes live objects, reads only their public surface and returns the
violations it found as strings (an empty list when the invariant holds),
so any test - or a fuzzer checking at quiescent points - can call it.
"""

from typing import Dict, List


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


def wire_byte_violations(orc, agws) -> List[str]:
    """Both ends of every sync exchange count the same bytes.

    On a lossless site every message a gateway sends reaches its owner
    shard and every reply comes back, so each shard's ``statesync``
    ``tx_bytes`` equals the sum of its gateways' magmad
    ``checkin_rx_bytes``, and its ``rx_bytes`` their ``checkin_tx_bytes``.
    Owners come from ``orc.shard_for``.
    """
    violations: List[str] = []
    for shard in orc.shards:
        mine = [agw for agw in agws
                if orc.shard_for(agw.node).shard_id == shard.shard_id]
        for sent, received in (("tx_bytes", "checkin_rx_bytes"),
                               ("rx_bytes", "checkin_tx_bytes")):
            ours = shard.statesync.stats[sent]
            theirs = sum(agw.magmad.stats[received] for agw in mine)
            if ours != theirs:
                violations.append(f"{shard.shard_id} counts {sent}={ours}, "
                                  f"its gateways {received}={theirs}")
    return violations


def shipped_metric_violations(agw, shipped: Dict[str, float]) -> List[str]:
    """Every metric a gateway ships is its own, and it ships all of them.

    ``shipped`` is one bundle from ``agw.metrics_summary()``, checked at
    the instant it was taken.  Each key must be owned by one of this
    gateway's services and carry that service's current value: the MME's
    counters, sessiond's session count, magmad's wire bytes, pipelined's
    ``datapath_metrics()``.  ``cpu_util``, a mean since the previous
    bundle, must be a fraction of the gateway's cores.
    """
    mme, magmad = agw.mme.stats, agw.magmad.stats
    own = {
        "attach_requests": mme["attach_requests"],
        "attach_accepted": mme["attach_accepted"],
        "attach_rejected": mme["attach_rejected"],
        "idle_transitions": mme["idle_transitions"],
        "sessions_active": agw.sessiond.session_count(),
        "checkin_tx_bytes": magmad["checkin_tx_bytes"],
        "checkin_rx_bytes": magmad["checkin_rx_bytes"],
    }
    own.update(agw.pipelined.datapath_metrics())
    violations: List[str] = []
    for name, value in shipped.items():
        if name == "cpu_util":
            if not 0.0 <= value <= 1.0:
                violations.append(f"{agw.node} ships cpu_util={value}")
        elif name not in own:
            violations.append(f"{agw.node} ships {name}={value}, "
                              f"which none of its services owns")
        elif value != own[name]:
            violations.append(f"{agw.node} ships {name}={value}, "
                              f"its own is {own[name]}")
    for name in own.keys() - shipped.keys():
        violations.append(f"{agw.node} does not ship its own {name}")
    return violations
