"""Every example script must run to completion (end-to-end smoke).

Every example's whole stdout is deterministic and pinned, so a change
that moves event order on any path an example takes fails here.
``quickstart.py``, ``rural_isp.py`` and ``backup_failover.py`` cross the
orchestrator over backhaul (``rural_isp.py`` also runs headless and
recovers from a checkpoint, ``backup_failover.py`` fails over to a
standby AGW and back); ``accessparks_backhaul.py`` runs LTE backhaul for
WiFi APs, ``neutral_host.py`` roams MNO subscribers through the FeG and
``enterprise_5g.py`` runs 5G, WiFi and IoT on one AGW.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

EXAMPLES = [
    ("quickstart.py", "quickstart complete"),
    ("rural_isp.py", "rural ISP scenario complete"),
    ("accessparks_backhaul.py", "AccessParks scenario complete"),
    ("neutral_host.py", "neutral host scenario complete"),
    ("enterprise_5g.py", "enterprise 5G scenario complete"),
    ("backup_failover.py", "backup failover scenario complete"),
]

#: Whole stdout of every example.
EXPECTED_STDOUT = {
    "quickstart.py": (
        "[t= 12.0s] AGW synced 1 subscriber(s) from the orchestrator\n"
        "[t= 13.1s] attach: success=True latency=1.12s ip=10.128.0.1\n"
        "[t= 15.1s] session agw-1-s1: policy=bronze agw_teid=0x1000"
        " enb_teid=0x2000\n"
        "[t= 25.1s] offered 50.0 Mbps, achieved 10.0 Mbps (policy-limited)\n"
        "[t= 27.1s] detached; CDR: 12,500,000 bytes over 12s\n"
        "[t= 37.1s] orchestrator metric attach_accepted=1 for agw-1\n"
        "quickstart complete\n"),
    "rural_isp.py": (
        "[t=  40.0s] subscriberdb sizes per site: [12, 12, 12]"
        " (all 12 subscribers, synced over satellite)\n"
        "[t=  58.5s] all 12 subscribers attached\n"
        "[t=  68.5s] first subscriber used 23.0 MB, rate now 10.0 Mbps"
        " (full)\n"
        "[t=  68.5s] *** satellite backhaul outage begins ***\n"
        "[t= 131.6s] re-attach during outage: success=False"
        " (cached subscriber, headless AGW)\n"
        "[t= 671.6s] *** backhaul restored ***\n"
        "[t= 676.6s] site 2 down; sites 0-1 still serving 7 sessions\n"
        "[t= 676.6s] site 2 battery back: 4 sessions restored from"
        " checkpoint\n"
        "[t= 676.6s] metered 842.5 MB in active sessions; OCS charged"
        " 150.0 MB to prepaid users over 150 quota grants\n"
        "rural ISP scenario complete\n"),
    "backup_failover.py": (
        "[t= 65.0s] agw-1 and the backup synced 3 and 3 subscribers from"
        " the orchestrator\n"
        "[t= 69.2s] agw-1 serves 2 sessions\n"
        "[t= 69.2s] agw-1 crashed; backup restored 2 sessions from its"
        " checkpoint\n"
        "[t= 69.3s] eNodeB re-pointed at the backup: accepted=True\n"
        "[t= 70.5s] third UE attached through the backup: success=True,"
        " backup serves 3 sessions\n"
        "[t= 70.5s] agw-1 recovered: 3 sessions handed back, backup left"
        " with 0\n"
        "[t= 70.5s] eNodeB re-pointed at agw-1: accepted=True\n"
        "backup failover scenario complete\n"),
    "accessparks_backhaul.py": (
        "[t=  76.7s] 6 AP backhaul modems attached across 2 park sites"
        " (policy: unrestricted)\n"
        "[t=  76.7s] 24 guests logged in through the captive portal\n"
        "[t= 136.7s] agw-1: 3 backhaul sessions, 14.4 Mbps aggregate\n"
        "[t= 136.7s] agw-2: 3 backhaul sessions, 14.4 Mbps aggregate\n"
        "[t= 136.7s] guest-1 after exceeding allowance: allowed=False"
        " (enforced by the WiFi-layer portal)\n"
        "[t= 136.7s] LTE backhaul carried 216 MB this hour, policy-free\n"
        "AccessParks scenario complete\n"),
    "neutral_host.py": (
        "[t=  14.1s] 6 MNO roamers attached at 3 micro-sites"
        " (FeG S6a requests: 6, Gx: 6)\n"
        "[t=  14.1s] roamer session: home_routed=True, MNO policy enforced"
        " locally at 20 Mbps\n"
        "[t=  17.2s] local subscriber on the same AGW: home_routed=False"
        " (local breakout)\n"
        "[t=  47.2s] GTP-A carrying 120 Mbps of home-routed traffic"
        " (12% of capacity)\n"
        "[t=  47.2s] MNO P-GW metered 435 MB for its own billing systems\n"
        "neutral host scenario complete\n"),
    "enterprise_5g.py": (
        "[t=   8.6s] 4 AGVs registered over 5G with PDU sessions"
        " (QCI 1, EF-marked)\n"
        "[t=   8.6s] AGV downlink packet DSCP=46"
        " (46 = expedited forwarding)\n"
        "[t= 128.6s] IoT fleet: 41 cycles, 98% success,"
        " 80,000 bytes of telemetry\n"
        "[t= 129.6s] WiFi guest connected: ip=10.128.0.6,"
        " shaped to 5 Mbps\n"
        "[t= 129.6s] sessions: 6, frontends in use: ['ngap', 'radius']"
        " + s1ap (IoT, transient)\n"
        "enterprise 5G scenario complete\n"),
}


@pytest.mark.parametrize("script,sentinel", EXAMPLES)
def test_example_runs(script, sentinel):
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script)],
        capture_output=True, text=True, timeout=240)
    assert result.returncode == 0, result.stderr
    assert sentinel in result.stdout
    assert result.stdout == EXPECTED_STDOUT[script]
