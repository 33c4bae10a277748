#!/usr/bin/env python3
"""Warm-standby failover: a backup AGW carries a failed site (§3.3).

"The runtime state stored in an AGW is checkpointed regularly and may be
copied to a backup instance of the AGW running as a cloud service.  When
an AGW fails, the backup cloud instance is brought into service, and can
manage connections for the affected set of UEs until the primary AGW is
restarted."

A site's AGW checks in to the orchestrator over fiber; a backup AGW does
the same and syncs the same subscribers, and reaches the site's eNodeB
over microwave.  The primary checkpoints and crashes, the backup takes
over its sessions, the operator re-points the eNodeB at the backup, a new
UE attaches there, and once the primary is back the sessions (the new
one too) are handed back and the eNodeB is re-pointed home.

Run:  python examples/backup_failover.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import deploy
from repro.core.agw import AccessGateway
from repro.core.agw.failover import fail_back, promote_backup
from repro.net import backhaul


def main():
    site = deploy.build(num_ues=3, backhaul="fiber")
    sim, enb = site.sim, site.enbs[0]

    # The standby runs as a cloud service: it checks in to the
    # orchestrator like any AGW and reaches the site over backhaul.
    site.network.connect("agw-backup", "orc", backhaul.fiber())
    site.network.connect("agw-backup", enb.node_id, backhaul.microwave())
    backup = AccessGateway(sim, site.network, "agw-backup",
                           orchestrator_node="orc",
                           checkpoint_store=site.checkpoint_store,
                           rng=site.rng.fork("backup"))
    backup.start()
    # Both AGWs pull their config at their first check-in, one minute in.
    sim.run(until=65.0)
    print(f"[t={sim.now:5.1f}s] agw-1 and the backup synced "
          f"{len(site.agw.subscriberdb)} and {len(backup.subscriberdb)} "
          f"subscribers from the orchestrator")
    for ue in site.ues[:2]:
        assert site.run_attach(ue).success
    sim.run(until=sim.now + 2.0)
    print(f"[t={sim.now:5.1f}s] agw-1 serves "
          f"{site.agw.sessiond.session_count()} sessions")

    site.agw.magmad.checkpoint_now()
    site.agw.crash()
    restored = promote_backup(backup, "agw-1")
    print(f"[t={sim.now:5.1f}s] agw-1 crashed; backup restored {restored} "
          f"sessions from its checkpoint")

    response = sim.run_until_triggered(enb.retarget_core("agw-backup"),
                                       limit=sim.now + 30.0)
    print(f"[t={sim.now:5.1f}s] eNodeB re-pointed at the backup: "
          f"accepted={response.accepted}")
    outcome = site.run_attach(site.ues[2])
    print(f"[t={sim.now:5.1f}s] third UE attached through the backup: "
          f"success={outcome.success}, backup serves "
          f"{backup.sessiond.session_count()} sessions")

    site.agw.recover(from_checkpoint=False)
    handed_back = fail_back(site.agw, backup)
    response = sim.run_until_triggered(enb.retarget_core("agw-1"),
                                       limit=sim.now + 30.0)
    print(f"[t={sim.now:5.1f}s] agw-1 recovered: {handed_back} sessions "
          f"handed back, backup left with "
          f"{backup.sessiond.session_count()}")
    print(f"[t={sim.now:5.1f}s] eNodeB re-pointed at agw-1: "
          f"accepted={response.accepted}")
    print("backup failover scenario complete")


if __name__ == "__main__":
    main()
