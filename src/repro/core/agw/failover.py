"""AGW failover to a backup instance (§3.3).

"The runtime state stored in an AGW is checkpointed regularly and may be
copied to a backup instance of the AGW running as a cloud service.  When
an AGW fails, the backup cloud instance is brought into service, and can
manage connections for the affected set of UEs until the primary AGW is
restarted."

:func:`promote_backup` restores the failed AGW's checkpointed sessions
(and their data-plane state) into the standby, and :func:`fail_back`
hands them back to the recovered primary.  Neither moves the RAN: the
operator re-points the site's eNodeBs (``Enodeb.retarget_core``) at the
backup after promotion and at the primary after fail-back.
``examples/backup_failover.py`` runs the whole cycle.
"""

from __future__ import annotations

from typing import Optional

from .gateway import AccessGateway
from .magmad import CheckpointStore


class FailoverError(Exception):
    """Promotion failed (no checkpoint, backup not standing by, ...)."""


def promote_backup(backup: AccessGateway, failed_node: str,
                   store: Optional[CheckpointStore] = None) -> int:
    """Bring the standby into service for a failed AGW's UEs.

    Restores the failed gateway's last checkpoint into ``backup`` and
    returns the number of sessions restored.  The backup must be idle (no
    sessions of its own) - it is a dedicated warm standby, not a peer.
    """
    if backup.crashed:
        raise FailoverError("backup gateway is itself down")
    if backup.sessiond.session_count() > 0:
        raise FailoverError("backup already serves sessions")
    store = store or backup.magmad.checkpoint_store
    if store is None:
        raise FailoverError("no checkpoint store configured")
    snapshot = store.load(failed_node)
    if snapshot is None:
        raise FailoverError(f"no checkpoint found for {failed_node!r}")
    restored = backup.sessiond.restore(snapshot["sessions"])
    backup.magmad.config_version = snapshot.get("config_version",
                                                backup.magmad.config_version)
    return restored


def fail_back(primary: AccessGateway, backup: AccessGateway) -> int:
    """Return service to a recovered primary.

    The backup checkpoints its current (possibly updated) session state
    under the *primary's* node name, the primary restores from it, and the
    backup steps down with the wipe a crash recovery starts from (sessions,
    data-plane rules, IPs and UE contexts).  Returns the sessions handed
    back.
    """
    if primary.crashed:
        raise FailoverError("primary has not recovered")
    snapshot = backup.magmad.snapshot()
    store = primary.magmad.checkpoint_store
    if store is not None:
        store.save(primary.node, snapshot)
    restored = primary.sessiond.restore(snapshot["sessions"])
    backup._wipe_runtime_state()
    return restored
