"""Durable configuration store (the orchestrator's Postgres stand-in).

Configuration state is "only ever written by the orchestrator ... the
source of truth is stored durably" (§3.4).  This store provides those
semantics: every mutation appends to a write-ahead log before updating the
in-memory view, the global version is monotonic, and :meth:`recover`
rebuilds the exact state from the log alone (exercised by the failure
tests).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from ...record import record


@record(frozen=True)
class WalEntry:
    version: int
    op: str            # "put" | "delete"
    key: Tuple[str, str]
    value: Any = None


class ConfigStore:
    """Versioned KV store, keyed by (namespace, id), with a WAL."""

    def __init__(self):
        self._wal: List[WalEntry] = []
        self._data: Dict[Tuple[str, str], Any] = {}
        self._version = 0
        self._ns_versions: Dict[str, int] = {}
        self._observers: List[Callable[[WalEntry], None]] = []

    def add_observer(self, fn: Callable[[WalEntry], None]) -> None:
        """Call ``fn(entry)`` after every applied mutation.

        Lets derived structures (the digest index) stay incrementally in
        sync without polling the WAL.  Observers run synchronously after
        the store state is updated, so they may read back what they see.
        """
        self._observers.append(fn)

    @property
    def version(self) -> int:
        """Global monotonic version; bumps on every mutation."""
        return self._version

    def namespace_version(self, namespace: str) -> int:
        """Global version of the last mutation touching ``namespace``.

        Lets consumers (statesync's bundle cache) tell whether a version
        bump actually changed the state they serve, instead of rebuilding
        on every write anywhere in the store.
        """
        return self._ns_versions.get(namespace, 0)

    def put(self, namespace: str, key: str, value: Any) -> int:
        self._version += 1
        entry = WalEntry(self._version, "put", (namespace, key), value)
        self._wal.append(entry)       # WAL first, then apply
        self._data[(namespace, key)] = value
        self._ns_versions[namespace] = self._version
        self._notify(entry)
        return self._version

    def delete(self, namespace: str, key: str) -> int:
        if (namespace, key) not in self._data:
            raise KeyError(f"{namespace}/{key} not found")
        self._version += 1
        entry = WalEntry(self._version, "delete", (namespace, key))
        self._wal.append(entry)
        del self._data[(namespace, key)]
        self._ns_versions[namespace] = self._version
        self._notify(entry)
        return self._version

    def _notify(self, entry: WalEntry) -> None:
        for fn in self._observers:
            fn(entry)

    def get(self, namespace: str, key: str, default: Any = None) -> Any:
        return self._data.get((namespace, key), default)

    def namespace(self, namespace: str) -> Dict[str, Any]:
        """All entries in a namespace as {key: value}."""
        return {key: value for (ns, key), value in self._data.items()
                if ns == namespace}

    def keys(self, namespace: str) -> List[str]:
        return [key for (ns, key) in self._data if ns == namespace]

    def recover(self) -> "ConfigStore":
        """Rebuild a fresh store by replaying this store's WAL (crash test)."""
        fresh = ConfigStore()
        for entry in self._wal:
            if entry.op == "put":
                fresh._data[entry.key] = entry.value
            elif entry.op == "delete":
                fresh._data.pop(entry.key, None)
            fresh._version = entry.version
            fresh._ns_versions[entry.key[0]] = entry.version
            fresh._wal.append(entry)
        return fresh
