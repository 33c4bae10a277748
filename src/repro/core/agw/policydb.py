"""Policy database (AGW-local cache of orchestrator-authored policies)."""

from __future__ import annotations

from typing import Dict, List

from ..policy.rules import PolicyRule, unlimited


class PolicyDb:
    """Policies by id, synchronized from the orchestrator (desired state)."""

    def __init__(self):
        self._policies: Dict[str, PolicyRule] = {
            "default": unlimited("default"),
        }
        self.version = 0

    def __len__(self) -> int:
        return len(self._policies)

    def get(self, policy_id: str) -> PolicyRule:
        """Resolve a policy id, falling back to the default policy."""
        policy = self._policies.get(policy_id)
        if policy is None:
            return self._policies["default"]
        return policy

    def has(self, policy_id: str) -> bool:
        return policy_id in self._policies

    def upsert(self, policy: PolicyRule) -> None:
        self._policies[policy.policy_id] = policy

    def apply_desired_state(self, policies: Dict[str, PolicyRule],
                            version: int) -> None:
        """Replace all policies; a default is always preserved."""
        merged = dict(policies)
        merged.setdefault("default", unlimited("default"))
        self._policies = merged
        self.version = version

    def apply_desired_delta(self, upserts: Dict[str, PolicyRule],
                            deletes: List[str], version: int) -> None:
        """Apply a digest-reconciled delta; the default always survives."""
        for policy_id in deletes:
            self._policies.pop(policy_id, None)
        self._policies.update(upserts)
        self._policies.setdefault("default", unlimited("default"))
        self.version = version
