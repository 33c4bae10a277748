"""Baseline architectures Magma is compared against."""

from .crud_sync import (
    CrudReplica,
    CrudSynchronizer,
    DesiredStateSynchronizer,
)
from .epc import MonolithicEpc

__all__ = [
    "CrudReplica",
    "CrudSynchronizer",
    "DesiredStateSynchronizer",
    "MonolithicEpc",
]
