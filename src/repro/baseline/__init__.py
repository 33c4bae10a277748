"""Baseline architectures Magma is compared against."""

from .crud_sync import CrudReplica, CrudSynchronizer
from .epc import MonolithicEpc

__all__ = [
    "CrudReplica",
    "CrudSynchronizer",
    "MonolithicEpc",
]
