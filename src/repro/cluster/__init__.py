"""Cluster substrate: allocation ledger, memory/network/disk models."""

from repro.cluster.cluster import Cluster
from repro.cluster.disk import DiskModel
from repro.cluster.memory import MemoryLedger
from repro.cluster.network import NetworkModel

__all__ = ["Cluster", "DiskModel", "MemoryLedger", "NetworkModel"]
