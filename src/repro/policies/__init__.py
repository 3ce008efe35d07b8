"""Pluggable scheduling policies and the policy registry.

A policy is a function (:data:`~repro.policies.base.Policy`): it
observes the queue/cluster through a
:class:`~repro.policies.base.PolicyObservation` and returns the groups
to start, a tuple of :class:`~repro.policies.base.GroupStart`.  The
policy families:

* :mod:`repro.policies.queueing` — FIFO packing (the legacy baseline
  scan) plus EASY / conservative reservation backfill.
* :mod:`repro.policies.packing` — Synergy-style resource-sensitive
  packing scored on the Eq. 3 perf model.
* :mod:`repro.policies.interleave` — CASSINI-style phase-offset COMM
  interleaving.
* :mod:`repro.policies.planner` — Harmony's Algorithm 1 as a one-shot
  queue policy.
* :mod:`repro.policies.registry` — name -> runtime factories for all
  of the above and the paper's three systems.
"""

from repro.policies.base import (
    GroupStart,
    Policy,
    PolicyObservation,
    RunningGroupView,
)
from repro.policies.interleave import cassini
from repro.policies.packing import synergy
from repro.policies.planner import harmony_static
from repro.policies.queueing import conservative, easy, fcfs, packed_fifo

__all__ = [
    "GroupStart",
    "Policy",
    "PolicyObservation",
    "RunningGroupView",
    "cassini",
    "harmony_static",
    "synergy",
    "conservative",
    "easy",
    "fcfs",
    "packed_fifo",
]
