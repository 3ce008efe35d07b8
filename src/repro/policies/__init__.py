"""Pluggable scheduling policies and the policy registry.

The protocol lives in :mod:`repro.policies.base`: a policy observes
the queue/cluster through a :class:`~repro.policies.base.PolicyObservation`
and decides which queued jobs start, grouped how
(:class:`~repro.policies.base.PolicyDecision`).  The policy families:

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
    FunctionPolicy,
    GroupStart,
    PolicyDecision,
    PolicyObservation,
    RunningGroupView,
    SchedulingPolicy,
)
from repro.policies.interleave import cassini
from repro.policies.packing import synergy
from repro.policies.planner import HarmonyPlanPolicy
from repro.policies.queueing import (
    conservative,
    conservative_backfill,
    easy,
    easy_backfill,
    fcfs,
    packed_fifo,
)

__all__ = [
    "FunctionPolicy",
    "GroupStart",
    "PolicyDecision",
    "PolicyObservation",
    "RunningGroupView",
    "SchedulingPolicy",
    "HarmonyPlanPolicy",
    "cassini",
    "synergy",
    "conservative",
    "conservative_backfill",
    "easy",
    "easy_backfill",
    "fcfs",
    "packed_fifo",
]
