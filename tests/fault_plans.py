"""Crash-only fault plans for the end-to-end recovery tests."""

from repro.faults.plan import FaultEvent, FaultKind, FaultPlan


def crash_plan(crashes, downtime=600.0):
    """A :class:`FaultPlan` crashing machine ``m`` at time ``t`` for
    each ``(t, m)`` of ``crashes``; each machine rejoins the pool
    ``downtime`` seconds after its crash."""
    return FaultPlan.build([
        FaultEvent(time=t, kind=FaultKind.MACHINE_CRASH, machine_id=m,
                   duration=downtime)
        for t, m in crashes])
