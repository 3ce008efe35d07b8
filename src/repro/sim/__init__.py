"""Discrete-event simulation kernel.

A minimal, dependency-free DES in the style of SimPy: generator-based
processes, triggerable events, and rate-based shared resources.  The
Harmony runtime (:mod:`repro.core.runtime`) and the baseline runtimes
are built on top of this kernel.
"""

from repro.sim.events import Event
from repro.sim.process import Process
from repro.sim.rand import RandomStreams
from repro.sim.resources import (
    RatePolicy,
    RateResource,
    primary_secondary,
    processor_sharing,
    serial,
)
from repro.sim.simulator import FastpathStats, ScheduledCall, Simulator

__all__ = [
    "Event",
    "FastpathStats",
    "Process",
    "RandomStreams",
    "RatePolicy",
    "RateResource",
    "ScheduledCall",
    "Simulator",
    "primary_secondary",
    "processor_sharing",
    "serial",
]
